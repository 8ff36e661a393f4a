package opt

// Renormalize maps a historical assignment onto a (possibly different)
// replica set: for every client the weight row — the last-known-good MB
// split, already aligned by the caller to the new column order, with zero
// columns for replicas that have no history — is rescaled so the row sums
// to the client's demand. Clients whose entire history landed on departed
// replicas (zero weight row) spread uniformly over their allowed columns.
// The result always conserves demand exactly: RowSums(out)[i] == demands[i].
//
// caps, when non-nil, bounds each column sum (a replica's bandwidth);
// non-positive entries mean unbounded. allowed, when non-nil, is the
// latency-feasibility mask; disallowed entries get no load from the
// uniform fallback, and cap excess is never redistributed onto them.
// After the proportional pass, columns exceeding their cap are shrunk and
// the excess moved — within each row, so conservation holds — onto
// allowed columns with headroom. The redistribution runs a bounded number
// of passes; if total demand exceeds total capacity (no feasible split
// exists) some cap excess remains, which downstream solvers project out.
//
// The rescaling is in place: weights is overwritten and returned, so a
// caller hands over a matrix it owns — never a committed assignment.
//
// This is the shared warm-start / degraded-round kernel: both paths
// restate stale history over the current roster.
func Renormalize(weights [][]float64, demands []float64, caps []float64, allowed [][]bool) [][]float64 {
	if len(demands) == 0 || len(weights[0]) == 0 {
		return weights
	}
	c, n := len(demands), len(weights[0])
	for i := 0; i < c; i++ {
		row := weights[i]
		sum := 0.0
		for j := 0; j < n; j++ {
			if row[j] > 0 {
				sum += row[j]
			}
		}
		if sum > 0 {
			for j := 0; j < n; j++ {
				if row[j] > 0 {
					row[j] = demands[i] * row[j] / sum
				} else {
					row[j] = 0
				}
			}
			continue
		}
		// No usable history: uniform over the allowed columns (over all
		// columns when the mask rules out everything — conservation beats
		// mask purity in a fallback, and projection cleans it up later).
		count := 0
		for j := 0; j < n; j++ {
			if allowed == nil || allowed[i][j] {
				count++
			}
		}
		share := demands[i] / float64(n)
		if count > 0 {
			share = demands[i] / float64(count)
		}
		for j := 0; j < n; j++ {
			if count == 0 || allowed == nil || allowed[i][j] {
				row[j] = share
			} else {
				row[j] = 0
			}
		}
	}
	if caps != nil {
		redistributeCapExcess(weights, caps, allowed)
	}
	return weights
}

// redistributeCapExcess shrinks over-cap columns and moves the excess,
// row by row, onto allowed columns with remaining headroom. Each pass
// handles every over-cap column once; a few passes settle any feasible
// instance (moving mass can newly overflow a column, hence the loop).
func redistributeCapExcess(x [][]float64, caps []float64, allowed [][]bool) {
	const passes = 8
	const eps = 1e-9
	c := len(x)
	if c == 0 {
		return
	}
	n := len(x[0])
	cols := make([]float64, n)
	for pass := 0; pass < passes; pass++ {
		for j := range cols {
			cols[j] = 0
		}
		for i := 0; i < c; i++ {
			for j := 0; j < n; j++ {
				cols[j] += x[i][j]
			}
		}
		moved := false
		for j := 0; j < n; j++ {
			if caps[j] <= 0 || cols[j] <= caps[j]+eps {
				continue
			}
			shrink := caps[j] / cols[j]
			for i := 0; i < c; i++ {
				if x[i][j] <= 0 {
					continue
				}
				excess := x[i][j] * (1 - shrink)
				// Headroom available to THIS row: allowed columns under cap.
				headroom := 0.0
				for k := 0; k < n; k++ {
					if k == j || (allowed != nil && !allowed[i][k]) {
						continue
					}
					if caps[k] <= 0 {
						headroom += excess // unbounded column absorbs alone
						continue
					}
					if h := caps[k] - cols[k]; h > 0 {
						headroom += h
					}
				}
				if headroom <= eps {
					continue // nowhere to go: leave the excess in place
				}
				take := excess
				x[i][j] -= take
				cols[j] -= take
				for k := 0; k < n && take > eps; k++ {
					if k == j || (allowed != nil && !allowed[i][k]) {
						continue
					}
					var h float64
					if caps[k] <= 0 {
						h = take
					} else {
						h = caps[k] - cols[k]
					}
					if h <= 0 {
						continue
					}
					if h > take {
						h = take
					}
					x[i][k] += h
					cols[k] += h
					take -= h
				}
				if take > eps {
					// Headroom ran out mid-row (another row consumed it
					// first): put the remainder back rather than lose mass.
					x[i][j] += take
					cols[j] += take
				}
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}
