package opt

import (
	"fmt"
	"math"
)

// Audit is one assignment's feasibility, cost and stationarity, measured
// together in two passes over x, one for the sums and one for the gap:
// Violation and Cost hold exactly — bit for bit — what Problem.Violation
// and Problem.Cost return on the same matrix, and KKTGap is the
// stationarity gap at x's column loads (see stationarityGap).
//
// Problem.Audit measures every row. AuditFrom returns the same Audit, bit
// for bit, from the AuditState of a previous matrix: it measures only the
// rows the caller names as changed (and rows the state has no row for),
// takes every other row's worst violation and pattern from the state —
// which holds only if each such row, its demand and its mask row are
// those the state measured — and still sums the column loads over every
// row, in row order. The state is never modified by an audit; the
// returned step's Carry moves it to the audited matrix, using it up.
type Audit struct {
	Violation, Cost, KKTGap float64
	// Marginal is the replicas' marginal costs at x's column loads.
	Marginal []float64
}

// Audit measures x against the problem in two passes (see Audit).
func (p *Problem) Audit(x [][]float64) Audit {
	loads, worst := p.scan(x)
	marginal, unsat := p.marginals(loads)
	return Audit{
		Violation: p.capacityExcess(worst, loads),
		Cost:      p.System.CostOfLoads(loads),
		KKTGap:    p.stationarityGap(x, marginal, unsat),
		Marginal:  marginal,
	}
}

// scan makes the one pass over x that Violation and Audit share: x's
// column loads, and the worst of every per-entry and per-row violation —
// negativity (−p)₊, mass off the latency mask |p|, and demand error
// |Σ_n p_{c,n} − R_c|. Loads accumulate row by row from zero and row sums
// entry by entry, as ColSums, RowSums and model.System.TotalCost do, so
// every sum is theirs bit for bit. The worst folds its candidates with
// plain comparisons yet returns exactly what a math.Max fold would, which
// is order-independent: +Inf if any candidate is +Inf, else NaN if any is
// NaN, else the largest. A NaN entry makes its row sum NaN, so the
// row-sum candidate alone is watched for NaN.
func (p *Problem) scan(x [][]float64) (loads []float64, worst float64) {
	loads = make([]float64, p.N())
	mask := p.Allowed()
	nan := false
	for c, row := range x {
		sum, allowed := 0.0, mask[c]
		for n, v := range row {
			sum += v
			loads[n] += v
			if -v > worst {
				worst = -v
			}
			if !allowed[n] && math.Abs(v) > worst {
				worst = math.Abs(v)
			}
		}
		if e := math.Abs(sum - p.Demands[c]); e > worst {
			worst = e
		} else if e != e {
			nan = true
		}
	}
	if nan && !math.IsInf(worst, 1) {
		worst = math.NaN()
	}
	return loads, worst
}

// PackedCost is Cost of the matrix that v, packed over p.Sparsity() in
// CSR order, scatters into — bit for bit, since each column sums its
// entries in client order as Cost's row-by-row loads do.
func (p *Problem) PackedCost(v []float64) float64 {
	return p.System.CostOfLoads(p.Sparsity().ColSumsInto(make([]float64, p.N()), v))
}

// PackedViolation is Violation of the matrix that v, packed over
// p.Sparsity() in CSR order, scatters into — bit for bit: scan's sums run
// in the same orders, and the off-support zeros it visits move neither a
// sum nor the worst.
func (p *Problem) PackedViolation(v []float64) float64 {
	sp := p.Sparsity()
	worst := 0.0
	for c := 0; c < sp.C; c++ {
		sum := 0.0
		for _, x := range v[sp.RowStart[c]:sp.RowStart[c+1]] {
			sum += x
			worst = math.Max(worst, -x)
		}
		worst = math.Max(worst, math.Abs(sum-p.Demands[c]))
	}
	return p.capacityExcess(worst, sp.ColSumsInto(make([]float64, sp.N), v))
}

// capacityExcess folds the columns' capacity excess (Σ_c p_{c,n} − B_n)₊
// into worst.
func (p *Problem) capacityExcess(worst float64, loads []float64) float64 {
	for n, load := range loads {
		worst = math.Max(worst, load-p.System.Replicas[n].Bandwidth)
	}
	return worst
}

// marginals prices every column at its load, and marks the columns with
// spare capacity (below B_n by more than a relative hair).
func (p *Problem) marginals(loads []float64) (marginal []float64, unsat []bool) {
	n := p.N()
	marginal = make([]float64, n)
	unsat = make([]bool, n)
	for j := 0; j < n; j++ {
		rep := p.System.Replicas[j]
		marginal[j] = rep.MarginalCost(loads[j])
		unsat[j] = loads[j] < rep.Bandwidth-1e-9*math.Max(1, rep.Bandwidth)
	}
	return marginal, unsat
}

// stationarityGap is the cheap first-order optimality check gating
// incremental results, given the columns' marginals and spare capacity at
// x's loads. For the EDR objective the feasible set is a transportation
// polytope and the cost depends on the assignment only through column
// sums, so at an optimum every client's served replicas share the lowest
// attainable marginal: no used replica may be strictly more expensive (at
// the margin) than a reachable replica with spare capacity. The gap sums,
// over clients, R_c times the positive part of
//
//	max marginal over used replicas − min marginal over unsaturated
//	reachable replicas
//
// which upper-bounds nothing exactly but scales like the first-order
// improvement a mass shift could achieve; the runtime compares it against
// a small fraction of the objective and escalates to a full solve when it
// is large. A gap of 0 means x passes the stationarity spot-check.
func (p *Problem) stationarityGap(x [][]float64, marginal []float64, unsat []bool) float64 {
	mask := p.Allowed()
	const tiny = 1e-9
	gap := 0.0
	for c, row := range x {
		maxUsed := math.Inf(-1)
		minFree := math.Inf(1)
		used := tiny * max(1, p.Demands[c])
		allowed := mask[c]
		for j, v := range row {
			m := marginal[j]
			if v > used && m > maxUsed {
				maxUsed = m
			}
			if allowed[j] && unsat[j] && m < minFree {
				minFree = m
			}
		}
		if diff := maxUsed - minFree; diff > 0 && !math.IsInf(maxUsed, -1) && !math.IsInf(minFree, 1) {
			gap += p.Demands[c] * diff
		}
	}
	return gap
}

// AuditState is what an audit carries from one matrix to the next. For
// every row it holds the row's worst violation candidate (scan's fold,
// restricted to the row) and the id of the row's pattern: the columns it
// serves (v > 1e-9·max(1, R_c), stationarityGap's "used") and the columns
// its mask allows. A row's stationarity term is its demand times a number
// that depends only on its pattern and the columns' marginals, so one
// table, priced once per audit, serves every row with that pattern.
//
// AuditCarried builds a state from a full pass; AuditFrom audits the next
// matrix from it, measuring only the rows that changed, and returns the
// step whose Carry moves the state on to that matrix.
type AuditState struct {
	worst []float64
	pat   []int32
	pats  *patterns
}

// patterns interns row patterns. A key is the served bitmap and then the
// allowed bitmap, ⌈N/8⌉ bytes each; keys[id] is the key of pattern id.
// Carry rebuilds the table from the carried rows whenever it holds more
// than twice the patterns those rows use, plus patternSlack, so it stays
// bounded by the rows that use it however many patterns came and went.
type patterns struct {
	ids  map[string]int32
	keys []string
}

// patternSlack keeps a small table from being rebuilt on every carry.
const patternSlack = 64

// AuditStep is what AuditFrom measured afresh: the rows of the audited
// matrix the state did not describe, and the patterns new to its table.
// Carry applies it to the state it was taken from.
type AuditStep struct {
	from   *AuditState
	rowMap []int
	// fresh lists the measured rows, ascending; worst[k] and pat[k] are
	// row fresh[k]'s. A pat at or past base is extra[pat−base].
	fresh []int
	worst []float64
	pat   []int32
	base  int
	extra []string
	// used counts the distinct patterns of the audited matrix's rows.
	used int
}

// AuditCarried is Audit of x, bit for bit, together with x's audit state.
func (p *Problem) AuditCarried(x [][]float64) (Audit, *AuditState) {
	au, step := p.AuditFrom(x, nil, nil, nil)
	return au, step.Carry()
}

// AuditFrom is Audit of x — Violation, Cost, KKTGap and Marginal, bit for
// bit — given st, the audit state of the previous matrix, for O(changed)
// row measurements plus one row-order column-sum pass.
//
// rowMap[i] is x's row i's row in st (−1 for a row st does not describe);
// nil is the identity and needs as many rows as st has. changed lists,
// ascending, x's rows that differ from their st row. Every other row with
// a row in st must equal it entry for entry, with the same demand and the
// same mask row: those rows are not read, their st values stand in.
// Changed rows and rows without a row in st are measured afresh; a nil st
// describes no rows, so every row is (rowMap and changed are then unused).
//
// The worst violation is the fold of the per-row worsts under scan's
// order-free rule; the KKT gap adds R_c times its pattern's difference in
// row order, the products and the order stationarityGap uses; the loads
// behind Cost, Marginal and the capacity excess are summed row by row as
// scan sums them. st is not modified: drop the step to discard the audit,
// or call its Carry to move st to x. The step holds on to rowMap and
// changed until then.
func (p *Problem) AuditFrom(x [][]float64, st *AuditState, rowMap, changed []int) (Audit, *AuditStep) {
	if st == nil {
		st, rowMap, changed = &AuditState{pats: &patterns{ids: map[string]int32{}}}, make([]int, len(x)), nil
		for i := range rowMap {
			rowMap[i] = -1
		}
	}
	if rowMap == nil && len(x) != len(st.worst) || rowMap != nil && len(rowMap) != len(x) {
		panic(fmt.Sprintf("opt: AuditFrom on %d rows from a state of %d (row map of %d)", len(x), len(st.worst), len(rowMap)))
	}
	step := &AuditStep{from: st, rowMap: rowMap, fresh: freshRows(changed, rowMap), base: len(st.pats.keys)}
	step.measure(p, x)
	loads := rowOrderLoads(x, p.N())
	marginal, unsat := p.marginals(loads)
	// priced[id]: 0 not yet priced this audit, 1 adds nothing to the gap,
	// 2 adds R_c·diff[id].
	priced := make([]uint8, step.base+len(step.extra))
	diff := make([]float64, len(priced))
	worst, nan, gap := 0.0, false, 0.0
	k := 0
	for i := range x {
		var w float64
		var id int32
		if k < len(step.fresh) && step.fresh[k] == i {
			w, id = step.worst[k], step.pat[k]
			k++
		} else {
			r := i
			if rowMap != nil {
				r = rowMap[i]
			}
			w, id = st.worst[r], st.pat[r]
		}
		if w > worst {
			worst = w
		} else if w != w {
			nan = true
		}
		if priced[id] == 0 {
			priced[id] = 1
			if d, ok := patternDiff(step.key(id), marginal, unsat); ok {
				diff[id], priced[id] = d, 2
			}
			step.used++
		}
		if priced[id] == 2 {
			gap += p.Demands[i] * diff[id]
		}
	}
	if k != len(step.fresh) {
		panic("opt: AuditFrom's changed rows do not ascend within the matrix")
	}
	if nan && !math.IsInf(worst, 1) {
		worst = math.NaN()
	}
	return Audit{
		Violation: p.capacityExcess(worst, loads),
		Cost:      p.System.CostOfLoads(loads),
		KKTGap:    gap,
		Marginal:  marginal,
	}, step
}

// measure takes the worst violation and the pattern of each fresh row of
// x, interning patterns the state's table lacks as the step's extras.
func (step *AuditStep) measure(p *Problem, x [][]float64) {
	step.worst = make([]float64, len(step.fresh))
	step.pat = make([]int32, len(step.fresh))
	mask, table := p.Allowed(), step.from.pats.ids
	key := make([]byte, 2*((p.N()+7)/8))
	extra := make(map[string]int32)
	for k, i := range step.fresh {
		step.worst[k] = rowAudit(x[i], mask[i], p.Demands[i], key)
		id, ok := table[string(key)]
		if !ok {
			if id, ok = extra[string(key)]; !ok {
				id = int32(step.base + len(step.extra))
				extra[string(key)] = id
				step.extra = append(step.extra, string(key))
			}
		}
		step.pat[k] = id
	}
}

// rowOrderLoads is x's column loads summed row by row from zero, as scan
// and ColSums sum them. It sweeps four rows at a time: the same additions
// in the same order, with a quarter of the loads and stores of the sums.
func rowOrderLoads(x [][]float64, n int) []float64 {
	loads := make([]float64, n)
	c := 0
	for ; c+4 <= len(x); c += 4 {
		a, b, d, e := x[c], x[c+1], x[c+2], x[c+3]
		b, d, e = b[:len(a)], d[:len(a)], e[:len(a)]
		sums := loads[:len(a)]
		for j, v := range a {
			sums[j] = sums[j] + v + b[j] + d[j] + e[j]
		}
	}
	for ; c < len(x); c++ {
		sums := loads[:len(x[c])]
		for j, v := range x[c] {
			sums[j] += v
		}
	}
	return loads
}

// Carry returns the audit state of the matrix the step audited. The state
// the step was taken from must not have been carried since, and is used up:
// its arrays become the new state's. One step carries once.
func (step *AuditStep) Carry() *AuditState {
	st := step.from
	if len(st.pats.keys) != step.base {
		panic("opt: Carry from a state carried since the step was taken")
	}
	for _, key := range step.extra {
		st.pats.ids[key] = int32(len(st.pats.keys))
		st.pats.keys = append(st.pats.keys, key)
	}
	next := &AuditState{worst: st.worst, pat: st.pat, pats: st.pats}
	if step.rowMap != nil {
		next.worst = make([]float64, len(step.rowMap))
		next.pat = make([]int32, len(step.rowMap))
		for i, r := range step.rowMap {
			if r >= 0 {
				next.worst[i], next.pat[i] = st.worst[r], st.pat[r]
			}
		}
	}
	for k, i := range step.fresh {
		next.worst[i], next.pat[i] = step.worst[k], step.pat[k]
	}
	if len(next.pats.keys) > 2*step.used+patternSlack {
		next.compact()
	}
	return next
}

// compact rebuilds the pattern table from the patterns st's rows use.
func (st *AuditState) compact() {
	old := st.pats
	st.pats = &patterns{ids: make(map[string]int32)}
	to := make([]int32, len(old.keys))
	for i, id := range st.pat {
		if to[id] == 0 {
			key := old.keys[id]
			st.pats.ids[key] = int32(len(st.pats.keys))
			st.pats.keys = append(st.pats.keys, key)
			to[id] = int32(len(st.pats.keys)) // id + 1, so 0 reads "not yet"
		}
		st.pat[i] = to[id] - 1
	}
}

// key is pattern id's key, from the state's table or the step's new
// patterns.
func (step *AuditStep) key(id int32) string {
	if int(id) < step.base {
		return step.from.pats.keys[id]
	}
	return step.extra[int(id)-step.base]
}

// freshRows merges changed with the rows rowMap has no row for: the rows
// AuditFrom measures.
func freshRows(changed, rowMap []int) []int {
	if rowMap == nil {
		return changed
	}
	fresh := make([]int, 0, len(changed))
	k := 0
	for i, r := range rowMap {
		in := k < len(changed) && changed[k] == i
		if in {
			k++
		}
		if in || r < 0 {
			fresh = append(fresh, i)
		}
	}
	if k != len(changed) {
		panic("opt: AuditFrom's changed rows do not ascend within the matrix")
	}
	return fresh
}

// rowAudit returns row's worst violation candidate — negativity, mass off
// the mask and demand error, folded by scan's rule — and writes the row's
// pattern key into key.
func rowAudit(row []float64, allowed []bool, demand float64, key []byte) float64 {
	const tiny = 1e-9
	clear(key)
	half := len(key) / 2
	used := tiny * max(1, demand)
	sum, worst := 0.0, 0.0
	for n, v := range row {
		sum += v
		if -v > worst {
			worst = -v
		}
		if !allowed[n] && math.Abs(v) > worst {
			worst = math.Abs(v)
		}
		bit := byte(1) << (n & 7)
		if v > used {
			key[n>>3] |= bit
		}
		if allowed[n] {
			key[half+n>>3] |= bit
		}
	}
	if e := math.Abs(sum - demand); e > worst {
		worst = e
	} else if e != e && !math.IsInf(worst, 1) {
		worst = math.NaN()
	}
	return worst
}

// patternDiff is stationarityGap's per-row difference for a row of the
// given pattern: the highest marginal over its served columns less the
// lowest over its allowed unsaturated ones, visited in the same column
// order with the same comparisons. ok reports whether stationarityGap adds
// it.
func patternDiff(key string, marginal []float64, unsat []bool) (diff float64, ok bool) {
	half := len(key) / 2
	maxUsed, minFree := math.Inf(-1), math.Inf(1)
	for j, m := range marginal {
		bit := byte(1) << (j & 7)
		if key[j>>3]&bit != 0 && m > maxUsed {
			maxUsed = m
		}
		if key[half+j>>3]&bit != 0 && unsat[j] && m < minFree {
			minFree = m
		}
	}
	diff = maxUsed - minFree
	return diff, diff > 0 && !math.IsInf(maxUsed, -1) && !math.IsInf(minFree, 1)
}
