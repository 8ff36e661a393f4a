package opt

import "fmt"

// SparseProjector is Dykstra's alternating projection (whose correction
// terms make the limit the nearest point of the intersection, not merely a
// point in it) specialized to the packed CSR layout: it projects packed
// iterates onto the intersection of the per-client simplexes
// {Σ_n p = R_c, p ≥ 0} and the per-replica capacity halfspaces
// {Σ_c p ≤ bound_n}, all restricted to the mask support. Three structural
// facts keep it cheap:
//
//   - row projections operate on contiguous row segments of the packed
//     vector — no gather, no per-call allocation;
//   - the halfspace projection shifts every entry of a column by the same
//     amount, so the column-set correction is one scalar per column
//     instead of a correction matrix;
//   - per-replica column sums S_n are maintained incrementally: the row
//     phase adds each entry's movement to its column's sum as it goes (rows
//     ascend, so every column takes its deltas in CSC order), and columns
//     whose maintained sum already satisfies their bound are skipped in O(1).
//
// A projector is built once per (sparsity, demands, bounds) triple and
// reused across Project calls; it is not safe for concurrent use.
type SparseProjector struct {
	sp      *Sparsity
	demands []float64
	// bounds holds the per-column capacity; +Inf marks an unconstrained
	// column (CDPSM's local sets bound only the agent's own column).
	bounds []float64

	corrRow []float64 // packed row-set Dykstra corrections
	colCorr []float64 // per-column scalar halfspace corrections
	s       []float64 // maintained column sums of the iterate
	caps    []float64 // sort scratch for the row simplex projections
	scratch []float64 // row-copy scratch: pre-sweep values, membership checks
}

// DykstraOptions tunes SparseProjector.Project's sweep loop: it runs at
// most MaxSweeps passes over both set families and stops once the iterate
// is within Tol of every set.
type DykstraOptions struct {
	MaxSweeps int
	Tol       float64
}

// NewSparseProjector builds a projector over sp with per-client demands and
// per-column capacity bounds (use math.Inf(1) for unconstrained columns).
func NewSparseProjector(sp *Sparsity, demands, bounds []float64) *SparseProjector {
	if len(demands) != sp.C || len(bounds) != sp.N {
		panic(fmt.Sprintf("opt: NewSparseProjector got %d demands, %d bounds for %d×%d sparsity",
			len(demands), len(bounds), sp.C, sp.N))
	}
	return &SparseProjector{
		sp:      sp,
		demands: demands,
		bounds:  bounds,
		corrRow: make([]float64, sp.NNZ()),
		colCorr: make([]float64, sp.N),
		s:       make([]float64, sp.N),
		caps:    make([]float64, sp.MaxRowNNZ()),
		scratch: make([]float64, sp.MaxRowNNZ()),
	}
}

// Project runs Dykstra sweeps on packed v in place until v is within
// opts.Tol of both set families or MaxSweeps is exhausted, returning the
// sweep count. Callers wanting exact demand rows afterwards (Dykstra may
// stop on the column set) follow with FinishRows.
func (pj *SparseProjector) Project(v []float64, opts DykstraOptions) (int, error) {
	sp := pj.sp
	if len(v) != sp.NNZ() {
		panic(fmt.Sprintf("opt: Project got %d-slot vector for %d nnz", len(v), sp.NNZ()))
	}
	VecFill(pj.corrRow, 0)
	VecFill(pj.colCorr, 0)
	sp.ColSumsInto(pj.s, v)
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		if err := pj.rowPhase(v); err != nil {
			return sweep, err
		}
		pj.colPhase(v)
		ok, err := pj.converged(v, opts.Tol)
		if err != nil {
			return sweep, err
		}
		if ok {
			return sweep, nil
		}
	}
	return opts.MaxSweeps, nil
}

// rowPhase is one Dykstra pass over the row sets: add the row corrections,
// project each contiguous row segment onto its simplex, record the
// new corrections, and fold each entry's movement into its column's sum.
func (pj *SparseProjector) rowPhase(v []float64) error {
	sp := pj.sp
	for c := 0; c < sp.C; c++ {
		rs, re := sp.RowStart[c], sp.RowStart[c+1]
		r := pj.demands[c]
		if rs == re {
			if r > 1e-12 {
				return fmt.Errorf("opt: client %d has no feasible replica for demand %g", c, r)
			}
			continue
		}
		seg, cr, cols, pre := v[rs:re], pj.corrRow[rs:re], sp.ColIdx[rs:re], pj.scratch[:re-rs]
		for k := range seg {
			pre[k] = seg[k]
			seg[k] += cr[k]
		}
		// The row set {Σy = r, 0 ≤ y ≤ r} is the plain simplex: the
		// per-entry cap r is implied by Σy = r, y ≥ 0.
		ProjectSimplexScratch(seg, pj.caps, r)
		for k := range seg {
			y := pre[k] + cr[k]
			cr[k] = y - seg[k]
			pj.s[cols[k]] += seg[k] - pre[k]
		}
	}
	return nil
}

// colPhase is one Dykstra pass over the column halfspaces. Because the
// halfspace projection is a uniform shift, the whole per-column step runs
// off the maintained sum: satisfied columns with no pending correction are
// skipped without touching their entries.
func (pj *SparseProjector) colPhase(v []float64) {
	sp := pj.sp
	for n := 0; n < sp.N; n++ {
		cs, ce := sp.ColStart[n], sp.ColStart[n+1]
		cnt := ce - cs
		if cnt == 0 {
			continue
		}
		corr := pj.colCorr[n]
		b := pj.bounds[n]
		if corr == 0 && pj.s[n] <= b {
			continue
		}
		sumY := pj.s[n] + float64(cnt)*corr
		if sumY <= b {
			for k := cs; k < ce; k++ {
				v[sp.PosCSR[k]] += corr
			}
			pj.s[n] = sumY
			pj.colCorr[n] = 0
			continue
		}
		shift := (sumY - b) / float64(cnt)
		if add := corr - shift; add != 0 {
			for k := cs; k < ce; k++ {
				v[sp.PosCSR[k]] += add
			}
		}
		pj.s[n] = sumY - shift*float64(cnt)
		pj.colCorr[n] = shift
	}
}

// converged reports whether v is within tol of every set: column
// memberships read off the maintained sums in O(N), row memberships project
// per-row scratch copies. Testing membership rather than per-sweep movement
// matters: the iterate can sit still for several sweeps while the
// corrections still accumulate, so a movement-based stop fires early.
func (pj *SparseProjector) converged(v []float64, tol float64) (bool, error) {
	sp := pj.sp
	colDist2 := 0.0
	for n := 0; n < sp.N; n++ {
		cnt := sp.ColNNZ(n)
		if cnt == 0 {
			continue
		}
		if ex := pj.s[n] - pj.bounds[n]; ex > 0 {
			colDist2 += ex * ex / float64(cnt)
		}
	}
	if colDist2 > tol*tol {
		return false, nil
	}
	total := 0.0
	for c := 0; c < sp.C; c++ {
		rs, re := sp.RowStart[c], sp.RowStart[c+1]
		if rs == re {
			continue
		}
		s := pj.scratch[:re-rs]
		copy(s, v[rs:re])
		ProjectSimplexScratch(s, pj.caps, pj.demands[c])
		d2 := 0.0
		for k := range s {
			diff := s[k] - v[rs+k]
			d2 += diff * diff
		}
		total += d2
	}
	return total <= tol*tol, nil
}

// FinishRows projects every row of v exactly onto its simplex (no
// corrections), so the demand equalities hold exactly even when Dykstra
// stopped on the column set.
func (pj *SparseProjector) FinishRows(v []float64) error {
	sp := pj.sp
	for c := 0; c < sp.C; c++ {
		rs, re := sp.RowStart[c], sp.RowStart[c+1]
		r := pj.demands[c]
		if rs == re {
			if r > 1e-12 {
				return fmt.Errorf("opt: client %d has no feasible replica for demand %g", c, r)
			}
			continue
		}
		ProjectSimplexScratch(v[rs:re], pj.caps, r)
	}
	return nil
}

// ProjectFeasible projects x in place onto the feasible region of prob,
// then verifies the result: ProjectFeasiblePacked on x's supported
// entries, scattered back. Off-support entries of x are zeroed (the
// projection onto the mask subspace — the feasible set lies inside it); x
// is left as it was when the projection fails.
func ProjectFeasible(prob *Problem, x [][]float64, tol float64) error {
	sp := prob.Sparsity()
	v := sp.Gather(x)
	if err := ProjectFeasiblePacked(prob, v, tol); err != nil {
		return err
	}
	sp.Scatter(x, v)
	return nil
}

// ProjectFeasiblePacked projects v, packed over prob.Sparsity() in CSR
// order, in place onto the feasible region of prob, then verifies the
// result. tol bounds the acceptable residual violation. v is
// Dykstra-projected with incrementally maintained column sums, and rows
// get a final exact pass so demands hold exactly even if Dykstra stopped on
// the column set. A violation that is not a number — a NaN or infinite
// entry spread through its column — fails the check.
func ProjectFeasiblePacked(prob *Problem, v []float64, tol float64) error {
	if tol <= 0 {
		tol = 1e-6
	}
	sp := prob.Sparsity()
	bounds := make([]float64, sp.N)
	for n := range bounds {
		bounds[n] = prob.System.Replicas[n].Bandwidth
	}
	pj := NewSparseProjector(sp, prob.Demands, bounds)
	// The row/column sets can meet at a shallow angle when capacities are
	// tight, making Dykstra's linear rate slow; sweeps are cheap (O(nnz))
	// so a generous bound is the right trade.
	if _, err := pj.Project(v, DykstraOptions{MaxSweeps: 5000, Tol: tol / 10}); err != nil {
		return err
	}
	if err := pj.FinishRows(v); err != nil {
		return err
	}
	if viol := prob.PackedViolation(v); !(viol <= tol) {
		return fmt.Errorf("opt: projection left violation %g > tol %g (instance may be infeasible)", viol, tol)
	}
	return nil
}
