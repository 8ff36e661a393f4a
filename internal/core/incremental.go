package core

import (
	"errors"
	"math"
	"slices"

	"edr/internal/opt"
)

// errEscalateFull is the incremental plan's verdict that this round needs
// a full solve: the dirty subproblem was infeasible against residual
// capacity, or the merged result failed the feasibility/KKT gate.
// runAttempt answers it by re-planning the attempt as a full solve —
// escalation costs one extra pass over the stages, never a wrong
// assignment.
var errEscalateFull = errors.New("core: incremental result rejected; escalating to full solve")

// incrementalPlan is one round's dirty-set work order, produced by
// planIncremental: the diff against the committed round plus the merged
// rows the sub-solve completes.
type incrementalPlan struct {
	delta *opt.RoundDelta
	// base is the merged assignment, one row per client. A clean client
	// whose demand is exactly its committed one shares its committed row —
	// committed rows are never written, so consecutive rounds may share
	// them. A clean client whose demand moved within DeltaEps gets the
	// committed row rescaled by the demand ratio, so its row sum lands
	// exactly on the new demand; the dirty rows, carved from one backing
	// array, are zero until the sub-solve fills them.
	base [][]float64
	// changed lists, ascending, the rows base does not share with the
	// committed assignment: the dirty and the rescaled ones. No other row
	// can differ from its committed row, so install and notify walk these.
	changed []int
	// prev[i] is client i's committed row, unrescaled (nil for clients with
	// no history) — the reference the change-suppressed notify fan-out
	// compares against. Read-only: the rows are the committed round's own,
	// and under the identity row map prev is the committed assignment
	// itself.
	prev [][]float64
	// instPrev[i] is client i's row of the *installed* assignment — the
	// values replicas actually hold under lg.installedRound, which the delta
	// install diffs against. Equal to prev except after clean commits (which
	// rescale without installing), and read-only like it: under the
	// identity row map it is the committed installed array itself.
	instPrev [][]float64
	// rowMap[i] is client i's committed row (−1 for a newcomer), nil when
	// the clients are the committed ones in the same order; departed
	// lists, ascending, the committed clients absent from this round: the
	// delta install must remove them from the base plan.
	rowMap   []int
	departed []string
	// frozen[j] is the clean rows' load on column j; residual[j] is the
	// bandwidth left for the dirty subproblem (floored at a hair above
	// zero so the sub-instance always validates).
	frozen, residual []float64
	// baseGap is the committed assignment's own KKT gap on the committed
	// problem: the stationarity quality a full solve actually delivers at
	// the configured tolerance, and so the yardstick the incremental
	// result is gated against (an absolute gate would reject merged
	// results no worse than the full solve it escalates to).
	baseGap float64
	// carried is the committed assignment's audit state: lg's, or built by
	// this plan when the committed round is a full one. audit is the
	// measure of the merged matrix taken from it — by the gate, or on a
	// clean plan by the commit — which the duals estimate and the report
	// read instead of re-deriving it; step carries the state to that
	// matrix when the round commits.
	carried *opt.AuditState
	audit   opt.Audit
	step    *opt.AuditStep
	// lg is the committed round the plan diffed against.
	lg *lastGoodRound
}

// planIncremental diffs this round against the committed one. It returns
// nil — full solve, no escalation accounting — when there is no usable
// history or the replica roster changed (a membership epoch change shifts
// every column and cohort key, so incremental state is reset wholesale).
// Both rosters ascend by address, so an unchanged one is column for column
// the committed one; the rows align by one merge of the sorted client
// addresses.
func (r *ReplicaServer) planIncremental(in *instance) *incrementalPlan {
	requests, infos, prob := in.requests, in.infos, in.prob
	lg := r.committed()
	if lg == nil || lg.prob == nil {
		return nil
	}
	if !sameRoster(infos, lg.infos) {
		r.registry.Reset()
		return nil
	}
	colMap := make([]int, len(infos))
	for j := range colMap {
		colMap[j] = j
	}
	// An instance that shares the committed addresses (instantiate) has the
	// committed clients in the same order: its row map is the identity.
	var gone, rowMap []int
	if addrs := in.spec.ClientAddrs; len(addrs) != len(lg.clientAddrs) || &addrs[0] != &lg.clientAddrs[0] {
		rowMap = align(addrs, lg.clientAddrs, &gone)
		if len(gone) == 0 && len(rowMap) == len(lg.clientAddrs) {
			rowMap = nil // every committed client, none new: the identity
		}
	}
	delta, err := opt.DiffRounds(lg.prob, prob, rowMap, colMap, r.cfg.DeltaEps)
	if err != nil {
		return nil
	}
	if !delta.Dirty() && len(gone) > 0 {
		// Only departures: the load that left re-prices its columns, and no
		// sub-solve or gate would look at them, so promote the clients that
		// can reach them as for a changed replica. (With dirty rows the
		// freed load is already in the residual the sub-solve prices, and
		// the gate vets the merged matrix.)
		delta.Promote(prob, vacated(lg, gone, r.cfg.DeltaEps))
	}
	if 2*len(delta.DirtyClients) > len(requests) {
		// A dirty majority: the sub-instance is most of the full instance,
		// so the incremental machinery can only add overhead (and its
		// frozen-base decomposition rests on a thin clean set, so the gate
		// would likely escalate anyway). Solve in full, as a plan — not an
		// escalation.
		return nil
	}

	n := len(infos)
	plan := &incrementalPlan{
		delta:    delta,
		base:     make([][]float64, len(requests)),
		prev:     lg.assignment,
		rowMap:   rowMap,
		frozen:   make([]float64, n),
		residual: make([]float64, n),
		lg:       lg,
	}
	for _, o := range gone {
		plan.departed = append(plan.departed, lg.clientAddrs[o])
	}
	haveInstall := lg.installedRound > 0 && len(lg.installed) == len(lg.clientAddrs)
	if haveInstall {
		plan.instPrev = lg.installed
	}
	if rowMap != nil {
		plan.prev = make([][]float64, len(requests))
		if haveInstall {
			plan.instPrev = make([][]float64, len(requests))
		}
		for i, pr := range rowMap {
			if pr < 0 {
				continue
			}
			plan.prev[i] = lg.assignment[pr]
			if haveInstall {
				plan.instPrev[i] = lg.installed[pr]
			}
		}
	}
	var rescaled []int
	for _, i := range delta.CleanClients {
		dOld := lg.prob.Demands[plan.committedRow(i)]
		if dOld <= 0 {
			// A clean client with zero historical demand cannot be
			// rescaled onto its new demand; admission guarantees positive
			// demands, so treat the inconsistency as no-history.
			return nil
		}
		// Rescale the committed row by the (within-epsilon) demand ratio:
		// clean row sums then equal the new demands exactly, so the merged
		// matrix conserves demand by construction. At ratio 1 the rescaled
		// row is the committed row, bit for bit, so it is shared.
		row := plan.prev[i]
		if ratio := prob.Demands[i] / dOld; ratio != 1 {
			scaled := make([]float64, n)
			for j, v := range row {
				scaled[j] = v * ratio
			}
			row, rescaled = scaled, append(rescaled, i)
		}
		plan.base[i] = row
		for j, v := range row {
			plan.frozen[j] += v
		}
	}
	cells := make([]float64, len(delta.DirtyClients)*n)
	for k, i := range delta.DirtyClients {
		plan.base[i] = cells[k*n : (k+1)*n : (k+1)*n]
	}
	plan.changed = append(slices.Clone(delta.DirtyClients), rescaled...)
	slices.Sort(plan.changed)
	for j, info := range infos {
		res := info.Bandwidth - plan.frozen[j]
		if floor := 1e-12 * math.Max(1, info.Bandwidth); res < floor {
			// Clean rows already hold (essentially) the whole column; keep
			// a sliver so the sub-instance validates. If a dirty client
			// truly needs this column, the feasibility check escalates.
			res = floor
		}
		plan.residual[j] = res
	}
	plan.baseGap, plan.carried = lg.kktGap, lg.audit
	if plan.carried == nil {
		var committed opt.Audit
		committed, plan.carried = lg.prob.AuditCarried(lg.assignment)
		plan.baseGap = committed.KKTGap
	}
	return plan
}

// vacated marks the columns whose committed load the departed rows gone
// held more than eps of: that much load leaving re-prices the column. It
// is the relative rule DiffRounds applies to a client's demand, measured
// on the column's load.
func vacated(lg *lastGoodRound, gone []int, eps float64) []bool {
	left := make([]float64, len(lg.infos))
	for _, o := range gone {
		for j, v := range lg.assignment[o] {
			left[j] += v
		}
	}
	cols := make([]bool, len(left))
	for j, load := range opt.ColSums(lg.assignment) {
		cols[j] = left[j] > eps*load
	}
	return cols
}

// committedRow is client i's committed row (−1 for a newcomer).
func (p *incrementalPlan) committedRow(i int) int {
	if p.rowMap == nil {
		return i
	}
	return p.rowMap[i]
}

// mus is the committed duals row-aligned with this round (nil when the
// committed round reported none). While the row set is the committed one
// that is the committed vector itself, which the caller may overlay in
// place; a round whose clients joined or departed gets a remapped copy,
// newcomers at zero.
func (p *incrementalPlan) mus() []float64 {
	old := p.lg.mus
	if old == nil {
		return nil
	}
	// No committed row departed and none joined: the rows are the same.
	if p.rowMap == nil {
		return old
	}
	mus := make([]float64, len(p.rowMap))
	for i, row := range p.rowMap {
		if row >= 0 {
			mus[i] = old[row]
		}
	}
	return mus
}

// align merges two address lists that ascend strictly: at[i] is the index
// in old of next[i] (−1 when old lacks it). A non-nil gone collects,
// ascending, the indices in old of the addresses next lacks.
func align(next, old []string, gone *[]int) (at []int) {
	at = make([]int, len(next))
	o := 0
	for i, addr := range next {
		for ; o < len(old) && old[o] < addr; o++ {
			if gone != nil {
				*gone = append(*gone, o)
			}
		}
		at[i] = -1
		if o < len(old) && old[o] == addr {
			at[i] = o
			o++
		}
	}
	for ; gone != nil && o < len(old); o++ {
		*gone = append(*gone, o)
	}
	return at
}

// gate vets the merged full-problem result: exact feasibility (clean rows
// conserve demand by the rescale, columns by frozen + residual ≤ B) and a
// first-order stationarity spot-check. The stationarity bar is relative to
// the committed assignment's own KKT gap — the quality a full solve
// actually delivers at the configured tolerance — with an absolute floor
// for committed rounds that happened to land near the exact optimum.
// Either check failing means the frozen-base decomposition was a bad
// approximation this round: redo it as a full solve rather than install a
// doubtful plan.
func (p *incrementalPlan) gate(prob *opt.Problem, merged [][]float64) error {
	scale := 1.0
	for _, d := range prob.Demands {
		scale = max(scale, d) // finite: the problem validated its demands
	}
	for _, rep := range prob.System.Replicas {
		scale = max(scale, rep.Bandwidth)
	}
	p.measure(prob, merged)
	// Each measure must be within its bound: a NaN one, which compares
	// false against everything, fails.
	if !(p.audit.Violation <= 1e-6*scale) {
		return errEscalateFull
	}
	gapLimit := math.Max(2*p.baseGap, 0.10*math.Max(math.Abs(p.audit.Cost), 1))
	if !(p.audit.KKTGap <= gapLimit) {
		return errEscalateFull
	}
	return nil
}

// measure audits the merged matrix from the committed audit state: only
// the changed rows (and newcomers) are measured, the rest are carried.
func (p *incrementalPlan) measure(prob *opt.Problem, merged [][]float64) {
	p.audit, p.step = prob.AuditFrom(merged, p.carried, p.rowMap, p.changed)
}
