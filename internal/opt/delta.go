package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// RoundDelta classifies how one round's problem differs from the previous
// committed round. It is the contract between the runtime's incremental
// re-optimization path and the solver layer: clients outside DirtyClients
// may keep their committed assignment rows verbatim, because neither their
// demand, their feasibility row, nor any replica they can reach has
// changed; only the dirty rows need a fresh solve (against residual
// capacity, with the clean rows' column loads frozen into Replica.Base).
type RoundDelta struct {
	// DirtyClients lists next-round row indices that must be re-solved,
	// ascending. A client is dirty when its demand drifted beyond the
	// relative epsilon, its feasibility row changed, it is new this round,
	// or any replica it can reach is dirty (the promotion rule: a changed
	// replica re-prices every column entry on it, so all of its reachable
	// rows re-enter the subproblem and the frozen load on a dirty replica
	// is exactly zero).
	DirtyClients []int
	// CleanClients is the ascending complement of DirtyClients.
	CleanClients []int
	// DirtyReplicas lists next-round column indices whose energy-model
	// parameters (price, α, β, γ, bandwidth) changed, ascending.
	DirtyReplicas []int

	// DemandDrift counts clients dirty because of demand movement.
	DemandDrift int
	// MaskChanged counts clients dirty because their feasibility row
	// changed (including clients new this round).
	MaskChanged int
	// Promoted counts clients dirty only by replica promotion.
	Promoted int
}

// Dirty reports whether any re-solve work exists at all. A false return is
// the quiet-round fast path: the committed assignment is already optimal
// for this round's problem.
func (d *RoundDelta) Dirty() bool { return len(d.DirtyClients) > 0 }

// DiffRounds diffs the next round's problem against the previous committed
// one and returns the dirty sets.
//
// rowMap[c] gives the previous-round row index of next-round client c, or
// −1 for a client with no previous row (new this round → dirty); a nil
// rowMap is the identity, which needs the same client count. colMap[n]
// gives the previous-round column of next-round replica n; the replica
// rosters must be identical up to permutation — membership changes are an
// epoch change the caller handles by full solve, not a diff. eps is the
// relative demand-drift threshold: client c is clean only while
// |R_new − R_old| ≤ eps·max(R_old, R_new, tiny). A feasibility row next
// shares with prev (the same slice) is not compared when the column map is
// the identity.
func DiffRounds(prev, next *Problem, rowMap, colMap []int, eps float64) (*RoundDelta, error) {
	if rowMap == nil && next.C() != prev.C() {
		return nil, fmt.Errorf("opt: DiffRounds identity rowMap for %d→%d clients", prev.C(), next.C())
	}
	if rowMap != nil && len(rowMap) != next.C() {
		return nil, fmt.Errorf("opt: DiffRounds rowMap has %d entries for %d clients", len(rowMap), next.C())
	}
	if len(colMap) != next.N() || next.N() != prev.N() {
		return nil, fmt.Errorf("opt: DiffRounds colMap has %d entries for %d→%d replicas",
			len(colMap), prev.N(), next.N())
	}
	if eps < 0 {
		return nil, fmt.Errorf("opt: DiffRounds negative epsilon %g", eps)
	}
	seen := make([]bool, prev.N())
	identCols := true
	for n, pn := range colMap {
		if pn < 0 || pn >= prev.N() || seen[pn] {
			return nil, fmt.Errorf("opt: DiffRounds colMap[%d]=%d is not a permutation of the previous columns", n, pn)
		}
		seen[pn] = true
		identCols = identCols && pn == n
	}

	d := &RoundDelta{}
	if rowMap == nil {
		// The steady state: most clients stay clean.
		d.CleanClients = make([]int, 0, next.C())
	}
	dirtyRep := make([]bool, next.N())
	for n := range dirtyRep {
		a, b := next.System.Replicas[n], prev.System.Replicas[colMap[n]]
		if a.Price != b.Price || a.Alpha != b.Alpha || a.Beta != b.Beta ||
			a.Gamma != b.Gamma || a.Bandwidth != b.Bandwidth {
			dirtyRep[n] = true
			d.DirtyReplicas = append(d.DirtyReplicas, n)
		}
	}

	prevMask, nextMask := prev.Allowed(), next.Allowed()
	const tiny = 1e-12
	for c := 0; c < next.C(); c++ {
		pc := c
		if rowMap != nil {
			pc = rowMap[c]
		}
		if pc < 0 || pc >= prev.C() {
			d.MaskChanged++
			d.DirtyClients = append(d.DirtyClients, c)
			continue
		}
		rOld, rNew := prev.Demands[pc], next.Demands[c]
		if math.Abs(rNew-rOld) > eps*math.Max(math.Max(rOld, rNew), tiny) {
			d.DemandDrift++
			d.DirtyClients = append(d.DirtyClients, c)
			continue
		}
		row, prow := nextMask[c], prevMask[pc]
		changed := false
		if !identCols || len(row) == 0 || &row[0] != &prow[0] {
			for n, ok := range row {
				if ok != prow[colMap[n]] {
					changed = true
					break
				}
			}
		}
		if changed {
			d.MaskChanged++
			d.DirtyClients = append(d.DirtyClients, c)
		} else {
			d.CleanClients = append(d.CleanClients, c)
		}
	}
	d.Promote(next, dirtyRep)
	return d, nil
}

// Promote moves every clean client that can reach a column marked in cols
// into the dirty set, counting it in Promoted. It is the promotion rule
// DiffRounds applies to replicas whose parameters changed, and it serves
// any other event that re-prices columns — load leaving with departed
// clients, say: every row that can reach a re-priced column re-enters the
// subproblem, so no clean row freezes load on one.
func (d *RoundDelta) Promote(next *Problem, cols []bool) {
	if !slices.Contains(cols, true) {
		return
	}
	mask := next.Allowed()
	clean := d.CleanClients[:0]
	for _, c := range d.CleanClients {
		reaches := false
		for n, ok := range mask[c] {
			if ok && cols[n] {
				reaches = true
				break
			}
		}
		if reaches {
			d.Promoted++
			d.DirtyClients = append(d.DirtyClients, c)
		} else {
			clean = append(clean, c)
		}
	}
	d.CleanClients = clean
	sort.Ints(d.DirtyClients)
}
