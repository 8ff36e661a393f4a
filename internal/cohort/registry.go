package cohort

import (
	"fmt"
	"sort"
	"sync/atomic"

	"edr/internal/opt"
)

// Registry persists cohort identity across rounds. A fresh registry
// numbers cohorts in first-seen client order, so on its own cohort k of
// round t and cohort k of round t+1 are unrelated and nothing
// cohort-scoped — warm duals, cached masks, sparsity views — could be
// carried between rounds. A kept registry fixes that by interning each
// cohort's byte key (its feasibility mask) into a stable ID that is
// assigned once and never reused, ordering every grouping it produces by
// stable ID. Two consequences the runtime builds on:
//
//   - Across quiet rounds the client→cohort partition, the cohort order,
//     the reduced mask, and the primed Sparsity are pointer-identical: the
//     registry detects that the per-client stable-ID vector is unchanged
//     and re-emits the cached structures with only the reduced demand
//     vector recomputed (O(|C|)), so grouping amortizes to near zero.
//   - When membership does drift, surviving cohorts keep their relative
//     order (stable IDs are monotone), so row-aligned state such as warm
//     starts degrades gracefully instead of being shuffled.
//
// The registry assumes the caller presents clients and replicas in a
// stable order across rounds (the runtime sorts request rows by client
// address and replica columns by address); a permuted column order changes
// every byte key and simply misses the cache — correctness is unaffected.
// A Registry is not safe for concurrent use, except for Keys.
type Registry struct {
	ids  map[string]int // interned cohort key → stable ID
	next int
	keys atomic.Int64 // len(ids), for Keys

	// Cached last grouping, keyed by the per-client stable-ID vector.
	stableOf []int
	n        int
	members  [][]int
	of       []int
	redMask  [][]bool
	sparse   *opt.Sparsity
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]int)}
}

// Keys reports how many cohort keys the registry holds interned: it grows
// with every new mask and only Reset shrinks it. It may be called
// concurrently with Group and Reset.
func (r *Registry) Keys() int { return int(r.keys.Load()) }

// Reset drops all interned identity and cached structures — the runtime
// calls it on membership epoch changes, where column order (and with it
// every byte key) shifts.
func (r *Registry) Reset() {
	r.ids = make(map[string]int)
	r.next = 0
	r.keys.Store(0)
	r.stableOf = nil
	r.n = 0
	r.members = nil
	r.of = nil
	r.redMask = nil
	r.sparse = nil
}

// Group partitions prob's clients into cohorts of equal feasibility mask,
// ordered by stable ID, and reuses the cached partition, reduced mask and
// primed Sparsity on a quiet round. The boolean reports a cache hit. The
// returned Grouping always disaggregates against prob (fresh demands).
func (r *Registry) Group(prob *opt.Problem, _ Options) (*Grouping, bool, error) {
	if prob == nil || prob.System == nil {
		return nil, false, fmt.Errorf("cohort: problem has no system")
	}
	c, n := prob.C(), prob.N()
	if c == 0 || n == 0 {
		return nil, false, fmt.Errorf("cohort: empty problem (%d clients, %d replicas)", c, n)
	}
	mask := prob.Allowed()
	members, keys := groupKeyed(mask)

	// Intern keys and reorder cohorts by stable ID rank: surviving cohorts
	// keep their relative positions, new ones slot in at the end.
	stable := make([]int, len(members))
	for k, key := range keys {
		id, ok := r.ids[key]
		if !ok {
			id = r.next
			r.next++
			r.ids[key] = id
			r.keys.Add(1)
		}
		stable[k] = id
	}
	perm := make([]int, len(members))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return stable[perm[a]] < stable[perm[b]] })
	ordMembers := make([][]int, len(members))
	ordOf := make([]int, c)
	for rank, k := range perm {
		ordMembers[rank] = members[k]
		for _, cl := range members[k] {
			ordOf[cl] = rank
		}
	}
	stableOf := make([]int, c)
	for cl, k := range ordOf {
		stableOf[cl] = stable[perm[k]]
	}

	if r.cacheHit(stableOf, n) {
		g := &Grouping{orig: prob, members: r.members, of: r.of}
		g.reduce(r.redMask, r.sparse)
		return g, true, nil
	}

	// A cohort's mask IS the shared member mask — alias the lead member's
	// row (mask rows are read-only shared state). The |K|×|N| sparsity
	// build is cheap next to grouping.
	r.redMask = make([][]bool, len(ordMembers))
	for k, mem := range ordMembers {
		r.redMask[k] = mask[mem[0]]
	}
	r.sparse = opt.NewSparsity(r.redMask)
	g := &Grouping{orig: prob, members: ordMembers, of: ordOf}
	g.reduce(r.redMask, r.sparse)
	r.stableOf = stableOf
	r.n = n
	r.members = ordMembers
	r.of = ordOf
	return g, false, nil
}

// cacheHit reports whether the cached grouping matches the new per-client
// stable-ID vector exactly (same clients, same cohorts, same order).
func (r *Registry) cacheHit(stableOf []int, n int) bool {
	if r.members == nil || r.n != n || len(r.stableOf) != len(stableOf) {
		return false
	}
	for i, id := range stableOf {
		if r.stableOf[i] != id {
			return false
		}
	}
	return true
}

// groupKeyed partitions clients by feasibility mask and returns the cohort
// member lists (cohorts in first-seen client order, members in client
// order) with each cohort's key: one byte a replica, 0xFF on a masked link
// and 0 on a feasible one.
func groupKeyed(mask [][]bool) ([][]int, []string) {
	var members [][]int
	var keys []string
	index := make(map[string]int)
	var key []byte
	for i, row := range mask {
		key = key[:0]
		for _, ok := range row {
			if ok {
				key = append(key, 0)
			} else {
				key = append(key, 0xFF)
			}
		}
		k, seen := index[string(key)]
		if !seen {
			k = len(members)
			index[string(key)] = k
			members = append(members, nil)
			keys = append(keys, string(key))
		}
		members[k] = append(members[k], i)
	}
	return members, keys
}
