// Package keysortfixture exercises the keysort analyzer against the real
// types.Key encoder.
package keysortfixture

import (
	"slices"
	"sort"
	"strings"

	"cleandb/internal/types"
)

// sliceLess encodes both operands on every comparison: flagged twice.
func sliceLess(vs []types.Value) {
	sort.Slice(vs, func(i, j int) bool {
		return types.Key(vs[i]) < types.Key(vs[j]) // want `sort.Slice comparator` `sort.Slice comparator`
	})
}

// stableTieBreak hides the encoding behind a cheap first test: still flagged.
func stableTieBreak(vs []types.Value, rank []float64) {
	sort.SliceStable(vs, func(i, j int) bool {
		if rank[i] != rank[j] {
			return rank[i] < rank[j]
		}
		return types.Key(vs[i]) < types.Key(vs[j]) // want `sort.SliceStable comparator` `sort.SliceStable comparator`
	})
}

// sortFunc is the generic entry point: flagged, including through a nested
// closure the comparator calls.
func sortFunc(vs []types.Value) {
	slices.SortFunc(vs, func(a, b types.Value) int {
		key := func(v types.Value) string { return types.Key(v) } // want `slices.SortFunc comparator`
		return strings.Compare(key(a), key(b))
	})
	slices.SortStableFunc(vs, func(a, b types.Value) int {
		return strings.Compare(types.Key(a), types.Key(b)) // want `slices.SortStableFunc comparator` `slices.SortStableFunc comparator`
	})
}

// byKey is a sort.Sort adapter whose Less encodes: flagged.
type byKey []types.Value

func (b byKey) Len() int      { return len(b) }
func (b byKey) Swap(i, j int) { b[i], b[j] = b[j], b[i] }
func (b byKey) Less(i, j int) bool {
	return types.Key(b[i]) < types.Key(b[j]) // want `Less method` `Less method`
}

// decorated is the blessed shape: encode once, compare stored strings.
func decorated(vs []types.Value) {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = types.Key(v)
	}
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	types.SortByKey(vs)
}

// lessElsewhere is not a sort.Interface Less (wrong signature), and a
// comparison-free Key call next to a sort is fine.
type ranked struct{ v types.Value }

func (r ranked) Less(o ranked) bool { return types.Key(r.v) < types.Key(o.v) }

func keyBesideSort(vs []types.Value) string {
	sort.Slice(vs, func(i, j int) bool { return types.Compare(vs[i], vs[j]) < 0 })
	return types.Key(vs[0])
}
