package monoid

import (
	"sort"

	"cleandb/internal/types"
)

// GroupBySchema is the element schema fed to the GroupBy monoid: each unit
// value is a {key, val} record.
var GroupBySchema = types.NewSchema("key", "val")

// GroupSchema is the schema of the groups a GroupBy comprehension produces:
// {key, group} where group is the bag of vals sharing the key.
var GroupSchema = types.NewSchema("key", "group")

// GroupBy is the keyed grouping monoid — the calculus-level "filter" monoid
// that CleanM's FD, DEDUP and CLUSTER BY comprehensions fold with (paper §4.4
// writes it as `yield filter(d.term, algo)`). Its values are canonical
// groupings: lists of {key, group} records sorted by key, each group a bag.
//
//	Zero  = {}
//	Unit  = {key: k, val: v} ↦ [{key: k, group: [v]}]
//	Merge = union by key, concatenating groups
//
// Merge is associative and commutative (the property tests verify the laws),
// so grouping distributes over partitions — which is exactly why the
// physical level may execute it with local pre-aggregation (aggregateByKey).
type GroupBy struct{}

var _ Monoid = GroupBy{}

// Name implements Monoid.
func (GroupBy) Name() string { return "groupby" }

// Zero implements Monoid.
func (GroupBy) Zero() types.Value { return types.List() }

// Unit implements Monoid; v must be a {key, val} record.
func (GroupBy) Unit(v types.Value) types.Value {
	key := v.Field("key")
	val := v.Field("val")
	return types.List(types.NewRecord(GroupSchema, []types.Value{key, types.List(val)}))
}

// Merge implements Monoid: merges two sorted groupings by key.
func (GroupBy) Merge(a, b types.Value) types.Value {
	al, bl := a.List(), b.List()
	if len(al) == 0 {
		return b
	}
	if len(bl) == 0 {
		return a
	}
	out := make([]types.Value, 0, len(al)+len(bl))
	i, j := 0, 0
	for i < len(al) && j < len(bl) {
		ka, kb := types.Key(al[i].Field("key")), types.Key(bl[j].Field("key"))
		switch {
		case ka < kb:
			out = append(out, al[i])
			i++
		case ka > kb:
			out = append(out, bl[j])
			j++
		default:
			ga := al[i].Field("group").List()
			gb := bl[j].Field("group").List()
			merged := make([]types.Value, 0, len(ga)+len(gb))
			merged = append(merged, ga...)
			merged = append(merged, gb...)
			out = append(out, types.NewRecord(GroupSchema, []types.Value{al[i].Field("key"), types.ListOf(merged)}))
			i++
			j++
		}
	}
	out = append(out, al[i:]...)
	out = append(out, bl[j:]...)
	return types.ListOf(out)
}

// Idempotent implements Monoid: groups are bags, so duplication is observable.
func (GroupBy) Idempotent() bool { return false }

// Collection implements Monoid.
func (GroupBy) Collection() bool { return true }

// NormalizeGrouping re-canonicalizes an arbitrary list of {key, group}
// records: sorts by key and merges duplicates (used by tests to compare
// groupings irrespective of construction order). Group members are sorted by
// their canonical key encoding.
func NormalizeGrouping(v types.Value) types.Value {
	byKey := map[string][]types.Value{}
	keys := map[string]types.Value{}
	for _, e := range v.List() {
		k := types.Key(e.Field("key"))
		keys[k] = e.Field("key")
		byKey[k] = append(byKey[k], e.Field("group").List()...)
	}
	sorted := make([]string, 0, len(byKey))
	for k := range byKey {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	out := make([]types.Value, 0, len(sorted))
	for _, k := range sorted {
		group := byKey[k]
		types.SortByKey(group)
		out = append(out, types.NewRecord(GroupSchema, []types.Value{keys[k], types.ListOf(group)}))
	}
	return types.ListOf(out)
}
