package cleaning

import (
	"sync/atomic"

	"cleandb/internal/engine"
	"cleandb/internal/types"
)

// DupClusters groups duplicate pairs into entity clusters by transitive
// closure (union-find) — the filtering extension paper §4.3 mentions
// ("applying transitive closure in order to build the similar pairs").
// Input records are {a, b} pairs as produced by Dedup; the result is one
// sorted cluster per real-world entity, clusters sorted by first member.
func DupClusters(pairs []types.Value) [][]types.Value {
	tab := types.NewTupleTable()
	uf := NewUnionFind()
	for _, p := range pairs {
		uf.Union(tab.Intern(p.Field("a")), tab.Intern(p.Field("b")))
	}
	var out [][]types.Value
	for _, members := range uf.Groups(tab.IDsByKey()) {
		cluster := make([]types.Value, len(members))
		for i, id := range members {
			cluster[i] = tab.Value(id)
		}
		out = append(out, cluster)
	}
	return out
}

// ApplyRepairs rewrites the named column using the repair map produced by
// term validation, returning the repaired dataset and the number of values
// changed. Values with no repair pass through unchanged.
func ApplyRepairs(ds *engine.Dataset, col string, repairs map[string]string) (*engine.Dataset, int64) {
	var changed atomic.Int64
	out := ds.MapPartitions("repair:"+col, func(_ int, part []types.Value) []types.Value {
		res := make([]types.Value, len(part))
		var local int64
		for i, v := range part {
			rec := v.Record()
			if rec == nil {
				res[i] = v
				continue
			}
			idx, ok := rec.Schema.Index(col)
			if !ok {
				res[i] = v
				continue
			}
			repl, ok := repairs[rec.Fields[idx].Str()]
			if !ok {
				res[i] = v
				continue
			}
			fields := append([]types.Value(nil), rec.Fields...)
			fields[idx] = types.String(repl)
			res[i] = types.NewRecord(rec.Schema, fields)
			local++
		}
		changed.Add(local)
		return res
	})
	return out, changed.Load()
}
