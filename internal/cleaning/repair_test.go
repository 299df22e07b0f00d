package cleaning

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cleandb/internal/engine"
	"cleandb/internal/types"
)

func pair(a, b types.Value) types.Value {
	return types.NewRecord(DupPairSchema, []types.Value{a, b})
}

func TestDupClustersTransitiveClosure(t *testing.T) {
	mk := func(id int64) types.Value {
		return types.NewRecord(types.NewSchema("id"), []types.Value{types.Int(id)})
	}
	// Pairs (1,2), (2,3) and (4,5): two clusters {1,2,3} and {4,5}.
	pairs := []types.Value{
		pair(mk(1), mk(2)),
		pair(mk(2), mk(3)),
		pair(mk(4), mk(5)),
	}
	clusters := DupClusters(pairs)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	if len(clusters[0]) != 3 || len(clusters[1]) != 2 {
		t.Fatalf("cluster sizes = %d/%d, want 3/2", len(clusters[0]), len(clusters[1]))
	}
}

func TestDupClustersEmpty(t *testing.T) {
	if got := DupClusters(nil); got != nil {
		t.Fatalf("empty input: %v", got)
	}
}

func TestDupClustersSelfPairs(t *testing.T) {
	mk := func(id int64) types.Value {
		return types.NewRecord(types.NewSchema("id"), []types.Value{types.Int(id)})
	}
	// A degenerate self-pair must yield a singleton cluster, not a crash or
	// a duplicated member.
	clusters := DupClusters([]types.Value{pair(mk(1), mk(1))})
	if len(clusters) != 1 || len(clusters[0]) != 1 {
		t.Fatalf("self-pair clusters = %v", clusters)
	}
	// Mixed with real pairs, the self-pair contributes its member once.
	clusters = DupClusters([]types.Value{
		pair(mk(2), mk(2)),
		pair(mk(2), mk(3)),
	})
	if len(clusters) != 1 || len(clusters[0]) != 2 {
		t.Fatalf("self+real clusters = %v", clusters)
	}
}

func TestDupClustersChainMergesTransitively(t *testing.T) {
	mk := func(id int64) types.Value {
		return types.NewRecord(types.NewSchema("id"), []types.Value{types.Int(id)})
	}
	// Two clusters {1,2} and {3,4} merge into one when a late pair (2,3)
	// bridges them, regardless of pair order.
	pairs := []types.Value{
		pair(mk(1), mk(2)),
		pair(mk(3), mk(4)),
		pair(mk(2), mk(3)),
	}
	clusters := DupClusters(pairs)
	if len(clusters) != 1 || len(clusters[0]) != 4 {
		t.Fatalf("bridged chain clusters = %v", clusters)
	}
}

// TestDupClustersPartition is a property test: every input record appears in
// exactly one cluster, and both members of every pair share a cluster.
func TestDupClustersPartition(t *testing.T) {
	mk := func(id int64) types.Value {
		return types.NewRecord(types.NewSchema("id"), []types.Value{types.Int(id)})
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		var pairs []types.Value
		type edge struct{ a, b int64 }
		var edges []edge
		for i := 0; i < rng.Intn(30); i++ {
			a, b := int64(rng.Intn(n)), int64(rng.Intn(n))
			if a == b {
				continue
			}
			pairs = append(pairs, pair(mk(a), mk(b)))
			edges = append(edges, edge{a, b})
		}
		clusters := DupClusters(pairs)
		clusterOf := map[string]int{}
		for ci, cl := range clusters {
			for _, m := range cl {
				k := types.Key(m)
				if prev, dup := clusterOf[k]; dup && prev != ci {
					t.Fatalf("record %s in two clusters", k)
				}
				clusterOf[k] = ci
			}
		}
		for _, e := range edges {
			if clusterOf[types.Key(mk(e.a))] != clusterOf[types.Key(mk(e.b))] {
				t.Fatalf("pair (%d,%d) split across clusters", e.a, e.b)
			}
		}
	}
}

func TestApplyRepairs(t *testing.T) {
	ctx := engine.NewContext(3)
	schema := types.NewSchema("name", "n")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.String("stela"), types.Int(1)}),
		types.NewRecord(schema, []types.Value{types.String("manos"), types.Int(2)}),
		types.NewRecord(schema, []types.Value{types.String("stela"), types.Int(3)}),
	}
	out, changed := ApplyRepairs(engine.FromValues(ctx, rows), "name",
		map[string]string{"stela": "stella"})
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	for _, v := range out.Collect() {
		if v.Field("name").Str() == "stela" {
			t.Fatalf("unrepaired value survived: %s", v)
		}
	}
	// Untouched column and rows intact.
	if out.Count() != 3 {
		t.Fatal("row count changed")
	}
}

// TestApplyRepairsIdempotent is a quick.Check property: applying the same
// repairs twice equals applying them once (when repair targets are not
// themselves repairable).
func TestApplyRepairsIdempotent(t *testing.T) {
	schema := types.NewSchema("name")
	f := func(names []string) bool {
		if len(names) == 0 {
			return true
		}
		repairs := map[string]string{}
		for i, n := range names {
			if i%2 == 0 && n != "" {
				repairs[n] = "FIXED"
			}
		}
		ctx := engine.NewContext(2)
		rows := make([]types.Value, len(names))
		for i, n := range names {
			rows[i] = types.NewRecord(schema, []types.Value{types.String(n)})
		}
		once, _ := ApplyRepairs(engine.FromValues(ctx, rows), "name", repairs)
		twice, _ := ApplyRepairs(once, "name", repairs)
		a, b := once.Collect(), twice.Collect()
		for i := range a {
			if types.Key(a[i]) != types.Key(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndDetectAndRepair: term validation finds the repairs, ApplyRepairs
// heals the dataset, and a re-run finds nothing left to repair.
func TestEndToEndDetectAndRepair(t *testing.T) {
	ctx := engine.NewContext(4)
	schema := types.NewSchema("name")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.String("stela")}),
		types.NewRecord(schema, []types.Value{types.String("manos")}),
	}
	dict := []string{"stella", "manos"}
	cfg := TermValidationConfig{
		Attr:       func(v types.Value) string { return v.Field("name").Str() },
		Dictionary: dict,
		Theta:      0.7,
	}
	ds := engine.FromValues(ctx, rows)
	res := TermValidate(ds, cfg)
	if len(res.Repairs) == 0 {
		t.Fatal("expected repairs")
	}
	healed, changed := ApplyRepairs(ds, "name", res.Repairs)
	if changed == 0 {
		t.Fatal("expected changes")
	}
	res2 := TermValidate(healed, cfg)
	if len(res2.Repairs) != 0 {
		t.Fatalf("healed dataset still has repairs: %v", res2.Repairs)
	}
}

// TestUnionFindGroupsFollowOrder: Groups partitions exactly the ids it is
// handed, members in the given sequence and groups by first member.
func TestUnionFindGroupsFollowOrder(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(4, 1)
	uf.Union(1, 6)
	uf.Union(3, 0)
	got := uf.Groups([]int32{6, 3, 5, 4, 0, 1})
	want := [][]int32{{6, 4, 1}, {3, 0}, {5}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("groups = %v, want %v", got, want)
		}
	}
	if uf.Find(2) != 2 {
		t.Fatal("an id never united is not its own root")
	}
}
