package core

import (
	"sort"
	"strings"
	"testing"

	"cleandb/internal/cluster"
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// TestUnifiedMatchesStandaloneViolations: the unified DAG must report exactly
// the entities the standalone runs report — sharing changes cost, never
// answers.
func TestUnifiedMatchesStandaloneViolations(t *testing.T) {
	query := `
SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.5, c.address, c.name)`

	runMode := func(unified, noShare bool) map[string]int {
		ctx := engine.NewContext(4)
		p := NewPipeline(ctx, testCatalog(ctx))
		p.Unified = unified
		p.NoSharing = noShare
		res, err := p.Run(query)
		if err != nil {
			t.Fatalf("Run(unified=%v): %v", unified, err)
		}
		counts := map[string]int{}
		if unified {
			for row := range res.Combined.All() {
				for _, task := range []string{"fd1", "fd2", "dedup1"} {
					counts[task] += len(row.Field(task).List())
				}
			}
		} else {
			for _, task := range res.Tasks {
				counts[task.Name] = task.Output.Len()
			}
		}
		return counts
	}

	shared := runMode(true, false)
	unshared := runMode(true, true)
	standalone := runMode(false, false)

	for _, task := range []string{"fd1", "fd2", "dedup1"} {
		if shared[task] != standalone[task] {
			t.Errorf("task %s: unified=%d standalone=%d", task, shared[task], standalone[task])
		}
		if shared[task] != unshared[task] {
			t.Errorf("task %s: shared=%d unshared=%d", task, shared[task], unshared[task])
		}
	}
}

// TestUnifiedCostsLessThanUnshared: with three operators grouping on the
// same key, the shared DAG must shuffle less and cost fewer ticks.
func TestUnifiedCostsLessThanUnshared(t *testing.T) {
	query := `
SELECT * FROM customer c
FD(c.address, prefix(c.phone))
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.5, c.address, c.name)`

	cost := func(noShare bool) int64 {
		ctx := engine.NewContext(4)
		p := NewPipeline(ctx, testCatalog(ctx))
		p.NoSharing = noShare
		if _, err := p.Run(query); err != nil {
			t.Fatal(err)
		}
		return ctx.Metrics().SimTicks()
	}
	if shared, unshared := cost(false), cost(true); shared >= unshared {
		t.Errorf("shared plan (%d ticks) should cost less than unshared (%d)", shared, unshared)
	}
}

func TestPipelineStrategiesProduceSameViolations(t *testing.T) {
	query := `SELECT * FROM customer c FD(c.address, prefix(c.phone))`
	counts := map[physical.GroupStrategy]int{}
	for _, g := range []physical.GroupStrategy{physical.GroupAggregate, physical.GroupSort, physical.GroupHash} {
		ctx := engine.NewContext(4)
		p := NewPipeline(ctx, testCatalog(ctx))
		p.Config.Group = g
		res, err := p.Run(query)
		if err != nil {
			t.Fatal(err)
		}
		counts[g] = len(res.Rows())
	}
	if counts[physical.GroupAggregate] != counts[physical.GroupSort] ||
		counts[physical.GroupAggregate] != counts[physical.GroupHash] {
		t.Fatalf("strategies disagree on violations: %v", counts)
	}
}

func TestClusterByKMeansThroughPipeline(t *testing.T) {
	ctx := engine.NewContext(4)
	p := NewPipeline(ctx, testCatalog(ctx))
	res, err := p.Run(`SELECT * FROM customer c, dictionary d CLUSTER BY(kmeans(2), LD, 0.7, c.name)`)
	if err != nil {
		t.Fatal(err)
	}
	// krol→karol must be found regardless of the blocking technique, since
	// k-means assigns both to their closest shared center.
	found := false
	for _, r := range res.Rows() {
		if r.Field("term").Str() == "krol" && r.Field("suggestion").Str() == "karol" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kmeans cluster-by missed krol→karol: %v", res.Rows())
	}
}

func TestPipelineTrace(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	var levels []string
	p.Trace = func(level, rule, detail string) {
		levels = append(levels, level+":"+rule)
	}
	_, err := p.Run(`
SELECT * FROM customer c
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.5, c.address, c.name)`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(levels, ",")
	if !strings.Contains(joined, "algebra:") {
		t.Fatalf("expected algebra-level trace events, got %v", levels)
	}
	if !strings.Contains(joined, "coalesce-nest") && !strings.Contains(joined, "share-") {
		t.Fatalf("expected sharing trace events, got %v", levels)
	}
}

func TestGroupByWithAvg(t *testing.T) {
	ctx := engine.NewContext(2)
	schema := types.NewSchema("g", "v")
	rows := []types.Value{
		types.NewRecord(schema, []types.Value{types.String("a"), types.Int(10)}),
		types.NewRecord(schema, []types.Value{types.String("a"), types.Int(20)}),
		types.NewRecord(schema, []types.Value{types.String("b"), types.Int(7)}),
	}
	p := NewPipeline(ctx, map[string]*engine.Dataset{"t": engine.FromValues(ctx, rows)})
	res, err := p.Run(`SELECT t.g, avg(t.v) AS m, min(t.v) AS lo, max(t.v) AS hi FROM t GROUP BY t.g`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][3]float64{}
	for _, r := range res.Rows() {
		got[r.Field("g").Str()] = [3]float64{r.Field("m").Float(), r.Field("lo").Float(), r.Field("hi").Float()}
	}
	if got["a"] != [3]float64{15, 10, 20} {
		t.Fatalf("group a aggregates = %v", got["a"])
	}
	if got["b"] != [3]float64{7, 7, 7} {
		t.Fatalf("group b aggregates = %v", got["b"])
	}
}

func TestDistinctQuery(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	res, err := p.Run(`SELECT DISTINCT c.nationkey AS n FROM customer c`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range res.Rows() {
		n := r.Field("n").Int()
		if seen[n] {
			t.Fatalf("distinct produced duplicate %d", n)
		}
		seen[n] = true
	}
}

func TestJoinQueryThroughPipeline(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	// Equi-join customers with dictionary on exact name match.
	res, err := p.Run(`SELECT c.name AS n FROM customer c, dictionary d WHERE c.name = d.term`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range res.Rows() {
		names = append(names, r.Field("n").Str())
	}
	sort.Strings(names)
	want := []string{"alice", "bob", "carol", "dave"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("join names = %v, want %v", names, want)
	}
}

func TestResultUnwrapsOutVar(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	res, err := p.Run(`SELECT c.name AS n FROM customer c`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows() {
		if rec := r.Record(); rec != nil && rec.Schema.Has("$out") {
			t.Fatalf("result rows should be unwrapped: %s", r)
		}
		if r.Field("n").IsNull() {
			t.Fatalf("projected field missing: %s", r)
		}
	}
}

func TestWhereEquiJoinPushedIntoJoin(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	prep, err := p.Prepare(`SELECT c.name AS n FROM customer c, dictionary d WHERE c.name = d.term`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prep.Explain(), "CrossJoin") {
		t.Fatalf("equality join should not plan a cross product:\n%s", prep.Explain())
	}
	if !strings.Contains(prep.Explain(), "EquiJoin") {
		t.Fatalf("expected an equi-join:\n%s", prep.Explain())
	}
}

// TestDeltaEligibilityFollowsBlockerFit: a single-source DEDUP can be
// delta-served exactly when its blocker is not fitted from data, for every
// spelling of every operator the parser can hand to cluster.ParseBlocker.
func TestDeltaEligibilityFollowsBlockerFit(t *testing.T) {
	ctx := engine.NewContext(2)
	p := NewPipeline(ctx, testCatalog(ctx))
	for _, op := range []string{
		"token_filtering", "Token_Filtering", "tf", "TF", "tf(2)",
		"length", "LENGTH", "len", "Len(3)",
		"attribute", "Attribute", "exact", "EXACT",
		"kmeans", "KMeans", "KMEANS", "kmeans(4)",
	} {
		prep, err := p.Prepare(`SELECT * FROM customer c DEDUP(` + op + `, LD, 0.6, c.name)`)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		name, _, _ := strings.Cut(op, "(")
		want := IncrDedup
		if cluster.Fitted(name) {
			want = IncrNone
		}
		if got := prep.Incremental().Kind; got != want {
			t.Errorf("DEDUP(%s): incremental kind %v, want %v (fitted: %v)", op, got, want, cluster.Fitted(name))
		}
	}
	if !cluster.Fitted("kmeans") || cluster.Fitted("tf") || cluster.Fitted("no_such_blocker") {
		t.Fatal("cluster.Fitted: only k-means is fitted from data")
	}
}
