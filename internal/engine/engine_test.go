package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"cleandb/internal/types"
)

var kvSchema = types.NewSchema("k", "v")

func kv(k string, v int64) types.Value {
	return types.NewRecord(kvSchema, []types.Value{types.String(k), types.Int(v)})
}

func randKV(rng *rand.Rand, n, keys int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = kv(string(rune('a'+rng.Intn(keys))), int64(rng.Intn(100)))
	}
	return out
}

func sortedKeys(vs []types.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = types.Key(v)
	}
	sort.Strings(out)
	return out
}

func sameRecords(t *testing.T, a, b []types.Value, what string) {
	t.Helper()
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d vs %d records", what, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: record %d differs:\n%s\nvs\n%s", what, i, ka[i], kb[i])
		}
	}
}

func TestFromValuesPartitioning(t *testing.T) {
	ctx := NewContext(4)
	vs := make([]types.Value, 10)
	for i := range vs {
		vs[i] = types.Int(int64(i))
	}
	d := FromValues(ctx, vs)
	if d.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", d.NumPartitions())
	}
	if d.Count() != 10 {
		t.Fatalf("count = %d", d.Count())
	}
	// Order preserved by Collect.
	got := d.Collect()
	for i, v := range got {
		if v.Int() != int64(i) {
			t.Fatalf("order not preserved: %v", got)
		}
	}
}

func TestFromValuesEmpty(t *testing.T) {
	ctx := NewContext(4)
	d := FromValues(ctx, nil)
	if d.Count() != 0 {
		t.Fatal("empty dataset should count 0")
	}
	if d.Map("m", func(v types.Value) types.Value { return v }).Count() != 0 {
		t.Fatal("map over empty")
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := NewContext(3)
	vs := make([]types.Value, 9)
	for i := range vs {
		vs[i] = types.Int(int64(i))
	}
	d := FromValues(ctx, vs)
	doubled := d.Map("double", func(v types.Value) types.Value { return types.Int(v.Int() * 2) })
	evens := doubled.Filter("gt", func(v types.Value) bool { return v.Int() >= 8 })
	if evens.Count() != 5 {
		t.Fatalf("filter count = %d", evens.Count())
	}
	twice := d.FlatMap("dup", func(v types.Value) []types.Value { return []types.Value{v, v} })
	if twice.Count() != 18 {
		t.Fatalf("flatmap count = %d", twice.Count())
	}
}

func TestMapPartitionsAndUnion(t *testing.T) {
	ctx := NewContext(2)
	a := FromValues(ctx, []types.Value{types.Int(1), types.Int(2)})
	b := FromValues(ctx, []types.Value{types.Int(3)})
	u := a.Union(b)
	if u.Count() != 3 {
		t.Fatalf("union count = %d", u.Count())
	}
	sums := u.MapPartitions("sum", func(_ int, part []types.Value) []types.Value {
		var s int64
		for _, v := range part {
			s += v.Int()
		}
		return []types.Value{types.Int(s)}
	})
	var total int64
	for _, v := range sums.Collect() {
		total += v.Int()
	}
	if total != 6 {
		t.Fatalf("partition sums = %d", total)
	}
}

func TestRepartitionCountsShuffle(t *testing.T) {
	ctx := NewContext(2)
	d := FromValues(ctx, randKV(rand.New(rand.NewSource(1)), 20, 3))
	before := ctx.Metrics().ShuffledRecords()
	d2 := d.Repartition(5)
	if d2.NumPartitions() != 5 {
		t.Fatalf("repartition = %d parts", d2.NumPartitions())
	}
	if ctx.Metrics().ShuffledRecords()-before != 20 {
		t.Fatal("repartition should count all records as shuffled")
	}
}

func TestSortBy(t *testing.T) {
	ctx := NewContext(3)
	d := FromValues(ctx, []types.Value{types.Int(3), types.Int(1), types.Int(2)})
	s := d.SortBy("sort", func(a, b types.Value) bool { return a.Int() < b.Int() })
	got := s.Collect()
	if got[0].Int() != 1 || got[1].Int() != 2 || got[2].Int() != 3 {
		t.Fatalf("sorted = %v", got)
	}
}

func TestSample(t *testing.T) {
	ctx := NewContext(2)
	vs := make([]types.Value, 100)
	for i := range vs {
		vs[i] = types.Int(int64(i))
	}
	d := FromValues(ctx, vs)
	if n := len(d.Sample(10)); n != 10 {
		t.Fatalf("sample size = %d", n)
	}
	if n := len(d.Sample(0)); n != 100 {
		t.Fatalf("sample k<1 = every record, got %d", n)
	}
}

// TestShuffleStrategiesAgree: all three grouping strategies must produce the
// same groups (they differ only in cost), across random datasets and worker
// counts.
func TestShuffleStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	key := func(v types.Value) types.Value { return v.Field("k") }
	agg := GroupAgg{}
	for trial := 0; trial < 30; trial++ {
		vs := randKV(rng, 5+rng.Intn(200), 1+rng.Intn(8))
		workers := 1 + rng.Intn(8)
		norm := func(d *Dataset) []types.Value {
			out := d.Collect()
			for i, g := range out {
				k, members := GroupRecord(g)
				types.SortValues(members)
				out[i] = types.NewRecord(types.NewSchema("key", "group"),
					[]types.Value{k, types.ListOf(members)})
			}
			return out
		}
		mk := func() *Dataset { return FromValues(NewContext(workers), vs) }
		a := norm(mk().AggregateByKey("g", key, agg))
		s := norm(mk().SortShuffleGroup("g", key, agg))
		h := norm(mk().HashShuffleGroup("g", key, agg))
		sameRecords(t, a, s, "aggregate vs sort")
		sameRecords(t, a, h, "aggregate vs hash")
	}
}

func TestAggregateByKeyShufflesLess(t *testing.T) {
	// Count aggregation over few keys: map-side combine must shuffle far
	// fewer records than the full-shuffle strategies.
	rng := rand.New(rand.NewSource(73))
	vs := randKV(rng, 4000, 4)
	key := func(v types.Value) types.Value { return v.Field("k") }

	ctxA := NewContext(8)
	FromValues(ctxA, vs).AggregateByKey("g", key, countingAgg{})
	ctxS := NewContext(8)
	FromValues(ctxS, vs).SortShuffleGroup("g", key, countingAgg{})

	if a, s := ctxA.Metrics().ShuffledRecords(), ctxS.Metrics().ShuffledRecords(); a*10 > s {
		t.Fatalf("aggregateByKey shuffled %d, sort shuffled %d — want ≥10x reduction", a, s)
	}
}

// countingAgg counts group members with O(1) partial state.
type countingAgg struct{}

func (countingAgg) Zero() interface{}                              { return int64(0) }
func (countingAgg) Add(acc interface{}, _ types.Value) interface{} { return acc.(int64) + 1 }
func (countingAgg) Merge(a, b interface{}) interface{}             { return a.(int64) + b.(int64) }
func (countingAgg) AccSize(interface{}) int64                      { return 1 }
func (countingAgg) Result(key types.Value, acc interface{}) types.Value {
	return types.NewRecord(types.NewSchema("key", "n"), []types.Value{key, types.Int(acc.(int64))})
}

func TestSortShuffleSkewShowsInMaxCost(t *testing.T) {
	// 90% of records share one key: the sort ranges overload one worker.
	vs := make([]types.Value, 1000)
	for i := range vs {
		k := "hot"
		if i%10 == 0 {
			k = string(rune('a' + i%26))
		}
		vs[i] = kv(k, int64(i))
	}
	key := func(v types.Value) types.Value { return v.Field("k") }
	ctx := NewContext(8)
	FromValues(ctx, vs).SortShuffleGroup("g", key, GroupAgg{})
	stats := ctx.Metrics().Stages()
	last := stats[len(stats)-1]
	if last.MaxCost()*2 < last.TotalCost() {
		t.Fatalf("hot key should make one worker dominate: max=%d total=%d", last.MaxCost(), last.TotalCost())
	}
}

func TestGroupRecordRoundTrip(t *testing.T) {
	ctx := NewContext(2)
	d := FromValues(ctx, []types.Value{kv("x", 1), kv("x", 2), kv("y", 3)})
	groups := d.AggregateByKey("g", func(v types.Value) types.Value { return v.Field("k") }, GroupAgg{})
	for _, g := range groups.Collect() {
		k, members := GroupRecord(g)
		switch k.Str() {
		case "x":
			if len(members) != 2 {
				t.Fatalf("group x = %v", members)
			}
		case "y":
			if len(members) != 1 {
				t.Fatalf("group y = %v", members)
			}
		default:
			t.Fatalf("unexpected key %s", k)
		}
	}
}

func TestGroupAggProjectAndFinish(t *testing.T) {
	ctx := NewContext(2)
	d := FromValues(ctx, []types.Value{kv("x", 1), kv("x", 5)})
	agg := GroupAgg{
		Project: func(v types.Value) types.Value { return v.Field("v") },
		Finish: func(key types.Value, group []types.Value) types.Value {
			if len(group) < 2 {
				return types.Null() // dropped
			}
			return key
		},
	}
	out := d.AggregateByKey("g", func(v types.Value) types.Value { return v.Field("k") }, agg).Collect()
	if len(out) != 1 || out[0].Str() != "x" {
		t.Fatalf("out = %v", out)
	}
}

// joinRef is the nested-loop reference for join correctness tests.
func joinRef(l, r []types.Value, match func(a, b types.Value) bool, outer bool) []types.Value {
	var out []types.Value
	for _, lv := range l {
		found := false
		for _, rv := range r {
			if match(lv, rv) {
				out = append(out, PairCombine(lv, rv))
				found = true
			}
		}
		if outer && !found {
			out = append(out, PairCombine(lv, types.Null()))
		}
	}
	return out
}

func TestHashJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		l := randKV(rng, rng.Intn(60), 4)
		r := randKV(rng, rng.Intn(60), 4)
		ctx := NewContext(1 + rng.Intn(6))
		ld := FromValues(ctx, l)
		rd := FromValues(ctx, r)
		keyFn := func(v types.Value) types.Value { return v.Field("k") }
		got := ld.HashJoin("j", rd, keyFn, keyFn, PairCombine).Collect()
		want := joinRef(l, r, func(a, b types.Value) bool {
			return a.Field("k").Str() == b.Field("k").Str()
		}, false)
		sameRecords(t, got, want, "hash join")
	}
}

func TestLeftOuterHashJoin(t *testing.T) {
	ctx := NewContext(2)
	l := []types.Value{kv("a", 1), kv("b", 2)}
	r := []types.Value{kv("a", 10)}
	keyFn := func(v types.Value) types.Value { return v.Field("k") }
	got := FromValues(ctx, l).LeftOuterHashJoin("j", FromValues(ctx, r), keyFn, keyFn, PairCombine).Collect()
	want := joinRef(l, r, func(a, b types.Value) bool {
		return a.Field("k").Str() == b.Field("k").Str()
	}, true)
	sameRecords(t, got, want, "left outer join")
}

func TestBroadcastJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	l := randKV(rng, 80, 5)
	r := randKV(rng, 10, 5)
	keyFn := func(v types.Value) types.Value { return v.Field("k") }
	ctx := NewContext(4)
	viaHash := FromValues(ctx, l).HashJoin("j", FromValues(ctx, r), keyFn, keyFn, PairCombine).Collect()
	viaBcast := FromValues(ctx, l).BroadcastJoin("j", r, keyFn, keyFn, PairCombine).Collect()
	sameRecords(t, viaHash, viaBcast, "broadcast vs hash join")
}

func TestCartesianFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	l := randKV(rng, 30, 3)
	r := randKV(rng, 25, 3)
	pred := func(a, b types.Value) bool { return a.Field("v").Int() < b.Field("v").Int() }
	ctx := NewContext(4)
	got, err := FromValues(ctx, l).CartesianFilter("c", FromValues(ctx, r), pred, PairCombine)
	if err != nil {
		t.Fatal(err)
	}
	want := joinRef(l, r, pred, false)
	sameRecords(t, got.Collect(), want, "cartesian filter")
	if ctx.Metrics().Comparisons() != 30*25 {
		t.Fatalf("comparisons = %d, want 750", ctx.Metrics().Comparisons())
	}
}

func TestCartesianBudgetExceeded(t *testing.T) {
	ctx := NewContext(2)
	ctx.CompBudget = 100
	l := FromValues(ctx, randKV(rand.New(rand.NewSource(1)), 50, 3))
	_, err := l.CartesianFilter("c", l, func(a, b types.Value) bool { return true }, PairCombine)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestBudgetGuardClampsOverspentCounter(t *testing.T) {
	// Several stages share one job budget, so a prior stage may already have
	// pushed the comparison counter past it. The guards charge "the remaining
	// budget" before reporting ErrBudgetExceeded; with an overspent counter
	// that delta is negative and must clamp at zero — a failed join must never
	// reduce the cumulative metrics.
	mk := func() (*Context, *Dataset, *Dataset) {
		ctx := NewContext(2)
		ctx.CompBudget = 100
		ctx.Metrics().AddComparisons(150) // prior stage overspent the budget
		rng := rand.New(rand.NewSource(11))
		return ctx, FromValues(ctx, randKV(rng, 30, 3)), FromValues(ctx, randKV(rng, 30, 3))
	}
	attr := func(v types.Value) float64 { return float64(v.Field("v").Int()) }
	anyPred := func(a, b types.Value) bool { return true }
	cases := []struct {
		name string
		run  func(ctx *Context, l, r *Dataset) error
	}{
		{"cartesian", func(_ *Context, l, r *Dataset) error {
			_, err := l.CartesianFilter("c", r, anyPred, PairCombine)
			return err
		}},
		{"theta", func(_ *Context, l, r *Dataset) error {
			_, err := l.ThetaJoin("t", r, ThetaJoinStats{}, anyPred, PairCombine)
			return err
		}},
		{"minmax", func(_ *Context, l, r *Dataset) error {
			_, err := l.MinMaxBlockJoin("m", r, &Band{Left: attr, Right: attr, Op: "<"}, anyPred, PairCombine)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, l, r := mk()
			before := ctx.Metrics().Comparisons()
			if err := tc.run(ctx, l, r); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			if got := ctx.Metrics().Comparisons(); got < before {
				t.Fatalf("budget guard reduced the cumulative comparison counter: %d -> %d", before, got)
			}
		})
	}
}

func TestThetaJoinMatchesCartesian(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		l := randKV(rng, 20+rng.Intn(50), 5)
		r := randKV(rng, 20+rng.Intn(50), 5)
		pred := func(a, b types.Value) bool {
			return a.Field("v").Int() < b.Field("v").Int()
		}
		ctx := NewContext(1 + rng.Intn(6))
		stats := ThetaJoinStats{
			SortKey: func(v types.Value) float64 { return float64(v.Field("v").Int()) },
			Prune:   func(lmin, _, _, rmax float64) bool { return lmin >= rmax },
		}
		got, err := FromValues(ctx, l).ThetaJoin("t", FromValues(ctx, r), stats, pred, PairCombine)
		if err != nil {
			t.Fatal(err)
		}
		want := joinRef(l, r, pred, false)
		sameRecords(t, got.Collect(), want, "theta join vs reference")
	}
}

func TestThetaJoinPrunesComparisons(t *testing.T) {
	// With a band predicate and sorted buckets, pruning must eliminate most
	// candidate cells compared to the full cross product: the left side
	// holds the 4 smallest values and the predicate needs left > right, so
	// only the right buckets below those values can match.
	vs := make([]types.Value, 400)
	for i := range vs {
		vs[i] = kv("k", int64(i))
	}
	pred := func(a, b types.Value) bool { return a.Field("v").Int() > b.Field("v").Int() }
	stats := ThetaJoinStats{
		SortKey: func(v types.Value) float64 { return float64(v.Field("v").Int()) },
		Prune:   func(_, lmax, rmin, _ float64) bool { return lmax <= rmin },
	}
	ctx := NewContext(4)
	small := FromValues(ctx, vs[:4]) // selective left side
	big := FromValues(ctx, vs)
	out, err := small.ThetaJoin("t", big, stats, pred, PairCombine)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Count(); got != 3+2+1 {
		t.Fatalf("matches = %d, want 6", got)
	}
	if c := ctx.Metrics().Comparisons(); c >= 4*400/4 {
		t.Fatalf("pruning should cut comparisons well below the full product: %d", c)
	}
}

func TestMinMaxBlockJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	l := randKV(rng, 60, 4)
	r := randKV(rng, 60, 4)
	pred := func(a, b types.Value) bool { return a.Field("v").Int() < b.Field("v").Int() }
	ctx := NewContext(4)
	attr := func(v types.Value) float64 { return float64(v.Field("v").Int()) }
	got, err := FromValues(ctx, l).MinMaxBlockJoin("m", FromValues(ctx, r), &Band{Left: attr, Right: attr, Op: "<"},
		pred, PairCombine)
	if err != nil {
		t.Fatal(err)
	}
	want := joinRef(l, r, pred, false)
	sameRecords(t, got.Collect(), want, "minmax join")
}

func TestMetricsSimTicksMonotone(t *testing.T) {
	ctx := NewContext(2)
	d := FromValues(ctx, randKV(rand.New(rand.NewSource(2)), 100, 3))
	t0 := ctx.Metrics().SimTicks()
	d2 := d.Map("m", func(v types.Value) types.Value { return v })
	t1 := ctx.Metrics().SimTicks()
	if t1 <= t0 {
		t.Fatal("ticks should grow with work")
	}
	d2.Filter("f", func(v types.Value) bool { return true })
	if ctx.Metrics().SimTicks() <= t1 {
		t.Fatal("ticks should grow again")
	}
}

func TestMetricsReset(t *testing.T) {
	ctx := NewContext(2)
	FromValues(ctx, randKV(rand.New(rand.NewSource(3)), 50, 3)).Map("m", func(v types.Value) types.Value { return v })
	ctx.Metrics().Reset()
	if ctx.Metrics().SimTicks() != 0 || ctx.Metrics().RecordsProcessed() != 0 {
		t.Fatal("reset should clear counters")
	}
}

// TestMetricsMergeBoundsStageLog: an instance collector that finished jobs
// are merged into keeps exact totals — SimTicks and TotalCost the sum,
// MaxStageCost the max over every job — while its stage log and its live heap
// stop growing with the number of jobs served.
func TestMetricsMergeBoundsStageLog(t *testing.T) {
	inst := NewContext(2)
	var ticks, cost, maxCost int64
	serve := func(jobs int) {
		for i := 0; i < jobs; i++ {
			job := inst.Job(nil)
			m := job.Metrics()
			m.logStage(StageStats{Name: "scan", WorkerCosts: []int64{int64(i % 7), 3}})
			m.logStage(StageStats{Name: "shuffle", WorkerCosts: []int64{2, int64(i % 11)}, ShuffledRecords: int64(i % 5)})
			m.logStage(StageStats{Name: "select", WorkerCosts: []int64{1, 1}})
			ticks, cost = ticks+m.SimTicks(), cost+m.TotalCost()
			maxCost = max(maxCost, m.MaxStageCost())
			inst.Metrics().Merge(m)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve(2000)
	before := liveHeap()
	serve(20000)
	grown := int64(liveHeap()) - int64(before)
	m := inst.Metrics()
	if n := len(m.Stages()); n > recentStages {
		t.Fatalf("stage log holds %d records after 22,000 jobs, bound is %d", n, recentStages)
	}
	if last := m.Stages()[len(m.Stages())-1]; last.Name != "select" {
		t.Fatalf("latest stage record is %q, want the last job's select", last.Name)
	}
	if m.SimTicks() != ticks || m.TotalCost() != cost || m.MaxStageCost() != maxCost {
		t.Fatalf("totals ticks=%d cost=%d max=%d, the jobs sum to %d / %d / %d",
			m.SimTicks(), m.TotalCost(), m.MaxStageCost(), ticks, cost, maxCost)
	}
	// 20,000 jobs × 3 records × ~130 B is ~8 MB when every record is kept.
	if grown > 1<<20 {
		t.Fatalf("live heap grew %d bytes over 20,000 merged jobs", grown)
	}

	// A collector nothing is merged into keeps every stage it logged.
	direct := NewContext(1)
	for i := 0; i < 2*recentStages; i++ {
		direct.Metrics().logStage(StageStats{Name: "s", WorkerCosts: []int64{1}})
	}
	if n := len(direct.Metrics().Stages()); n != 2*recentStages || direct.Metrics().SimTicks() != int64(n) {
		t.Fatalf("directly logged: %d records, %d ticks", n, direct.Metrics().SimTicks())
	}
}

func TestStageStatsAccessors(t *testing.T) {
	s := StageStats{WorkerCosts: []int64{3, 9, 1}}
	if s.MaxCost() != 9 || s.TotalCost() != 13 {
		t.Fatalf("max=%d total=%d", s.MaxCost(), s.TotalCost())
	}
}

func TestFlatMapWCosts(t *testing.T) {
	ctx := NewContext(1)
	d := FromValues(ctx, []types.Value{types.Int(1), types.Int(2)})
	d.FlatMapW("w", func(v types.Value) []types.Value { return nil },
		func(v types.Value) int64 { return 100 })
	stages := ctx.Metrics().Stages()
	last := stages[len(stages)-1]
	if last.TotalCost() != 200 {
		t.Fatalf("weighted cost = %d, want 200", last.TotalCost())
	}
}

// TestSelfPairs: emission in the unfused order (a outer, b inner, list
// order) keeping Key(a) < Key(b); equal keys never pair but each pairs with
// the rest; n(n−1)/2 is the cost and the comparison charge; the budget is
// checked before any pair is tested.
func TestSelfPairs(t *testing.T) {
	env := types.NewSchema("g")
	out := types.NewSchema("g", "a", "b")
	list := func(vs ...int64) types.Value {
		ms := make([]types.Value, len(vs))
		for i, v := range vs {
			ms[i] = types.Int(v)
		}
		return types.NewRecord(env, []types.Value{types.ListOf(ms)})
	}
	groups := []types.Value{list(3, 1, 3, 2), list(), list(7), list(5, 4)}
	members := func(v types.Value) []types.Value { return v.Field("g").List() }
	odd := func(fields []types.Value) bool { return (fields[1].Int()+fields[2].Int())%2 == 1 }

	ctx := NewContext(2)
	d, err := FromValues(ctx, groups).SelfPairs("pairs", out, members, nil, odd)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range d.Collect() {
		got = append(got, types.Key(types.List(v.Field("a"), v.Field("b"))))
	}
	// (3,1,3,2): 1<3 twice and 1<2, 2<3 twice; odd sums keep (1,2) and both (2,3).
	want := []string{"[1,2]", "[2,3]", "[2,3]", "[4,5]"}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", got, want)
		}
	}
	if c := ctx.Metrics().Comparisons(); c != 6+1 {
		t.Fatalf("Comparisons = %d, want 7", c)
	}
	stages := ctx.Metrics().Stages()
	if last := stages[len(stages)-1]; last.Name != "pairs" || last.TotalCost() != 7 {
		t.Fatalf("stage %q cost %d, want pairs/7", last.Name, last.TotalCost())
	}

	tight := NewContext(2)
	tight.CompBudget = 5
	tested := false
	_, err = FromValues(tight, groups).SelfPairs("pairs", out, members, nil, func([]types.Value) bool {
		tested = true
		return true
	})
	if !errors.Is(err, ErrBudgetExceeded) || tested {
		t.Fatalf("budget 5 over 7 candidates: err = %v, tested = %v", err, tested)
	}
	if c := tight.Metrics().Comparisons(); c != 5 {
		t.Fatalf("Comparisons = %d, want the counter saturated at the budget", c)
	}
}

// TestSelfPairsFreshMask: the delta mask splits a list's pairs exactly into
// old×old and pairs with a fresh element. pairs(old elements only) ∪ masked
// pairs is the unmasked enumeration over overlapping lists, in the unmasked
// order among themselves; a list without a fresh element costs nothing and
// emits nothing; the stage's cost and comparison charge count only the pairs
// with a fresh element and are charged before any pair is tested; a cancelled
// job stops mid-list.
func TestSelfPairsFreshMask(t *testing.T) {
	env := types.NewSchema("g")
	out := types.NewSchema("g", "a", "b")
	list := func(vs ...int64) types.Value {
		ms := make([]types.Value, len(vs))
		for i, v := range vs {
			ms[i] = types.Int(v)
		}
		return types.NewRecord(env, []types.Value{types.ListOf(ms)})
	}
	members := func(v types.Value) []types.Value { return v.Field("g").List() }
	all := func([]types.Value) bool { return true }
	// Elements ≥ 10 are the appended ones. Lists overlap (1, 2 and 11 sit in
	// two each), the third is fully old, the fourth holds an old twin pair.
	fresh := func(key string) bool { return len(key) > 1 }
	groups := []types.Value{list(2, 11, 1, 10), list(1, 2, 12, 11), list(5, 4, 3), list(6, 13, 6), list(14)}
	var oldOnly []types.Value
	for _, g := range groups {
		var olds []int64
		for _, m := range members(g) {
			if m.Int() < 10 {
				olds = append(olds, m.Int())
			}
		}
		oldOnly = append(oldOnly, list(olds...))
	}
	pairsOf := func(d *Dataset) []string {
		var ps []string
		for _, v := range d.Collect() {
			ps = append(ps, types.Key(v))
		}
		return ps
	}

	ctx := NewContext(2)
	unmasked, err := FromValues(ctx, groups).SelfPairs("pairs", out, members, nil, all)
	if err != nil {
		t.Fatal(err)
	}
	mctx := NewContext(2)
	masked, err := FromValues(mctx, groups).SelfPairs("pairs", out, members, fresh, all)
	if err != nil {
		t.Fatal(err)
	}
	olds, err := FromValues(NewContext(2), oldOnly).SelfPairs("pairs", out, members, nil, all)
	if err != nil {
		t.Fatal(err)
	}
	// Every unmasked pair is an old×old pair or a masked pair, and the masked
	// ones appear in the unmasked order.
	got, oldSet := pairsOf(masked), map[string]int{}
	for _, v := range olds.Collect() {
		oldSet[types.Key(types.List(v.Field("a"), v.Field("b")))]++
	}
	next := 0
	for _, v := range unmasked.Collect() {
		a, b := v.Field("a"), v.Field("b")
		if a.Int() < 10 && b.Int() < 10 {
			if oldSet[types.Key(types.List(a, b))] == 0 {
				t.Fatalf("old pair %s is not in the old-only enumeration", types.Key(v))
			}
			continue
		}
		if next == len(got) || got[next] != types.Key(v) {
			t.Fatalf("masked pairs %v, want next the unmasked %s", got, types.Key(v))
		}
		next++
	}
	if next != len(got) {
		t.Fatalf("masked stage emitted %d pairs beyond the unmasked ones with a fresh element", len(got)-next)
	}
	// 4 elements with 2 old: 6−1; again 6−1; fully old: 0; (6,13,6): 3−1; singleton: 0.
	const want = 5 + 5 + 0 + 2 + 0
	if c := mctx.Metrics().Comparisons(); c != want {
		t.Fatalf("masked Comparisons = %d, want %d", c, want)
	}
	stages := mctx.Metrics().Stages()
	if last := stages[len(stages)-1]; last.Name != "pairs" || last.TotalCost() != want {
		t.Fatalf("masked stage %q cost %d, want pairs/%d", last.Name, last.TotalCost(), want)
	}

	// Fully old input: nothing charged, nothing tested, nothing emitted.
	octx := NewContext(2)
	tested := false
	none, err := FromValues(octx, groups).SelfPairs("pairs", out, members,
		func(string) bool { return false }, func([]types.Value) bool { tested = true; return true })
	if err != nil || none.Count() != 0 || tested || octx.Metrics().Comparisons() != 0 {
		t.Fatalf("fully old lists: err %v, %d pairs, tested %v, %d comparisons",
			err, none.Count(), tested, octx.Metrics().Comparisons())
	}

	// The charge precedes every test: a budget of 1 aborts with keep unseen.
	tight := NewContext(2)
	tight.CompBudget = 1
	_, err = FromValues(tight, groups).SelfPairs("pairs", out, members, fresh,
		func([]types.Value) bool { tested = true; return true })
	if !errors.Is(err, ErrBudgetExceeded) || tested {
		t.Fatalf("budget 1 over %d candidates: err = %v, tested = %v", want, err, tested)
	}

	// Cancelled mid-list: the element loop polls the job and stops. Of the
	// list's five candidates only (11, 2) — the first a with a later key —
	// is tested.
	goctx, cancel := context.WithCancel(context.Background())
	job := NewContext(1).Job(goctx)
	calls := 0
	FromValues(job, groups[:1]).SelfPairs("pairs", out, members, fresh, func([]types.Value) bool {
		calls++
		cancel()
		return true
	})
	if job.Err() == nil || calls != 1 {
		t.Fatalf("cancelled at the first pair: job err %v, %d pairs tested, want 1", job.Err(), calls)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// The same pipeline must yield identical result sets for any worker
	// count — the basic scale-out correctness invariant.
	vs := randKV(rand.New(rand.NewSource(97)), 300, 6)
	key := func(v types.Value) types.Value { return v.Field("k") }
	var baseline []string
	for _, workers := range []int{1, 2, 5, 16} {
		ctx := NewContext(workers)
		got := FromValues(ctx, vs).
			Filter("f", func(v types.Value) bool { return v.Field("v").Int()%2 == 0 }).
			AggregateByKey("g", key, GroupAgg{}).
			Collect()
		norm := make([]string, len(got))
		for i, g := range got {
			k, members := GroupRecord(g)
			types.SortValues(members)
			norm[i] = types.Key(k) + "→" + types.Key(types.ListOf(members))
		}
		sort.Strings(norm)
		if baseline == nil {
			baseline = norm
			continue
		}
		if len(norm) != len(baseline) {
			t.Fatalf("workers=%d changed result count", workers)
		}
		for i := range norm {
			if norm[i] != baseline[i] {
				t.Fatalf("workers=%d changed results", workers)
			}
		}
	}
}
