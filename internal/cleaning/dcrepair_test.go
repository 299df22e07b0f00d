package cleaning

import (
	"math"
	"testing"

	"cleandb/internal/datagen"
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

var liSchema = types.NewSchema("id", "price", "discount")

func li(id int64, price, discount float64) types.Value {
	return types.NewRecord(liSchema, []types.Value{
		types.Int(id), types.Float(price), types.Float(discount),
	})
}

// ruleψConfig is the paper's rule ψ over the small schema: violation when
// t1.price < t2.price ∧ t1.discount > t2.discount ∧ t1.price < x.
func ruleψConfig(x float64) DCRepairConfig {
	return DCRepairConfig{
		Check: DCConfig{
			LeftFilter: func(v types.Value) bool { return v.Field("price").Float() < x },
			Pred: func(t1, t2 types.Value) bool {
				return t1.Field("price").Float() < t2.Field("price").Float() &&
					t1.Field("discount").Float() > t2.Field("discount").Float() &&
					t1.Field("price").Float() < x
			},
			Band:   func(v types.Value) float64 { return v.Field("price").Float() },
			BandOp: "<",
		},
		RepairAttr: func(v types.Value) float64 { return v.Field("discount").Float() },
		RepairCol:  "discount",
		RepairOp:   ">",
	}
}

func TestRepairDCHealsSmallChain(t *testing.T) {
	// Prices ascending, discounts descending: every pair with price < 100
	// on the left violates. The L1 fit pools everything to the median.
	ctx := engine.NewContext(4)
	ds := engine.FromValues(ctx, []types.Value{
		li(1, 10, 0.09), li(2, 20, 0.07), li(3, 30, 0.03),
	})
	cfg := ruleψConfig(100)
	res, err := RepairDC(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 3 {
		t.Fatalf("violations = %d, want 3", res.Violations)
	}
	if res.Remaining != 0 {
		t.Fatalf("remaining = %d, want 0", res.Remaining)
	}
	leftover, err := DCCheck(res.Repaired, cfg.Check)
	if err != nil {
		t.Fatal(err)
	}
	if leftover.Count() != 0 {
		t.Fatalf("re-check found %d violations", leftover.Count())
	}
	// Median pooling: all three discounts become 0.07 (lower median), so
	// only two values move — the minimum L1 displacement for a full chain.
	for _, v := range res.Repaired.Collect() {
		if d := v.Field("discount").Float(); d != 0.07 {
			t.Fatalf("discount = %v, want 0.07 for all: %s", d, v)
		}
	}
	if res.Changed != 2 {
		t.Fatalf("changed = %d, want 2", res.Changed)
	}
}

func TestRepairDCLeavesCleanDataAlone(t *testing.T) {
	ctx := engine.NewContext(4)
	rows := []types.Value{li(1, 10, 0.01), li(2, 20, 0.05), li(3, 30, 0.05)}
	res, err := RepairDC(engine.FromValues(ctx, rows), ruleψConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 || res.Changed != 0 || res.Rounds != 0 {
		t.Fatalf("clean data repaired: %+v", res)
	}
	if got := res.Repaired.Collect(); len(got) != len(rows) {
		t.Fatalf("rows = %d", len(got))
	}
}

func TestRepairDCIntervals(t *testing.T) {
	// One filtered t1 (price 10, discount 0.09) against partners with
	// discounts 0.03 and 0.05: t1's repair interval is (-Inf, 0.03]; each
	// partner's is [0.09, +Inf).
	pairs := [][2]types.Value{
		{li(1, 10, 0.09), li(2, 20, 0.05)},
		{li(1, 10, 0.09), li(3, 30, 0.03)},
	}
	cfg := ruleψConfig(100)
	rt := &repairTuples{tab: types.NewTupleTable(), cfg: &cfg}
	ivs := repairIntervals(rt.intern(pairs), rt)
	id := func(v types.Value) int32 {
		id, ok := rt.tab.ByKey(types.Key(v))
		if !ok {
			t.Fatalf("tuple %s not interned", v)
		}
		return id
	}
	t1 := ivs[id(li(1, 10, 0.09))]
	if !math.IsInf(t1.lo, -1) || t1.hi != 0.03 {
		t.Fatalf("t1 interval = [%v, %v], want (-Inf, 0.03]", t1.lo, t1.hi)
	}
	p2 := ivs[id(li(2, 20, 0.05))]
	if p2.lo != 0.09 || !math.IsInf(p2.hi, 1) {
		t.Fatalf("partner interval = [%v, %v], want [0.09, +Inf)", p2.lo, p2.hi)
	}
}

func TestRepairDCClustersIndependently(t *testing.T) {
	// Two non-interacting violation clusters; each must be solved on its
	// own (4 tuples changed at most, tuples outside clusters untouched).
	ctx := engine.NewContext(4)
	rows := []types.Value{
		li(1, 10, 0.02), li(2, 20, 0.01), // cluster A
		li(3, 1000, 0.10),                // clean bystander (filtered, top discount)
		li(4, 30, 0.09), li(5, 40, 0.08), // cluster B
	}
	cfg := ruleψConfig(100)
	res, err := RepairDC(engine.FromValues(ctx, rows), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("remaining = %d", res.Remaining)
	}
	if res.Clusters < 2 {
		t.Fatalf("clusters = %d, want >= 2", res.Clusters)
	}
	for _, v := range res.Repaired.Collect() {
		if v.Field("id").Int() == 3 && v.Field("discount").Float() != 0.10 {
			t.Fatalf("bystander modified: %s", v)
		}
	}
}

func TestRepairDCOppositeDirection(t *testing.T) {
	// Flipped rule: violation when t1.price < t2.price ∧ t1.v < t2.v —
	// repair must make v non-increasing along price.
	cfg := DCRepairConfig{
		Check: DCConfig{
			Pred: func(t1, t2 types.Value) bool {
				return t1.Field("price").Float() < t2.Field("price").Float() &&
					t1.Field("discount").Float() < t2.Field("discount").Float()
			},
			Band:   func(v types.Value) float64 { return v.Field("price").Float() },
			BandOp: "<",
		},
		RepairAttr: func(v types.Value) float64 { return v.Field("discount").Float() },
		RepairCol:  "discount",
		RepairOp:   "<",
	}
	ctx := engine.NewContext(2)
	ds := engine.FromValues(ctx, []types.Value{
		li(1, 10, 0.01), li(2, 20, 0.05), li(3, 30, 0.09),
	})
	res, err := RepairDC(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaining != 0 {
		t.Fatalf("remaining = %d", res.Remaining)
	}
	prev := math.Inf(1)
	rows := res.Repaired.Collect()
	types.SortValues(rows)
	for _, v := range rows {
		if d := v.Field("discount").Float(); d > prev {
			t.Fatalf("repair not non-increasing: %v after %v", d, prev)
		} else {
			prev = d
		}
	}
}

func TestRepairDCConvergesOnLineitem(t *testing.T) {
	// The examples/denial dataset shape: noisy TPC-H lineitem with the real
	// rule ψ. Repair must converge to zero remaining violations.
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 3000, Seed: 42, NoiseDiscount: true})
	threshold := 950.0
	ctx := engine.NewContext(8)
	ds := engine.FromValues(ctx, rows)
	cfg := DCRepairConfig{
		Check: DCConfig{
			LeftFilter: func(v types.Value) bool { return v.Field("extendedprice").Float() < threshold },
			Pred: func(t1, t2 types.Value) bool {
				return t1.Field("extendedprice").Float() < t2.Field("extendedprice").Float() &&
					t1.Field("discount").Float() > t2.Field("discount").Float() &&
					t1.Field("extendedprice").Float() < threshold
			},
			Band:     func(v types.Value) float64 { return v.Field("extendedprice").Float() },
			BandOp:   "<",
			Strategy: physical.ThetaMBucket,
		},
		RepairAttr: func(v types.Value) float64 { return v.Field("discount").Float() },
		RepairCol:  "discount",
		RepairOp:   ">",
	}
	res, err := RepairDC(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("test data should contain violations")
	}
	if res.Remaining != 0 {
		t.Fatalf("repair did not converge: %d violations remain after %d rounds", res.Remaining, res.Rounds)
	}
	leftover, err := DCCheck(res.Repaired, cfg.Check)
	if err != nil {
		t.Fatal(err)
	}
	if leftover.Count() != 0 {
		t.Fatalf("re-check found %d violations", leftover.Count())
	}
	if res.Repaired.Count() != int64(len(rows)) {
		t.Fatal("repair changed the row count")
	}
}

func TestRepairDCChargesMetrics(t *testing.T) {
	ctx := engine.NewContext(4)
	ds := engine.FromValues(ctx, []types.Value{
		li(1, 10, 0.09), li(2, 20, 0.07), li(3, 30, 0.03),
	})
	before := ctx.Metrics().Comparisons()
	if _, err := RepairDC(ds, ruleψConfig(100)); err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics().Comparisons() <= before {
		t.Fatal("repair charged no comparisons")
	}
	found := false
	for _, s := range ctx.Metrics().Stages() {
		if s.Name == "dcrepair:solve" {
			found = true
		}
	}
	if !found {
		t.Fatal("cluster solve did not run as an engine stage")
	}
}

func TestRepairDCValidation(t *testing.T) {
	ctx := engine.NewContext(1)
	ds := engine.FromValues(ctx, []types.Value{li(1, 10, 0.09)})
	bad := []DCRepairConfig{
		{}, // no RepairAttr
		{RepairAttr: func(types.Value) float64 { return 0 }, RepairCol: "x", RepairOp: "!!"},
		{RepairAttr: func(types.Value) float64 { return 0 }, RepairCol: "x", RepairOp: ">"}, // no Band
	}
	for i, cfg := range bad {
		if _, err := RepairDC(ds, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestApplyValueRepairs(t *testing.T) {
	ctx := engine.NewContext(2)
	rows := []types.Value{li(1, 10, 0.09), li(2, 20, 0.07)}
	ds := engine.FromValues(ctx, rows)
	out, changed := ApplyValueRepairs(ds, "discount", func(v types.Value) (float64, bool) {
		return 0.01, v.Field("id").Int() == 1
	})
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	got := out.Collect()
	types.SortValues(got)
	if got[0].Field("discount").Float() != 0.01 {
		t.Fatalf("repair not applied: %s", got[0])
	}
	if got[1].Field("discount").Float() != 0.07 {
		t.Fatalf("untouched row changed: %s", got[1])
	}
}

func TestLowerMedianAndIsotonic(t *testing.T) {
	if m := lowerMedian([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := lowerMedian([]float64{4, 1, 3, 2}); m != 2 {
		t.Fatalf("even median = %v", m)
	}
	// solveCluster on an already monotone chain is the identity.
	cfg := ruleψConfig(100)
	members := []types.Value{li(1, 10, 0.01), li(2, 20, 0.02), li(3, 30, 0.03)}
	rt := &repairTuples{tab: types.NewTupleTable(), cfg: &cfg}
	ids := make([]int32, len(members))
	for i, m := range members {
		ids[i] = rt.tab.Intern(m)
	}
	rt.sync()
	fits := solveCluster(ids, rt, repairIntervals(nil, rt))
	for i, f := range fits {
		if f != members[i].Field("discount").Float() {
			t.Fatalf("monotone chain modified: %v", fits)
		}
	}
}

// TestDCCheckUnknownBandOpDisablesPruning: an unrecognized BandOp must fall
// through to "no pruning" — every strategy has to agree with the exhaustive
// cartesian ground truth rather than prune incorrectly.
func TestDCCheckUnknownBandOpDisablesPruning(t *testing.T) {
	rows := datagen.GenLineitem(datagen.LineitemConfig{Rows: 400, Seed: 5})
	pred := func(t1, t2 types.Value) bool {
		return t1.Field("extendedprice").Float() < t2.Field("extendedprice").Float() &&
			t1.Field("discount").Float() > t2.Field("discount").Float()
	}
	band := func(v types.Value) float64 { return v.Field("extendedprice").Float() }

	count := func(strategy physical.ThetaStrategy, bandOp string) int64 {
		ctx := engine.NewContext(4)
		ds := engine.FromValues(ctx, rows)
		out, err := DCCheck(ds, DCConfig{Pred: pred, Band: band, BandOp: bandOp, Strategy: strategy})
		if err != nil {
			t.Fatalf("strategy %v op %q: %v", strategy, bandOp, err)
		}
		return out.Count()
	}
	want := count(physical.ThetaCartesian, "<")
	for _, op := range []string{"between", "!!", ""} {
		for _, s := range []physical.ThetaStrategy{physical.ThetaMBucket, physical.ThetaMinMax} {
			if got := count(s, op); got != want {
				t.Fatalf("strategy %v with unknown BandOp %q pruned incorrectly: %d pairs, want %d",
					s, op, got, want)
			}
		}
	}
}

// TestRepairDCValueIdenticalRows: identical rows are one tuple. Two
// value-identical violating rows share one tuple id, so they get one
// RepairEntry and the same repaired value — including a twin that the seeded
// pairs never mention, which only the dataset pass can find.
func TestRepairDCValueIdenticalRows(t *testing.T) {
	for _, seeded := range []bool{false, true} {
		a, twin := li(1, 10, 0.09), li(1, 10, 0.09)
		b, c := li(2, 20, 0.05), li(3, 30, 0.03)
		cfg := ruleψConfig(100)
		if seeded {
			cfg.InitialPairs = [][2]types.Value{{a, b}, {a, c}, {b, c}}
		}
		ctx := engine.NewContext(2)
		res, err := RepairDC(engine.FromValues(ctx, []types.Value{a, b, twin, c}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Remaining != 0 {
			t.Fatalf("seeded=%v: remaining = %d", seeded, res.Remaining)
		}
		var entries int
		for _, e := range res.Entries {
			if e.Key == types.Key(a) {
				entries++
			}
		}
		if entries != 1 {
			t.Fatalf("seeded=%v: %d entries for the duplicated tuple, want 1: %+v", seeded, entries, res.Entries)
		}
		var got []float64
		for _, v := range res.Repaired.Collect() {
			if v.Field("id").Int() == 1 {
				got = append(got, v.Field("discount").Float())
			}
		}
		if len(got) != 2 || got[0] != got[1] || got[0] == 0.09 {
			t.Fatalf("seeded=%v: twins repaired to %v, want one shared new value", seeded, got)
		}
		leftover, err := DCCheck(res.Repaired, cfg.Check)
		if err != nil {
			t.Fatal(err)
		}
		if n := leftover.Count(); n != 0 {
			t.Fatalf("seeded=%v: re-check found %d violations", seeded, n)
		}
	}
}
