package physical

import (
	"math/rand"
	"sort"
	"testing"

	"cleandb/internal/algebra"
	"cleandb/internal/engine"
	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

var rowSchema = types.NewSchema("id", "grp", "val", "tags")

func row(id int64, grp string, val int64, tags ...string) types.Value {
	tv := make([]types.Value, len(tags))
	for i, s := range tags {
		tv[i] = types.String(s)
	}
	return types.NewRecord(rowSchema, []types.Value{
		types.Int(id), types.String(grp), types.Int(val), types.ListOf(tv),
	})
}

func testRows() []types.Value {
	return []types.Value{
		row(1, "a", 10, "x", "y"),
		row(2, "a", 20, "y"),
		row(3, "b", 30, "z"),
		row(4, "b", 30),
		row(5, "c", 5, "x"),
	}
}

func newExec(workers int) (*Executor, *engine.Context) {
	ctx := engine.NewContext(workers)
	catalog := map[string]*engine.Dataset{
		"rows":  engine.FromValues(ctx, testRows()),
		"other": engine.FromValues(ctx, testRows()[:2]),
	}
	return NewExecutor(ctx, catalog), ctx
}

// runPlan executes and returns canonical sorted keys of the result records.
func runPlan(t *testing.T, ex *Executor, p algebra.Plan) []string {
	t.Helper()
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	out := d.Collect()
	keys := make([]string, len(out))
	for i, v := range out {
		keys[i] = types.Key(v)
	}
	sort.Strings(keys)
	return keys
}

func TestExecScanSelect(t *testing.T) {
	ex, _ := newExec(4)
	p := &algebra.Select{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		Pred:  monoid.Gt(monoid.F(monoid.V("r"), "val"), monoid.CInt(15)),
	}
	got := runPlan(t, ex, p)
	if len(got) != 3 {
		t.Fatalf("select kept %d rows, want 3", len(got))
	}
}

func TestExecUnknownSource(t *testing.T) {
	ex, _ := newExec(2)
	if _, err := ex.Exec(&algebra.Scan{Source: "nope", Alias: "x"}); err == nil {
		t.Fatal("unknown source must error")
	}
}

func TestExecUnitSource(t *testing.T) {
	ex, _ := newExec(2)
	p := &algebra.Reduce{
		Child: &algebra.Scan{Source: algebra.UnitSource, Alias: "$u"},
		M:     monoid.Bag,
		Head:  monoid.CInt(42),
		As:    "$out",
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	out := d.Collect()
	if len(out) != 1 || out[0].Field("$out").Int() != 42 {
		t.Fatalf("unit reduce = %v", out)
	}
}

func TestExecExtend(t *testing.T) {
	ex, _ := newExec(2)
	p := &algebra.Extend{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		Var:   "doubled",
		E:     &monoid.BinOp{Op: "*", L: monoid.F(monoid.V("r"), "val"), R: monoid.CInt(2)},
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Collect() {
		if v.Field("doubled").Int() != v.Field("r").Field("val").Int()*2 {
			t.Fatalf("extend wrong: %s", v)
		}
	}
}

func TestExecUnnestInnerAndOuter(t *testing.T) {
	ex, _ := newExec(3)
	inner := &algebra.Unnest{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		Path:  monoid.F(monoid.V("r"), "tags"),
		As:    "t",
	}
	got := runPlan(t, ex, inner)
	if len(got) != 5 { // x,y / y / z / (none) / x
		t.Fatalf("inner unnest rows = %d, want 5", len(got))
	}
	outer := &algebra.Unnest{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		Path:  monoid.F(monoid.V("r"), "tags"),
		As:    "t",
		Outer: true,
	}
	got = runPlan(t, ex, outer)
	if len(got) != 5+1 { // 4 tag rows + id4 with null + id3's z... recount: tags: r1:2, r2:1, r3:1, r4:0→1 null, r5:1 = 6
		t.Fatalf("outer unnest rows = %d, want 6", len(got))
	}
}

func TestExecEquiJoin(t *testing.T) {
	ex, _ := newExec(3)
	p := &algebra.Join{
		Left:      &algebra.Scan{Source: "rows", Alias: "l"},
		Right:     &algebra.Scan{Source: "other", Alias: "r"},
		LeftKeys:  []monoid.Expr{monoid.F(monoid.V("l"), "grp")},
		RightKeys: []monoid.Expr{monoid.F(monoid.V("r"), "grp")},
	}
	got := runPlan(t, ex, p)
	// other has two "a" rows; rows has two "a" rows → 4 matches.
	if len(got) != 4 {
		t.Fatalf("join rows = %d, want 4", len(got))
	}
}

func TestExecOuterJoinNullFill(t *testing.T) {
	ex, _ := newExec(3)
	p := &algebra.Join{
		Left:      &algebra.Scan{Source: "rows", Alias: "l"},
		Right:     &algebra.Scan{Source: "other", Alias: "r"},
		LeftKeys:  []monoid.Expr{monoid.F(monoid.V("l"), "grp")},
		RightKeys: []monoid.Expr{monoid.F(monoid.V("r"), "grp")},
		Outer:     true,
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	nullRows := 0
	for _, v := range d.Collect() {
		if v.Field("r").IsNull() {
			nullRows++
		}
	}
	if nullRows != 3 { // b, b, c have no match
		t.Fatalf("outer join null rows = %d, want 3", nullRows)
	}
}

func TestExecThetaJoinStrategiesAgree(t *testing.T) {
	mk := func(cfg Config) []string {
		ex, _ := newExec(3)
		ex.Config = cfg
		p := &algebra.Join{
			Left:  &algebra.Scan{Source: "rows", Alias: "l"},
			Right: &algebra.Scan{Source: "other", Alias: "r"},
			Theta: monoid.Lt(monoid.F(monoid.V("l"), "val"), monoid.F(monoid.V("r"), "val")),
		}
		d, err := ex.Exec(p)
		if err != nil {
			t.Fatalf("theta exec: %v", err)
		}
		keys := make([]string, 0)
		for _, v := range d.Collect() {
			keys = append(keys, types.Key(v))
		}
		sort.Strings(keys)
		return keys
	}
	a := mk(Config{Theta: ThetaMBucket})
	b := mk(Config{Theta: ThetaCartesian})
	c := mk(Config{Theta: ThetaMinMax})
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("theta strategies disagree: %d/%d/%d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatal("theta strategies disagree on results")
		}
	}
}

func TestExecNestStrategiesAgree(t *testing.T) {
	mkPlan := func() *algebra.Nest {
		return &algebra.Nest{
			Child: &algebra.Scan{Source: "rows", Alias: "r"},
			Keys:  []monoid.Expr{monoid.F(monoid.V("r"), "grp")},
			Aggs:  []algebra.Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.F(monoid.V("r"), "id")}},
			As:    "g",
		}
	}
	norm := func(cfg Config) []string {
		ex, _ := newExec(3)
		ex.Config = cfg
		d, err := ex.Exec(mkPlan())
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, v := range d.Collect() {
			g := v.Field("g")
			ids := append([]types.Value(nil), g.Field("group").List()...)
			types.SortValues(ids)
			keys = append(keys, types.Key(g.Field("key"))+"→"+types.Key(types.ListOf(ids)))
		}
		sort.Strings(keys)
		return keys
	}
	a := norm(Config{Group: GroupAggregate})
	s := norm(Config{Group: GroupSort})
	h := norm(Config{Group: GroupHash})
	for i := range a {
		if a[i] != s[i] || a[i] != h[i] {
			t.Fatalf("nest strategies disagree:\n%v\n%v\n%v", a, s, h)
		}
	}
}

func TestExecNestMultipleAggregates(t *testing.T) {
	ex, _ := newExec(2)
	p := &algebra.Nest{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		Keys:  []monoid.Expr{monoid.F(monoid.V("r"), "grp")},
		Aggs: []algebra.Aggregate{
			{Name: "n", M: monoid.Count, Val: monoid.CInt(1)},
			{Name: "total", M: monoid.Sum, Val: monoid.F(monoid.V("r"), "val")},
			{Name: "distinctVals", M: monoid.Set, Val: monoid.F(monoid.V("r"), "val")},
		},
		As: "g",
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Collect() {
		g := v.Field("g")
		if g.Field("key").Str() == "b" {
			if g.Field("n").Int() != 2 || g.Field("total").Int() != 60 {
				t.Fatalf("aggregates wrong for b: %s", g)
			}
			if len(g.Field("distinctVals").List()) != 1 {
				t.Fatalf("distinct vals wrong for b: %s", g)
			}
		}
	}
}

// TestExecNestHaving: the group filter holds under every grouping strategy,
// over a primitive aggregate and over the bag aggregate FD and DEDUP guard.
func TestExecNestHaving(t *testing.T) {
	groupSize := &monoid.Call{Fn: "length", Args: []monoid.Expr{monoid.F(monoid.V("g"), "group")}}
	plans := map[string]*algebra.Nest{
		"count": {
			Aggs:   []algebra.Aggregate{{Name: "n", M: monoid.Count, Val: monoid.CInt(1)}},
			Having: monoid.Gt(monoid.F(monoid.V("g"), "n"), monoid.CInt(1)),
		},
		"bag": {
			Aggs:   []algebra.Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.V("r")}},
			Having: monoid.Gt(groupSize, monoid.CInt(1)),
		},
	}
	configs := map[string]Config{
		"aggregate": {Group: GroupAggregate},
		"sort":      {Group: GroupSort},
		"hash":      {Group: GroupHash},
		"auto":      {Auto: true},
	}
	for pname, p := range plans {
		p.Child = &algebra.Scan{Source: "rows", Alias: "r"}
		p.Keys = []monoid.Expr{monoid.F(monoid.V("r"), "grp")}
		p.As = "g"
		for cname, cfg := range configs {
			ex, _ := newExec(2)
			ex.Config = cfg
			d, err := ex.Exec(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, cname, err)
			}
			var kept []string
			for _, v := range d.Collect() {
				kept = append(kept, v.Field("g").Field("key").Str())
			}
			sort.Strings(kept)
			// groups a and b have 2 members; c has 1
			if len(kept) != 2 || kept[0] != "a" || kept[1] != "b" {
				t.Errorf("%s/%s: having kept groups %v, want [a b]", pname, cname, kept)
			}
		}
	}
}

func TestExecReducePrimitive(t *testing.T) {
	ex, _ := newExec(3)
	p := &algebra.Reduce{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		M:     monoid.Sum,
		Head:  monoid.F(monoid.V("r"), "val"),
		As:    "$out",
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	out := d.Collect()
	if len(out) != 1 || out[0].Field("$out").Int() != 95 {
		t.Fatalf("sum reduce = %v", out)
	}
}

func TestExecReduceSetDedups(t *testing.T) {
	ex, _ := newExec(3)
	p := &algebra.Reduce{
		Child: &algebra.Scan{Source: "rows", Alias: "r"},
		M:     monoid.Set,
		Head:  monoid.F(monoid.V("r"), "grp"),
		As:    "$out",
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Count(); n != 3 {
		t.Fatalf("set reduce = %d rows, want 3 distinct groups", n)
	}
}

func TestExecMemoizesSharedNodes(t *testing.T) {
	ex, ctx := newExec(2)
	scan := &algebra.Scan{Source: "rows", Alias: "r"}
	p1 := &algebra.Select{Child: scan, Pred: monoid.CBool(true)}
	p2 := &algebra.Select{Child: scan, Pred: monoid.CBool(false)}
	if _, err := ex.Exec(p1); err != nil {
		t.Fatal(err)
	}
	scanStages := countStages(ctx, "scan:rows")
	if _, err := ex.Exec(p2); err != nil {
		t.Fatal(err)
	}
	if got := countStages(ctx, "scan:rows"); got != scanStages {
		t.Fatalf("shared scan executed twice: %d → %d stages", scanStages, got)
	}
}

func countStages(ctx *engine.Context, name string) int {
	n := 0
	for _, s := range ctx.Metrics().Stages() {
		if s.Name == name {
			n++
		}
	}
	return n
}

func TestExecCombineAll(t *testing.T) {
	ex, _ := newExec(2)
	scan := &algebra.Scan{Source: "rows", Alias: "r"}
	a := &algebra.Select{Child: scan, Pred: monoid.Eq(monoid.F(monoid.V("r"), "grp"), monoid.CStr("a"))}
	b := &algebra.Select{Child: scan, Pred: monoid.Gt(monoid.F(monoid.V("r"), "val"), monoid.CInt(25))}
	p := &algebra.CombineAll{
		Inputs: []algebra.Plan{a, b},
		Keys: []monoid.Expr{
			monoid.F(monoid.V("r"), "grp"),
			monoid.F(monoid.V("r"), "grp"),
		},
		Names: []string{"isA", "isBig"},
	}
	d, err := ex.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	byEntity := map[string]types.Value{}
	for _, v := range d.Collect() {
		byEntity[v.Field("entity").Str()] = v
	}
	if len(byEntity) != 2 { // entities a (from isA) and b (from isBig)
		t.Fatalf("combined entities = %v", byEntity)
	}
	if n := len(byEntity["a"].Field("isA").List()); n != 2 {
		t.Fatalf("entity a should have 2 isA violations, got %d", n)
	}
	if n := len(byEntity["b"].Field("isBig").List()); n != 2 {
		t.Fatalf("entity b should have 2 isBig violations, got %d", n)
	}
}

// TestPhysicalAgreesWithEvaluator is the level-crossing property test: for
// random comprehensions, lowering + physical execution produces exactly the
// evaluator's result.
func TestPhysicalAgreesWithEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	sources := map[string][]types.Value{}
	mkRows := func(n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = row(int64(i), string(rune('a'+rng.Intn(3))), int64(rng.Intn(50)), "t")
		}
		return out
	}
	sources["rows"] = mkRows(40)
	sources["other"] = mkRows(15)

	lowerer := &algebra.Lowerer{IsSource: func(name string) bool {
		_, ok := sources[name]
		return ok || name == algebra.UnitSource
	}}
	ev := monoid.NewEvaluator()
	ev.Sources = func(name string) (types.Value, bool) {
		rows, ok := sources[name]
		if !ok {
			return types.Null(), false
		}
		return types.ListOf(rows), true
	}

	for trial := 0; trial < 100; trial++ {
		comp := randomQueryComp(rng)
		want, err := ev.EvalComprehension(comp, nil)
		if err != nil {
			t.Fatalf("eval: %v (%s)", err, comp)
		}
		plan, err := lowerer.Lower(comp)
		if err != nil {
			t.Fatalf("lower: %v (%s)", err, comp)
		}
		ctx := engine.NewContext(1 + rng.Intn(5))
		catalog := map[string]*engine.Dataset{}
		for name, rows := range sources {
			catalog[name] = engine.FromValues(ctx, rows)
		}
		ex := NewExecutor(ctx, catalog)
		d, err := ex.Exec(plan)
		if err != nil {
			t.Fatalf("exec: %v\n%s", err, algebra.Explain(plan))
		}
		var got []types.Value
		for _, v := range d.Collect() {
			got = append(got, v.Field("$out"))
		}
		wantList := append([]types.Value(nil), want.List()...)
		types.SortValues(wantList)
		types.SortValues(got)
		if types.Key(types.ListOf(wantList)) != types.Key(types.ListOf(got)) {
			t.Fatalf("physical execution disagrees with evaluator for\n%s\nwant %s\ngot  %s\nplan:\n%s",
				comp, types.ListOf(wantList), types.ListOf(got), algebra.Explain(plan))
		}
	}
}

// randomQueryComp builds random bag/set comprehensions of the query shapes
// the lowering supports: scans, joins via equality predicates, filters,
// unnests of list fields.
func randomQueryComp(rng *rand.Rand) *monoid.Comprehension {
	m := []monoid.Monoid{monoid.Bag, monoid.Set}[rng.Intn(2)]
	quals := []monoid.Qual{
		&monoid.Generator{Var: "x", Source: monoid.V("rows")},
	}
	vars := []string{"x"}
	if rng.Intn(2) == 0 {
		quals = append(quals, &monoid.Generator{Var: "y", Source: monoid.V("other")})
		quals = append(quals, &monoid.Pred{Cond: monoid.Eq(
			monoid.F(monoid.V("x"), "grp"), monoid.F(monoid.V("y"), "grp"))})
		vars = append(vars, "y")
	}
	if rng.Intn(2) == 0 {
		quals = append(quals, &monoid.Pred{Cond: monoid.Gt(
			monoid.F(monoid.V("x"), "val"), monoid.CInt(int64(rng.Intn(40))))})
	}
	if rng.Intn(3) == 0 {
		quals = append(quals, &monoid.Generator{Var: "tag", Source: monoid.F(monoid.V("x"), "tags")})
		vars = append(vars, "tag")
	}
	// Head projects a record over some bound vars.
	fields := []monoid.Expr{monoid.F(monoid.V("x"), "id")}
	names := []string{"id"}
	if len(vars) > 1 && rng.Intn(2) == 0 {
		v := vars[1+rng.Intn(len(vars)-1)]
		fields = append(fields, monoid.V(v))
		names = append(names, "extra")
	}
	return &monoid.Comprehension{
		M:     m,
		Head:  &monoid.RecordCtor{Names: names, Fields: fields},
		Quals: quals,
	}
}
