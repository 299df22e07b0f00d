package algebra

import (
	"strings"
	"testing"

	"cleandb/internal/monoid"
)

func testLowerer() *Lowerer {
	sources := map[string]bool{"customer": true, "orders": true, "dict": true, UnitSource: true}
	return &Lowerer{IsSource: func(name string) bool { return sources[name] }}
}

func lower(t *testing.T, c *monoid.Comprehension) Plan {
	t.Helper()
	p, err := testLowerer().Lower(c)
	if err != nil {
		t.Fatalf("Lower(%s): %v", c, err)
	}
	return p
}

func TestLowerSimpleScanFilterReduce(t *testing.T) {
	// bag{ c.name | c ← customer, c.age > 3 }
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: monoid.F(monoid.V("c"), "name"),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "c", Source: monoid.V("customer")},
			&monoid.Pred{Cond: monoid.Gt(monoid.F(monoid.V("c"), "age"), monoid.CInt(3))},
		},
	}
	p := lower(t, c)
	r, ok := p.(*Reduce)
	if !ok {
		t.Fatalf("root should be Reduce, got %T", p)
	}
	s, ok := r.Child.(*Select)
	if !ok {
		t.Fatalf("child should be Select, got %T", r.Child)
	}
	if _, ok := s.Child.(*Scan); !ok {
		t.Fatalf("grandchild should be Scan, got %T", s.Child)
	}
}

func TestLowerJoinExtraction(t *testing.T) {
	// bag{ (c,o) | c ← customer, o ← orders, c.id == o.cid }: the equality
	// must become an equi-join, not a post-filter over a cross product.
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: &monoid.ListCtor{Elems: []monoid.Expr{monoid.V("c"), monoid.V("o")}},
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "c", Source: monoid.V("customer")},
			&monoid.Generator{Var: "o", Source: monoid.V("orders")},
			&monoid.Pred{Cond: monoid.Eq(monoid.F(monoid.V("c"), "id"), monoid.F(monoid.V("o"), "cid"))},
		},
	}
	p := lower(t, c)
	var join *Join
	var walk func(Plan)
	walk = func(pl Plan) {
		if j, ok := pl.(*Join); ok {
			join = j
		}
		for _, ch := range pl.Children() {
			walk(ch)
		}
	}
	walk(p)
	if join == nil {
		t.Fatalf("no join in plan:\n%s", Explain(p))
	}
	if len(join.LeftKeys) != 1 {
		t.Fatalf("equality should become a join key:\n%s", Explain(p))
	}
}

func TestLowerThetaJoin(t *testing.T) {
	// Inequality between two sources → theta join.
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: monoid.V("c"),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "c", Source: monoid.V("customer")},
			&monoid.Generator{Var: "o", Source: monoid.V("orders")},
			&monoid.Pred{Cond: monoid.Lt(monoid.F(monoid.V("c"), "v"), monoid.F(monoid.V("o"), "v"))},
		},
	}
	p := lower(t, c)
	found := false
	var walk func(Plan)
	walk = func(pl Plan) {
		if j, ok := pl.(*Join); ok && j.Theta != nil && len(j.LeftKeys) == 0 {
			found = true
		}
		for _, ch := range pl.Children() {
			walk(ch)
		}
	}
	walk(p)
	if !found {
		t.Fatalf("inequality should become a theta join:\n%s", Explain(p))
	}
}

func TestLowerUnnest(t *testing.T) {
	// bag{ a | p ← customer, a ← p.authors }
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: monoid.V("a"),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "p", Source: monoid.V("customer")},
			&monoid.Generator{Var: "a", Source: monoid.F(monoid.V("p"), "authors")},
		},
	}
	p := lower(t, c)
	r := p.(*Reduce)
	if _, ok := r.Child.(*Unnest); !ok {
		t.Fatalf("want Unnest, got %T:\n%s", r.Child, Explain(p))
	}
}

func TestLowerGroupBySubquery(t *testing.T) {
	// The FD pattern: generator over a groupby comprehension → Nest.
	grouping := &monoid.Comprehension{
		M: monoid.GroupBy{},
		Head: &monoid.RecordCtor{Names: []string{"key", "val"},
			Fields: []monoid.Expr{monoid.F(monoid.V("c"), "address"), monoid.V("c")}},
		Quals: []monoid.Qual{&monoid.Generator{Var: "c", Source: monoid.V("customer")}},
	}
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: monoid.F(monoid.V("g"), "key"),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "g", Source: grouping},
		},
	}
	p := lower(t, c)
	r := p.(*Reduce)
	n, ok := r.Child.(*Nest)
	if !ok {
		t.Fatalf("want Nest, got %T:\n%s", r.Child, Explain(p))
	}
	if n.As != "g" || len(n.Aggs) != 1 || n.Aggs[0].Name != "group" {
		t.Fatalf("nest shape wrong: %s", n)
	}
}

func TestLowerGroupingAtTopLevel(t *testing.T) {
	c := &monoid.Comprehension{
		M: monoid.GroupBy{},
		Head: &monoid.RecordCtor{Names: []string{"key", "val"},
			Fields: []monoid.Expr{monoid.F(monoid.V("c"), "k"), monoid.V("c")}},
		Quals: []monoid.Qual{&monoid.Generator{Var: "c", Source: monoid.V("customer")}},
	}
	p := lower(t, c)
	if _, ok := p.(*Nest); !ok {
		t.Fatalf("grouping comprehension lowers to Nest, got %T", p)
	}
}

func TestLowerUnknownSource(t *testing.T) {
	c := &monoid.Comprehension{
		M:     monoid.Bag,
		Head:  monoid.V("x"),
		Quals: []monoid.Qual{&monoid.Generator{Var: "x", Source: monoid.V("nosuch")}},
	}
	if _, err := testLowerer().Lower(c); err == nil {
		t.Fatal("unknown source should fail lowering")
	}
}

func TestLowerLetBecomesExtend(t *testing.T) {
	inner := &monoid.Comprehension{M: monoid.Sum, Head: monoid.V("y"),
		Quals: []monoid.Qual{&monoid.Generator{Var: "y", Source: monoid.V("orders")}}}
	c := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: &monoid.BinOp{Op: "+", L: monoid.V("t"), R: monoid.V("t")},
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "c", Source: monoid.V("customer")},
			&monoid.Let{Var: "t", E: inner},
		},
	}
	p := lower(t, c)
	found := false
	var walk func(Plan)
	walk = func(pl Plan) {
		if _, ok := pl.(*Extend); ok {
			found = true
		}
		for _, ch := range pl.Children() {
			walk(ch)
		}
	}
	walk(p)
	if !found {
		t.Fatalf("let should lower to Extend:\n%s", Explain(p))
	}
}

func TestRewriterFusesSelects(t *testing.T) {
	scan := &Scan{Source: "customer", Alias: "c"}
	p := &Select{Child: &Select{Child: scan, Pred: monoid.CBool(true)}, Pred: monoid.CBool(true)}
	rw := &Rewriter{}
	out := rw.Rewrite(p)
	s, ok := out.(*Select)
	if !ok {
		t.Fatalf("want Select root, got %T", out)
	}
	if _, ok := s.Child.(*Scan); !ok {
		t.Fatalf("selects not fused:\n%s", Explain(out))
	}
}

// TestSelectFoldsIntoHaving pins the select-into-having rule: a Select
// directly on a Nest folds when it mentions only the Nest's binding, stays
// when it mentions anything else or sits above an Extend, and three guarded
// branches over the same grouping still end on one Nest.
func TestSelectFoldsIntoHaving(t *testing.T) {
	mkNest := func() *Nest {
		return &Nest{
			Child: &Scan{Source: "customer", Alias: "c"},
			Keys:  []monoid.Expr{monoid.F(monoid.V("c"), "address")},
			Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.V("c")}},
			As:    "g",
		}
	}
	size := func(v string) monoid.Expr {
		return &monoid.Call{Fn: "length", Args: []monoid.Expr{monoid.F(monoid.V(v), "group")}}
	}
	guard := monoid.Gt(size("g"), monoid.CInt(1))
	rw := &Rewriter{}

	out := rw.Rewrite(&Select{Child: &Select{Child: mkNest(), Pred: guard}, Pred: monoid.Lt(size("g"), monoid.CInt(9))})
	n, ok := out.(*Nest)
	if !ok || n.Having == nil {
		t.Fatalf("selects over a Nest should fold into Having:\n%s", Explain(out))
	}
	if want := "((length(g.group) > 1) and (length(g.group) < 9))"; n.Having.String() != want {
		t.Fatalf("Having = %s, want %s", n.Having, want)
	}

	other := monoid.Gt(size("g"), monoid.F(monoid.V("d"), "min"))
	if out := rw.Rewrite(&Select{Child: mkNest(), Pred: other}); out.(*Select).Child.(*Nest).Having != nil {
		t.Fatalf("predicate over another binding must not fold:\n%s", Explain(out))
	}

	ext := &Extend{Child: mkNest(), Var: "n", E: size("g")}
	out = rw.Rewrite(&Select{Child: ext, Pred: guard})
	if out.(*Select).Child.(*Extend).Child.(*Nest).Having != nil {
		t.Fatalf("select above an Extend must not fold:\n%s", Explain(out))
	}

	branches := make([]Plan, 3)
	for i, name := range []string{"x", "y", "z"} {
		guarded := &Select{Child: mkNest(), Pred: guard}
		branches[i] = &Unnest{Child: guarded, Path: monoid.F(monoid.V("g"), "group"), As: name}
	}
	shared := rw.RewriteAll(branches)
	if got := CountNodes(shared...); got != 5 { // scan, one guarded nest, 3 unnests
		t.Fatalf("node count = %d, want 5:\n%s", got, Explain(&CombineAll{Inputs: shared, Names: []string{"x", "y", "z"}}))
	}
	if h := shared[0].(*Unnest).Child.(*Nest).Having; h == nil || h.String() != guard.String() {
		t.Fatalf("shared Nest lost its guard: %v", h)
	}
}

func TestShareUnifiesEqualSubplans(t *testing.T) {
	mkNest := func() Plan {
		return &Nest{
			Child: &Scan{Source: "customer", Alias: "c"},
			Keys:  []monoid.Expr{monoid.F(monoid.V("c"), "address")},
			Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.V("c")}},
			As:    "g",
		}
	}
	p1 := &Select{Child: mkNest(), Pred: monoid.CBool(true)}
	p2 := &Select{Child: mkNest(), Pred: monoid.CBool(false)}
	rw := &Rewriter{}
	out := rw.Share([]Plan{p1, p2})
	n1 := out[0].(*Select).Child
	n2 := out[1].(*Select).Child
	if n1 != n2 {
		t.Fatal("equal nests should be unified to one shared node")
	}
	if CountNodes(out...) != 4 { // scan, nest, 2 selects
		t.Fatalf("node count = %d, want 4", CountNodes(out...))
	}
}

func TestShareKeepsDifferentNests(t *testing.T) {
	n1 := &Nest{
		Child: &Scan{Source: "customer", Alias: "c"},
		Keys:  []monoid.Expr{monoid.F(monoid.V("c"), "address")},
		Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.V("c")}},
		As:    "g",
	}
	n2 := &Nest{
		Child: &Scan{Source: "customer", Alias: "c"},
		Keys:  []monoid.Expr{monoid.F(monoid.V("c"), "name")}, // different key
		Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: monoid.V("c")}},
		As:    "g",
	}
	rw := &Rewriter{}
	out := rw.Share([]Plan{n1, n2})
	if out[0] == out[1] {
		t.Fatal("different keys must not be coalesced")
	}
	// But the scan below must still be shared.
	if out[0].(*Nest).Child != out[1].(*Nest).Child {
		t.Fatal("common scan should be shared")
	}
}

func TestUnifiedBuildsCombineAll(t *testing.T) {
	p1 := &Scan{Source: "customer", Alias: "c"}
	p2 := &Scan{Source: "customer", Alias: "c"}
	rw := &Rewriter{}
	u := rw.Unified([]Plan{p1, p2},
		[]monoid.Expr{monoid.V("c"), monoid.V("c")},
		[]string{"a", "b"})
	ca, ok := u.(*CombineAll)
	if !ok {
		t.Fatalf("want CombineAll, got %T", u)
	}
	if ca.Inputs[0] != ca.Inputs[1] {
		t.Fatal("equal inputs should share")
	}
	if got := ca.Binds(); len(got) != 3 || got[0] != "entity" {
		t.Fatalf("binds = %v", got)
	}
}

func TestUnifiedUnsharedKeepsPlansSeparate(t *testing.T) {
	p1 := &Scan{Source: "customer", Alias: "c"}
	p2 := &Scan{Source: "customer", Alias: "c"}
	rw := &Rewriter{}
	u := rw.UnifiedUnshared([]Plan{p1, p2},
		[]monoid.Expr{monoid.V("c"), monoid.V("c")},
		[]string{"a", "b"})
	ca := u.(*CombineAll)
	if ca.Inputs[0] == ca.Inputs[1] {
		t.Fatal("unshared mode must not unify inputs")
	}
}

func TestPlanEqualAndEncode(t *testing.T) {
	a := &Select{Child: &Scan{Source: "s", Alias: "x"}, Pred: monoid.CBool(true)}
	b := &Select{Child: &Scan{Source: "s", Alias: "x"}, Pred: monoid.CBool(true)}
	c := &Select{Child: &Scan{Source: "s", Alias: "y"}, Pred: monoid.CBool(true)}
	if !PlanEqual(a, b) {
		t.Fatal("structurally equal plans should compare equal")
	}
	if PlanEqual(a, c) {
		t.Fatal("different aliases should not compare equal")
	}
	if Encode(a) != Encode(b) || Encode(a) == Encode(c) {
		t.Fatal("Encode must agree with PlanEqual")
	}
}

func TestExplainMarksSharing(t *testing.T) {
	scan := &Scan{Source: "s", Alias: "x"}
	j := &Join{Left: scan, Right: scan}
	out := Explain(j)
	if !strings.Contains(out, "shared node") {
		t.Fatalf("explain should mark shared nodes:\n%s", out)
	}
}

func TestSourcesOf(t *testing.T) {
	p := &Join{
		Left:  &Scan{Source: "b", Alias: "x"},
		Right: &Scan{Source: "a", Alias: "y"},
	}
	got := SourcesOf(p)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SourcesOf = %v", got)
	}
}

func TestBindsPropagation(t *testing.T) {
	scan := &Scan{Source: "s", Alias: "c"}
	un := &Unnest{Child: scan, Path: monoid.F(monoid.V("c"), "xs"), As: "x"}
	if b := un.Binds(); len(b) != 2 || b[0] != "c" || b[1] != "x" {
		t.Fatalf("unnest binds = %v", b)
	}
	ext := &Extend{Child: un, Var: "y", E: monoid.CInt(1)}
	if b := ext.Binds(); len(b) != 3 || b[2] != "y" {
		t.Fatalf("extend binds = %v", b)
	}
	j := &Join{Left: scan, Right: &Scan{Source: "t", Alias: "d"}}
	if b := j.Binds(); len(b) != 2 || b[1] != "d" {
		t.Fatalf("join binds = %v", b)
	}
}
