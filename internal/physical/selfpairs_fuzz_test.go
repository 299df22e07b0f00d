package physical

import (
	"testing"

	"cleandb/internal/algebra"
	"cleandb/internal/engine"
	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

// fuzzMember builds one group member from the fuzz input: scalars, nulls,
// short strings, nested lists and small records. Equal bytes build equal
// values under different pointers.
func fuzzMember(in *[]byte, depth int) types.Value {
	next := func() byte {
		if len(*in) == 0 {
			return 0
		}
		c := (*in)[0]
		*in = (*in)[1:]
		return c
	}
	kind := next() % 6
	if depth == 0 && kind >= 4 {
		kind -= 3
	}
	switch kind {
	case 0:
		return types.Null()
	case 1:
		return types.Int(int64(next() % 4))
	case 2:
		return types.String(string("ab\"(,"[:next()%6]))
	case 3:
		return types.Float(float64(next()%4) / 2)
	case 4:
		vs := make([]types.Value, next()%3)
		for i := range vs {
			vs[i] = fuzzMember(in, depth-1)
		}
		return types.ListOf(vs)
	default:
		return types.NewRecord(types.NewSchema("p", "q"),
			[]types.Value{fuzzMember(in, depth-1), fuzzMember(in, depth-1)})
	}
}

// FuzzSelfPairsMatchesUnnest: for arbitrary small groups — empty, singleton,
// value-identical members under different pointers, nulls, nested lists —
// the fused self-pair stage emits exactly what Unnest∘Unnest∘Select emits,
// element for element and in order, and charges one comparison per candidate
// pair. The reference runs the two Unnests through the executor and applies
// the whole Select predicate (order conjunct included) by hand, so it never
// takes the fused path. Under a random fresh mask (shape bit 3) the fused
// stage emits that output filtered to the pairs with a fresh member, and
// charges only those candidates.
func FuzzSelfPairsMatchesUnnest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{1, 3, 1, 1, 1, 1, 1, 2})             // value-identical ints
	f.Add([]byte{2, 4, 5, 1, 1, 1, 2, 5, 1, 1, 1, 2}) // two equal records
	f.Add([]byte{6, 2, 0, 0, 4, 2, 0, 1, 1, 2, 3, 3, 1, 9, 7, 5, 5, 0, 0, 1, 2, 3})
	f.Add([]byte{8, 1, 2, 5, 1, 0, 1, 1, 1, 2, 1, 3, 1, 1})           // masked: ints 1 and 3 fresh
	f.Add([]byte{9, 0, 1, 3, 1, 1, 1, 1, 1, 2})                       // masked: nothing fresh
	f.Add([]byte{14, 7, 2, 4, 2, 1, 2, 3, 1, 0, 2, 2, 3, 2, 5, 1, 1}) // masked: strings, two groups
	f.Fuzz(func(t *testing.T, in []byte) {
		take := func() byte {
			if len(in) == 0 {
				return 0
			}
			c := in[0]
			in = in[1:]
			return c
		}
		shape := take()
		// The mask: a member is fresh when its key's byte sum falls in a
		// residue class picked by the input.
		var fresh func(key string) bool
		if shape&8 != 0 {
			pick := take()
			fresh = func(key string) bool {
				sum := 0
				for i := 0; i < len(key); i++ {
					sum += int(key[i])
				}
				return pick>>(sum%8)&1 == 1
			}
		}
		groupSchema := types.NewSchema("key", "group")
		var groups []types.Value
		var candidates int64
		for g := int(take() % 6); g > 0; g-- {
			members := make([]types.Value, take()%6)
			old := int64(0)
			for i := range members {
				members[i] = fuzzMember(&in, 2)
				if fresh != nil && !fresh(types.Key(members[i])) {
					old++
				}
			}
			n := int64(len(members))
			candidates += n*(n-1)/2 - old*(old-1)/2
			groups = append(groups, types.NewRecord(groupSchema,
				[]types.Value{types.Int(int64(len(groups) % 3)), types.ListOf(members)}))
		}

		reckey := func(v string) monoid.Expr {
			return &monoid.Call{Fn: "reckey", Args: []monoid.Expr{monoid.V(v)}}
		}
		order := monoid.Lt(reckey("a"), reckey("b"))
		var rest monoid.Expr
		switch shape % 3 {
		case 1:
			rest = &monoid.BinOp{Op: "!=", L: monoid.V("a"), R: monoid.F(monoid.V("g"), "key")}
		case 2:
			rest = &monoid.Call{Fn: "similar", Args: []monoid.Expr{
				monoid.CStr("LD"), reckey("a"), reckey("b"), monoid.C(types.Float(0.5))}}
		}
		pred := monoid.Expr(order)
		if rest != nil && shape&4 == 0 {
			pred = &monoid.BinOp{Op: "and", L: order, R: rest}
		} else if rest != nil {
			pred = &monoid.BinOp{Op: "and", L: rest, R: order}
		}
		path := monoid.F(monoid.V("g"), "group")
		inner := &algebra.Unnest{
			Child: &algebra.Unnest{Child: &algebra.Scan{Source: "groups", Alias: "g"}, Path: path, As: "a"},
			Path:  path, As: "b",
		}
		sel := &algebra.Select{Child: inner, Pred: pred}
		if _, ok := matchSelfPairs(sel); !ok {
			t.Fatalf("shape not recognised: %s", sel)
		}

		newEx := func() (*Executor, *engine.Context) {
			ctx := engine.NewContext(3)
			return NewExecutor(ctx, map[string]*engine.Dataset{"groups": engine.FromValues(ctx, groups)}), ctx
		}
		ex, ctx := newEx()
		ex.SetFreshMask(fresh)
		fused, err := ex.Exec(sel)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Metrics().Comparisons(); got != candidates {
			t.Fatalf("Comparisons = %d, want Σ n(n−1)/2 − old(old−1)/2 = %d", got, candidates)
		}

		ref, _ := newEx()
		envs, err := ref.Exec(inner)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := ref.compile(pred, inner)
		if err != nil {
			t.Fatal(err)
		}
		var want []types.Value
		for _, env := range envs.Collect() {
			if fresh != nil && !fresh(types.Key(env.Field("a"))) && !fresh(types.Key(env.Field("b"))) {
				continue
			}
			if evalEnv(whole, env).Bool() {
				want = append(want, env)
			}
		}
		got := fused.Collect()
		if len(got) != len(want) {
			t.Fatalf("fused stage emitted %d records, Unnest∘Unnest∘Select %d", len(got), len(want))
		}
		for i := range got {
			if g, w := types.Key(got[i]), types.Key(want[i]); g != w {
				t.Fatalf("record %d: fused %s, unfused %s", i, g, w)
			}
		}
	})
}
