package monoid

import (
	"testing"

	"cleandb/internal/types"
)

// predGen builds one predicate and its two records from the fuzz input, one
// byte at a time (zeros once it runs dry), and remembers whether the tree
// stayed inside the subset pairAcc specializes.
type predGen struct {
	b           []byte
	specialized bool // no builtin call, no If
	bound       bool // no unbound parameter
}

func (g *predGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// scalar favours the values where the operators' rules meet: null, both
// zeros (division), ints against floats, a numeric-looking string.
func (g *predGen) scalar() types.Value {
	switch g.next() % 8 {
	case 0:
		return types.Null()
	case 1:
		return types.Int(0)
	case 2:
		return types.Int(int64(int8(g.next())))
	case 3:
		return types.Float(0)
	case 4:
		return types.Float(float64(int8(g.next())) / 4)
	case 5:
		return types.Bool(g.next()%2 == 0)
	case 6:
		return types.String([]string{"", "a", "b", "7"}[g.next()%4])
	default:
		return types.Int(int64(g.next()%3) + 1)
	}
}

// fuzzFields are the fields both records carry; fuzzReads adds one that is
// read but missing.
var (
	fuzzFields = []string{"a", "b", "c"}
	fuzzReads  = []string{"a", "b", "c", "z"}
)

func (g *predGen) record() types.Value {
	vs := make([]types.Value, len(fuzzFields))
	for i := range vs {
		vs[i] = g.scalar()
	}
	return types.NewRecord(types.NewSchema(fuzzFields...), vs)
}

func (g *predGen) expr(depth int) Expr {
	kind := g.next() % 12
	if depth == 0 {
		kind %= 4
	}
	side := func() *Var { return V([]string{"l", "r"}[g.next()%2]) }
	switch kind {
	case 0, 1:
		return F(side(), fuzzReads[g.next()%4])
	case 2:
		return &Const{Val: g.scalar()}
	case 3:
		switch g.next() % 8 {
		case 0:
			g.bound = false
			return &Param{Key: "$9"}
		case 1:
			return side() // a whole side as a value
		}
		return &Param{Key: "$1"}
	case 4:
		return &UnOp{Op: []string{"not", "-"}[g.next()%2], E: g.expr(depth - 1)}
	case 5:
		g.specialized = false
		if g.next()%4 == 0 {
			return &Call{Fn: "prefix"} // evaluation error: reads as false
		}
		return &Call{Fn: "prefix", Args: []Expr{g.expr(depth - 1)}}
	case 6:
		g.specialized = false
		return &If{Cond: g.expr(depth - 1), Then: g.expr(depth - 1), Else: g.expr(depth - 1)}
	default:
		ops := []string{"and", "or", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}
		return &BinOp{Op: ops[int(g.next())%len(ops)], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	}
}

// FuzzPairPredMatchesCompile pins the specialized pair compiler to the two
// evaluators it stands in for: over generated predicates and records, the
// specialized closure, Compile over a flat environment and the reference
// Evaluator give one value — under both bindings (names bound to slots of the
// sides' environment records, as the theta join binds them, and to the sides
// themselves, as DENIAL's delta and REPAIR checks do) and with the right side
// absent, the padded half of an outer pair. Outside the specialized subset
// pairAcc must decline and CompilePair's generic path must agree instead.
func FuzzPairPredMatchesCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 4, 0, 0, 0, 0, 1, 1})                          // (l.a < r.b)
	f.Add([]byte{7, 0, 8, 2, 0, 0, 0, 1, 1, 2, 1, 11, 0, 1, 2, 3}) // ((l.a == r.c) and r.a)
	f.Add([]byte{7, 6, 7, 11, 0, 0, 0, 0, 1, 1, 3, 2})             // ((l.a / r.b) > ?1)
	f.Add([]byte{4, 0, 5, 1, 0, 0})                                // not(prefix(l.a))
	f.Add([]byte{7, 2, 5, 0, 0, 0, 0})                             // (prefix() == l.a)
	f.Add([]byte{8, 2, 3, 0, 3, 1, 0})                             // (?9 == l)
	f.Add([]byte{6, 2, 5, 0, 0, 1, 2, 1})                          // if true then r.c else l.a
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &predGen{b: data, specialized: true, bound: true}
		pred := g.expr(4)
		left, right, unused := g.record(), g.record(), g.scalar()
		cp := NewCompiler()
		cp.Params = map[string]types.Value{"$1": g.scalar()}
		ev := &Evaluator{Builtins: cp.Builtins, Params: cp.Params}

		wholeSides := map[string]PairBinding{"l": {Slot: WholeSide}, "r": {Right: true, Slot: WholeSide}}
		envSlots := map[string]PairBinding{"l": {Slot: 1}, "r": {Right: true}}
		leftEnv := types.NewRecord(types.NewSchema("u", "l"), []types.Value{unused, left})
		for _, tc := range []struct {
			name       string
			binds      map[string]PairBinding
			l, r       types.Value // what the pair closure receives
			lVal, rVal types.Value // what the names l and r denote
		}{
			{"whole sides", wholeSides, left, right, left, right},
			{"env slots", envSlots, leftEnv, types.NewRecord(types.NewSchema("r"), []types.Value{right}), left, right},
			{"env slots, padded right", envSlots, leftEnv, types.Null(), left, types.Null()},
		} {
			acc, ok := cp.pairAcc(pred, tc.binds)
			if ok != (g.specialized && g.bound) {
				t.Fatalf("%s: pairAcc(%s) ok = %v, want %v", tc.name, pred, ok, g.specialized && g.bound)
			}
			pair, pairErr := cp.CompilePair(pred, tc.binds)
			ce, err := cp.Compile(pred, map[string]int{"l": 0, "r": 1})
			if (err == nil) != g.bound || (pairErr == nil) != g.bound {
				t.Fatalf("%s: %s: Compile err %v, CompilePair err %v, parameters bound: %v", tc.name, pred, err, pairErr, g.bound)
			}
			if !g.bound {
				continue
			}
			want, wantErr := ce([]types.Value{tc.lVal, tc.rVal})
			ref, refErr := ev.Eval(pred, (*Env)(nil).Bind("l", tc.lVal).Bind("r", tc.rVal))
			if (wantErr == nil) != (refErr == nil) || (wantErr == nil && types.Key(ref) != types.Key(want)) {
				t.Fatalf("%s: %s: Compile gives %s (%v), Evaluator %s (%v)", tc.name, pred, want, wantErr, ref, refErr)
			}
			if ok {
				if wantErr != nil {
					t.Fatalf("%s: %s specialized, yet evaluating it fails: %v", tc.name, pred, wantErr)
				}
				if got := acc(tc.l, tc.r); types.Key(got) != types.Key(want) {
					t.Fatalf("%s: %s: specialized gives %s, Compile %s (l=%s r=%s)", tc.name, pred, got, want, tc.lVal, tc.rVal)
				}
			}
			if got := pair(tc.l, tc.r); got != (wantErr == nil && want.Bool()) {
				t.Fatalf("%s: %s: pair predicate is %v, Compile gives %s (%v)", tc.name, pred, got, want, wantErr)
			}
		}
	})
}
