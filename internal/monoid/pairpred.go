package monoid

import "cleandb/internal/types"

// Pair predicates run once per candidate pair — the innermost loop of the
// theta join, the append delta and the REPAIR re-check. Compile's closures
// take a slot environment, which would cost an argument slice per pair and an
// error-returning tree walk; this file specializes the common predicate
// shapes (comparisons and arithmetic over the two sides' fields,
// conjunctions, disjunctions, negation) into a direct closure over the two
// sides with zero per-pair allocation. Semantics are exactly Compile's:
// comparisons via types.Equal/types.Compare, arithmetic via ApplyBinOp;
// evaluation errors never arise because parameters resolve at compile time
// and the supported node set is error-free.

// PairBinding says where a variable of a two-sided predicate lives at run
// time: on the left or right value of the pair, as that value itself
// (Slot == WholeSide) or as field Slot of that side's environment record.
type PairBinding struct {
	Right bool
	Slot  int
}

// WholeSide is the PairBinding.Slot of a variable bound to a side's value
// itself rather than to one field of an environment record.
const WholeSide = -1

// pairAcc evaluates a sub-expression against the left and right values.
type pairAcc func(l, r types.Value) types.Value

// CompilePair compiles pred over the two sides of a candidate pair. Shapes
// inside the specialized subset get the allocation-free closure; anything
// else (builtin calls, comprehensions, record construction) is compiled by
// Compile over an environment gathered from the bindings per pair, with an
// evaluation error reading as false.
func (cp *Compiler) CompilePair(pred Expr, binds map[string]PairBinding) (func(l, r types.Value) bool, error) {
	if acc, ok := cp.pairAcc(pred, binds); ok {
		return func(l, r types.Value) bool { return acc(l, r).Bool() }, nil
	}
	vars := make(map[string]int, len(binds))
	reads := make([]pairAcc, 0, len(binds))
	for name, b := range binds {
		vars[name] = len(reads)
		reads = append(reads, bindingAcc(b))
	}
	ce, err := cp.Compile(pred, vars)
	if err != nil {
		return nil, err
	}
	return func(l, r types.Value) bool {
		env := make([]types.Value, len(reads))
		for i, read := range reads {
			env[i] = read(l, r)
		}
		v, err := ce(env)
		return err == nil && v.Bool()
	}, nil
}

// pairAcc specializes e, reporting ok=false when it falls outside the
// supported subset.
func (cp *Compiler) pairAcc(e Expr, binds map[string]PairBinding) (pairAcc, bool) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(_, _ types.Value) types.Value { return v }, true
	case *Param:
		v, ok := cp.Params[n.Key]
		if !ok {
			return nil, false
		}
		return func(_, _ types.Value) types.Value { return v }, true
	case *Var:
		b, ok := binds[n.Name]
		if !ok {
			return nil, false
		}
		return bindingAcc(b), true
	case *Field:
		// The hot shape is side.field: resolve the binding once, look the
		// field up on the bound record per pair.
		inner, ok := cp.pairAcc(n.Rec, binds)
		if !ok {
			return nil, false
		}
		name := n.Name
		return func(l, r types.Value) types.Value { return inner(l, r).Field(name) }, true
	case *UnOp:
		inner, ok := cp.pairAcc(n.E, binds)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "not":
			return func(l, r types.Value) types.Value { return types.Bool(!inner(l, r).Bool()) }, true
		case "-":
			return func(l, r types.Value) types.Value {
				v := inner(l, r)
				if v.Kind() == types.KindFloat {
					return types.Float(-v.Float())
				}
				return types.Int(-v.Int())
			}, true
		}
		return nil, false
	case *BinOp:
		return cp.pairBinOp(n, binds)
	}
	return nil, false
}

func (cp *Compiler) pairBinOp(n *BinOp, binds map[string]PairBinding) (pairAcc, bool) {
	la, ok := cp.pairAcc(n.L, binds)
	if !ok {
		return nil, false
	}
	ra, ok := cp.pairAcc(n.R, binds)
	if !ok {
		return nil, false
	}
	switch n.Op {
	case "and":
		return func(l, r types.Value) types.Value {
			if !la(l, r).Bool() {
				return types.Bool(false)
			}
			return types.Bool(ra(l, r).Bool())
		}, true
	case "or":
		return func(l, r types.Value) types.Value {
			if la(l, r).Bool() {
				return types.Bool(true)
			}
			return types.Bool(ra(l, r).Bool())
		}, true
	case "==":
		return func(l, r types.Value) types.Value {
			return types.Bool(types.Equal(la(l, r), ra(l, r)))
		}, true
	case "!=":
		return func(l, r types.Value) types.Value {
			return types.Bool(!types.Equal(la(l, r), ra(l, r)))
		}, true
	case "<", "<=", ">", ">=":
		op := n.Op
		return func(l, r types.Value) types.Value {
			return types.Bool(CmpOrd(op, types.Compare(la(l, r), ra(l, r))))
		}, true
	case "+", "-", "*", "/", "%":
		op := n.Op
		return func(l, r types.Value) types.Value {
			v, err := ApplyBinOp(op, la(l, r), ra(l, r))
			if err != nil {
				return types.Null()
			}
			return v
		}, true
	}
	return nil, false
}

// bindingAcc reads one binding off its side of the pair. For an
// environment-record slot, a nil record (the padded side of an outer pair)
// yields Null, matching the generic path's null padding.
func bindingAcc(b PairBinding) pairAcc {
	slot, right := b.Slot, b.Right
	if slot == WholeSide {
		if right {
			return func(_, r types.Value) types.Value { return r }
		}
		return func(l, _ types.Value) types.Value { return l }
	}
	return func(l, r types.Value) types.Value {
		side := l
		if right {
			side = r
		}
		rec := side.Record()
		if rec == nil || slot >= len(rec.Fields) {
			return types.Null()
		}
		return rec.Fields[slot]
	}
}

// CmpOrd applies a comparison operator to a three-way comparison result.
func CmpOrd(op string, c int) bool {
	switch op {
	case "==":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}
