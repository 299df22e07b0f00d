package physical

import (
	"cleandb/internal/data"
	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

// Columnar predicate compilation: Select predicates over a single scan
// binding lower onto tight per-column loops instead of a per-row compiled
// expression. Supported shapes are comparisons between a scanned field, a
// literal (or bound parameter) and another scanned field, combined with
// and/or/not. Anything richer — builtin calls, arithmetic, nested records —
// returns no kernel and the Select runs on the row path; the two paths are
// exact equivalents because every fast loop reproduces types.Equal /
// types.Compare null ordering (nulls first) bit for bit.

// bitEval fills out[i] with the truth of a sub-predicate for row i.
type bitEval func(b *data.ColumnBatch, strs []string, out []bool)

// compileBatchKernel compiles pred, written against the single binding bind,
// into a batch filter kernel returning the selected row indices. It returns
// nil when the predicate does not fit the vectorizable subset.
func (ex *Executor) compileBatchKernel(pred monoid.Expr, bind string) func(*data.ColumnBatch) []int32 {
	ev, ok := ex.compileBatchBool(pred, bind)
	if !ok {
		return nil
	}
	return func(b *data.ColumnBatch) []int32 {
		out := make([]bool, b.N)
		ev(b, b.Strings(), out)
		sel := make([]int32, 0, b.N)
		for i, v := range out {
			if v {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}

func (ex *Executor) compileBatchBool(e monoid.Expr, bind string) (bitEval, bool) {
	switch n := e.(type) {
	case *monoid.Const:
		v := n.Val.Bool()
		return func(_ *data.ColumnBatch, _ []string, out []bool) {
			for i := range out {
				out[i] = v
			}
		}, true
	case *monoid.UnOp:
		if n.Op != "not" {
			return nil, false
		}
		inner, ok := ex.compileBatchBool(n.E, bind)
		if !ok {
			return nil, false
		}
		return func(b *data.ColumnBatch, strs []string, out []bool) {
			inner(b, strs, out)
			for i := range out {
				out[i] = !out[i]
			}
		}, true
	case *monoid.BinOp:
		switch n.Op {
		case "and", "or":
			l, ok := ex.compileBatchBool(n.L, bind)
			if !ok {
				return nil, false
			}
			r, ok := ex.compileBatchBool(n.R, bind)
			if !ok {
				return nil, false
			}
			and := n.Op == "and"
			return func(b *data.ColumnBatch, strs []string, out []bool) {
				l(b, strs, out)
				tmp := make([]bool, len(out))
				r(b, strs, tmp)
				if and {
					for i := range out {
						out[i] = out[i] && tmp[i]
					}
				} else {
					for i := range out {
						out[i] = out[i] || tmp[i]
					}
				}
			}, true
		case "==", "!=", "<", "<=", ">", ">=":
			return ex.compileBatchCmp(n, bind)
		}
	}
	return nil, false
}

// batchOperand classifies one side of a comparison: a scanned field (by
// name) or a constant resolved at compile time.
type batchOperand struct {
	field string
	cv    types.Value
	isCol bool
}

func (ex *Executor) batchOperand(e monoid.Expr, bind string) (batchOperand, bool) {
	switch n := e.(type) {
	case *monoid.Const:
		return batchOperand{cv: n.Val}, true
	case *monoid.Param:
		v, ok := ex.compiler.Params[n.Key]
		if !ok {
			return batchOperand{}, false
		}
		return batchOperand{cv: v}, true
	case *monoid.Field:
		v, ok := n.Rec.(*monoid.Var)
		if !ok || v.Name != bind {
			return batchOperand{}, false
		}
		return batchOperand{field: n.Name, isCol: true}, true
	}
	return batchOperand{}, false
}

func (ex *Executor) compileBatchCmp(n *monoid.BinOp, bind string) (bitEval, bool) {
	l, ok := ex.batchOperand(n.L, bind)
	if !ok {
		return nil, false
	}
	r, ok := ex.batchOperand(n.R, bind)
	if !ok {
		return nil, false
	}
	op := n.Op
	switch {
	case l.isCol && !r.isCol:
		return cmpColConst(op, l.field, r.cv, false), true
	case !l.isCol && r.isCol:
		return cmpColConst(op, r.field, l.cv, true), true
	case l.isCol && r.isCol:
		return cmpColCol(op, l.field, r.field), true
	default:
		v := applyCmp(op, l.cv, r.cv)
		return func(_ *data.ColumnBatch, _ []string, out []bool) {
			for i := range out {
				out[i] = v
			}
		}, true
	}
}

// applyCmp is the comparison arm of monoid.ApplyBinOp.
func applyCmp(op string, l, r types.Value) bool {
	switch op {
	case "==":
		return types.Equal(l, r)
	case "!=":
		return !types.Equal(l, r)
	case "<":
		return types.Compare(l, r) < 0
	case "<=":
		return types.Compare(l, r) <= 0
	case ">":
		return types.Compare(l, r) > 0
	default: // ">="
		return types.Compare(l, r) >= 0
	}
}

// cmpColConst compares a column against a constant. rev marks the constant
// as the left operand of the original expression.
func cmpColConst(op, field string, cv types.Value, rev bool) bitEval {
	if rev {
		// c OP x ⇔ x mirror(OP) c: the col-vs-const loops serve both.
		op = monoid.MirrorOp(op)
	}
	return func(b *data.ColumnBatch, strs []string, out []bool) {
		ci := b.Col(field)
		if ci < 0 {
			// Missing field: every row yields Null on that side.
			v := applyCmp(op, types.Null(), cv)
			for i := range out {
				out[i] = v
			}
			return
		}
		col := &b.Cols[ci]
		nullRes := applyCmp(op, types.Null(), cv)
		switch {
		case col.Kind == data.VecStr && cv.Kind() == types.KindString && (op == "==" || op == "!="):
			// Dictionary fast path: string equality is one uint32 compare.
			code, present := b.Dict.Lookup(cv.Str())
			eq := op == "=="
			for i := range out {
				if col.Null(i) {
					out[i] = nullRes
					continue
				}
				out[i] = (present && col.Codes[i] == code) == eq
			}
		case col.Kind == data.VecStr && cv.Kind() == types.KindString:
			cs := cv.Str()
			for i, c := range col.Codes {
				if col.Null(i) {
					out[i] = nullRes
					continue
				}
				out[i] = monoid.CmpOrd(op, stringsCompare(strs[c], cs))
			}
		case col.Kind == data.VecInt && cv.IsNumeric():
			cf := cv.Float()
			for i, x := range col.Ints {
				if col.Null(i) {
					out[i] = nullRes
					continue
				}
				out[i] = cmpFloat(op, float64(x), cf)
			}
		case col.Kind == data.VecFloat && cv.IsNumeric():
			cf := cv.Float()
			for i, x := range col.Floats {
				if col.Null(i) {
					out[i] = nullRes
					continue
				}
				out[i] = cmpFloat(op, x, cf)
			}
		default:
			for i := 0; i < b.N; i++ {
				out[i] = applyCmp(op, col.Value(i, strs), cv)
			}
		}
	}
}

// cmpColCol compares two columns of the same batch row-wise.
func cmpColCol(op, lf, rf string) bitEval {
	return func(b *data.ColumnBatch, strs []string, out []bool) {
		li, ri := b.Col(lf), b.Col(rf)
		if li < 0 || ri < 0 {
			// A missing side is Null for every row; fold through the boxed
			// comparison once per row against the present side.
			for i := 0; i < b.N; i++ {
				out[i] = applyCmp(op, colValueOrNull(b, li, i, strs), colValueOrNull(b, ri, i, strs))
			}
			return
		}
		lc, rc := &b.Cols[li], &b.Cols[ri]
		if lc.Kind == data.VecStr && rc.Kind == data.VecStr && (op == "==" || op == "!=") {
			eq := op == "=="
			for i := range out {
				ln, rn := lc.Null(i), rc.Null(i)
				var m bool
				switch {
				case ln && rn:
					m = true // Equal(Null, Null) is true
				case ln || rn:
					m = false
				default:
					m = lc.Codes[i] == rc.Codes[i]
				}
				out[i] = m == eq
			}
			return
		}
		for i := 0; i < b.N; i++ {
			out[i] = applyCmp(op, lc.Value(i, strs), rc.Value(i, strs))
		}
	}
}

func colValueOrNull(b *data.ColumnBatch, ci, i int, strs []string) types.Value {
	if ci < 0 {
		return types.Null()
	}
	return b.Cols[ci].Value(i, strs)
}

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default: // ">="
		return a >= b
	}
}

// stringsCompare is strings.Compare without the import churn.
func stringsCompare(a, b string) int {
	switch {
	case a == b:
		return 0
	case a < b:
		return -1
	default:
		return 1
	}
}
