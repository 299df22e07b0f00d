package monoid

import "slices"

// Expression-shape helpers: the one place that knows how a predicate splits
// into conjuncts, folds back, and how an inequality between two sides of a
// pair is recognized and mirrored. The desugarer's DENIAL analysis, the theta
// join's band derivation, the columnar filter compiler and the delta
// enumerator all read predicates through these.

// Conjuncts splits e at its top-level ands, left to right.
func Conjuncts(e Expr) []Expr {
	if bo, ok := e.(*BinOp); ok && bo.Op == "and" {
		return append(Conjuncts(bo.L), Conjuncts(bo.R)...)
	}
	return []Expr{e}
}

// AndAll folds conjuncts back into one left-nested conjunction; nil when
// there are none.
func AndAll(cs []Expr) Expr {
	if len(cs) == 0 {
		return nil
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = And(out, c)
	}
	return out
}

// MirrorOp swaps the operands of a comparison: `a op b` holds iff
// `b MirrorOp(op) a`. Equality and inequality are their own mirrors.
func MirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// Mentions reports whether any of names occurs free in e.
func Mentions(e Expr, names ...string) bool {
	for _, v := range FreeVars(e) {
		if slices.Contains(names, v) {
			return true
		}
	}
	return false
}

// MentionsOnly reports whether every free variable of e is name.
func MentionsOnly(e Expr, name string) bool {
	for _, v := range FreeVars(e) {
		if v != name {
			return false
		}
	}
	return true
}

// CrossInequality destructures c as `l OP r` with OP one of < <= > >=, l
// mentioning left names only and r right names only. The operands may be
// written in either order; op comes back mirrored to left-first. ok is false
// for every other shape.
func CrossInequality(c Expr, left, right []string) (l, r Expr, op string, ok bool) {
	bo, isBin := c.(*BinOp)
	if !isBin {
		return nil, nil, "", false
	}
	switch bo.Op {
	case "<", "<=", ">", ">=":
	default:
		return nil, nil, "", false
	}
	ll, lr := Mentions(bo.L, left...), Mentions(bo.L, right...)
	rl, rr := Mentions(bo.R, left...), Mentions(bo.R, right...)
	switch {
	case ll && !lr && rr && !rl:
		return bo.L, bo.R, bo.Op, true
	case lr && !ll && rl && !rr:
		return bo.R, bo.L, MirrorOp(bo.Op), true
	}
	return nil, nil, "", false
}
