package algebra

import (
	"fmt"

	"cleandb/internal/monoid"
)

// UnitSource is the name of the implicit one-record source used to anchor
// generators over constant collections; every physical catalog provides it.
const UnitSource = "$unit"

// Lowerer translates normalized monoid comprehensions into algebraic plans
// (the comprehension→algebra step of paper §5, after Fegaras & Maier).
type Lowerer struct {
	// IsSource reports whether a free variable names a catalog dataset.
	IsSource func(name string) bool
}

// Lower translates the comprehension. The produced plan's root is a Reduce
// (for primitive/collection output monoids) or a Nest (for the grouping
// monoid).
func (l *Lowerer) Lower(c *monoid.Comprehension) (Plan, error) {
	st := &lowerState{l: l}
	if err := st.addQuals(c.Quals); err != nil {
		return nil, err
	}
	if len(st.deferred) > 0 {
		return nil, fmt.Errorf("algebra: predicate %q references unbound variables", st.deferred[0].String())
	}
	if c.M.Name() == (monoid.GroupBy{}).Name() {
		key, val, err := groupHeadParts(c.Head)
		if err != nil {
			return nil, err
		}
		if st.plan == nil {
			return nil, fmt.Errorf("algebra: grouping comprehension without generators")
		}
		return &Nest{
			Child: st.plan,
			Keys:  []monoid.Expr{key},
			Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: val}},
			As:    "g",
		}, nil
	}
	if st.plan == nil {
		// No generators: the comprehension is a scalar — reduce over the
		// unit source so the plan still executes uniformly.
		st.plan = &Scan{Source: UnitSource, Alias: "$u"}
	}
	return &Reduce{Child: st.plan, M: c.M, Head: c.Head, As: "$out"}, nil
}

type lowerState struct {
	l        *Lowerer
	plan     Plan
	bound    map[string]bool
	deferred []monoid.Expr
}

func (st *lowerState) isBoundSet(vars []string, extra string) bool {
	for _, v := range vars {
		if v == extra {
			continue
		}
		if !st.bound[v] {
			return false
		}
	}
	return true
}

func (st *lowerState) addQuals(quals []monoid.Qual) error {
	if st.bound == nil {
		st.bound = map[string]bool{}
	}
	for _, q := range quals {
		switch qq := q.(type) {
		case *monoid.Pred:
			if err := st.addPred(qq.Cond); err != nil {
				return err
			}
		case *monoid.Let:
			if st.plan == nil {
				st.plan = &Scan{Source: UnitSource, Alias: "$u"}
				st.bound["$u"] = true
			}
			st.plan = &Extend{Child: st.plan, Var: qq.Var, E: qq.E}
			st.bound[qq.Var] = true
			st.retryDeferred()
		case *monoid.Generator:
			if err := st.addGenerator(qq); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *lowerState) addPred(cond monoid.Expr) error {
	free := monoid.FreeVars(cond)
	for _, v := range free {
		if !st.bound[v] && !(st.l.IsSource != nil && st.l.IsSource(v)) {
			st.deferred = append(st.deferred, cond)
			return nil
		}
	}
	if st.plan == nil {
		st.plan = &Scan{Source: UnitSource, Alias: "$u"}
		st.bound["$u"] = true
	}
	// A predicate arriving right after a join was formed may be its join
	// condition: attach it to the join instead of filtering the product.
	if j, ok := st.plan.(*Join); ok && st.attachToJoin(j, cond) {
		return nil
	}
	st.plan = &Select{Child: st.plan, Pred: cond}
	return nil
}

// attachToJoin tries to classify cond as a condition of j (an equality pair
// becomes join keys; any other predicate spanning both sides becomes the
// theta/residual condition). It reports whether the predicate was consumed.
func (st *lowerState) attachToJoin(j *Join, cond monoid.Expr) bool {
	leftBinds := map[string]bool{}
	for _, b := range j.Left.Binds() {
		leftBinds[b] = true
	}
	rightBinds := map[string]bool{}
	for _, b := range j.Right.Binds() {
		rightBinds[b] = true
	}
	refsLeft, refsRight := false, false
	for _, v := range monoid.FreeVars(cond) {
		switch {
		case leftBinds[v]:
			refsLeft = true
		case rightBinds[v]:
			refsRight = true
		default:
			return false // references something outside the join
		}
	}
	if !refsLeft || !refsRight {
		return false // one-sided predicate: an ordinary selection
	}
	if bo, ok := cond.(*monoid.BinOp); ok && bo.Op == "==" {
		lRefs := sidesOf(bo.L, leftBinds, rightBinds)
		rRefs := sidesOf(bo.R, leftBinds, rightBinds)
		switch {
		case lRefs == sideLeft && rRefs == sideRight:
			j.LeftKeys = append(j.LeftKeys, bo.L)
			j.RightKeys = append(j.RightKeys, bo.R)
			return true
		case lRefs == sideRight && rRefs == sideLeft:
			j.LeftKeys = append(j.LeftKeys, bo.R)
			j.RightKeys = append(j.RightKeys, bo.L)
			return true
		}
	}
	if len(j.LeftKeys) > 0 {
		j.Residual = conjoin(j.Residual, cond)
	} else {
		j.Theta = conjoin(j.Theta, cond)
	}
	return true
}

type side int

const (
	sideNone side = iota
	sideLeft
	sideRight
	sideBoth
)

func sidesOf(e monoid.Expr, left, right map[string]bool) side {
	s := sideNone
	for _, v := range monoid.FreeVars(e) {
		switch {
		case left[v]:
			if s == sideRight {
				return sideBoth
			}
			s = sideLeft
		case right[v]:
			if s == sideLeft {
				return sideBoth
			}
			s = sideRight
		}
	}
	return s
}

func conjoin(a, b monoid.Expr) monoid.Expr {
	if a == nil {
		return b
	}
	return monoid.And(a, b)
}

// retryDeferred re-attempts deferred predicates after new bindings appear.
func (st *lowerState) retryDeferred() {
	remaining := st.deferred[:0]
	for _, p := range st.deferred {
		ok := true
		for _, v := range monoid.FreeVars(p) {
			if !st.bound[v] {
				ok = false
				break
			}
		}
		if ok {
			st.plan = &Select{Child: st.plan, Pred: p}
		} else {
			remaining = append(remaining, p)
		}
	}
	st.deferred = remaining
}

func (st *lowerState) addGenerator(g *monoid.Generator) error {
	newPlan, dependent, err := st.sourcePlan(g)
	if err != nil {
		return err
	}
	if dependent {
		// The generator's source references current bindings: Unnest.
		st.bound[g.Var] = true
		st.retryDeferred()
		return nil
	}
	if st.plan == nil {
		st.plan = newPlan
		st.bound[g.Var] = true
		st.retryDeferred()
		return nil
	}
	// Independent source: join with the current plan, extracting join
	// conditions from the deferred predicates that become bound now.
	join := &Join{Left: st.plan, Right: newPlan}
	var residuals []monoid.Expr
	remaining := st.deferred[:0]
	for _, p := range st.deferred {
		if !st.isBoundSet(monoid.FreeVars(p), g.Var) {
			remaining = append(remaining, p)
			continue
		}
		if !monoid.Mentions(p, g.Var) {
			remaining = append(remaining, p)
			continue
		}
		if lk, rk, ok := equiParts(p, st.bound, g.Var); ok {
			join.LeftKeys = append(join.LeftKeys, lk)
			join.RightKeys = append(join.RightKeys, rk)
		} else {
			residuals = append(residuals, p)
		}
	}
	st.deferred = remaining
	if len(join.LeftKeys) == 0 && len(residuals) > 0 {
		join.Theta = monoid.AndAll(residuals)
	} else if len(residuals) > 0 {
		join.Residual = monoid.AndAll(residuals)
	}
	st.plan = join
	st.bound[g.Var] = true
	st.retryDeferred()
	return nil
}

// sourcePlan builds the plan for a generator source. dependent=true means the
// source references already-bound variables, so the generator becomes an
// Unnest over the current plan (which sourcePlan installs itself).
func (st *lowerState) sourcePlan(g *monoid.Generator) (p Plan, dependent bool, err error) {
	switch src := g.Source.(type) {
	case *monoid.Var:
		if st.bound[src.Name] {
			// Iterating a bound collection variable: unnest.
			st.ensurePlan()
			st.plan = &Unnest{Child: st.plan, Path: src, As: g.Var}
			return nil, true, nil
		}
		if st.l.IsSource == nil || !st.l.IsSource(src.Name) {
			return nil, false, fmt.Errorf("algebra: unknown source %q", src.Name)
		}
		return &Scan{Source: src.Name, Alias: g.Var}, false, nil
	case *monoid.Comprehension:
		if src.M.Name() == (monoid.GroupBy{}).Name() {
			inner := &lowerState{l: st.l}
			if err := inner.addQuals(src.Quals); err != nil {
				return nil, false, err
			}
			if len(inner.deferred) > 0 {
				return nil, false, fmt.Errorf("algebra: grouping subquery has unbound predicate %q", inner.deferred[0].String())
			}
			key, val, err := groupHeadParts(src.Head)
			if err != nil {
				return nil, false, err
			}
			if inner.plan == nil {
				return nil, false, fmt.Errorf("algebra: grouping subquery without generators")
			}
			return &Nest{
				Child: inner.plan,
				Keys:  []monoid.Expr{key},
				Aggs:  []Aggregate{{Name: "group", M: monoid.Bag, Val: val}},
				As:    g.Var,
			}, false, nil
		}
		// Uncorrelated collection subquery: lower independently.
		correlated := false
		for _, v := range monoid.FreeVars(src) {
			if st.bound[v] {
				correlated = true
				break
			}
		}
		if !correlated {
			sub, err := st.l.Lower(src)
			if err != nil {
				return nil, false, err
			}
			if r, ok := sub.(*Reduce); ok {
				r.As = g.Var
			}
			return sub, false, nil
		}
		// Correlated: evaluate the nested comprehension per record.
		st.ensurePlan()
		st.plan = &Unnest{Child: st.plan, Path: src, As: g.Var}
		return nil, true, nil
	default:
		// Arbitrary expression over bound variables: unnest its value.
		st.ensurePlan()
		st.plan = &Unnest{Child: st.plan, Path: g.Source, As: g.Var}
		return nil, true, nil
	}
}

func (st *lowerState) ensurePlan() {
	if st.plan == nil {
		st.plan = &Scan{Source: UnitSource, Alias: "$u"}
		st.bound["$u"] = true
	}
}

// groupHeadParts destructures the {key, val} head of a grouping comprehension.
func groupHeadParts(head monoid.Expr) (key, val monoid.Expr, err error) {
	rc, ok := head.(*monoid.RecordCtor)
	if !ok {
		return nil, nil, fmt.Errorf("algebra: grouping head must be a {key, val} record, got %s", head)
	}
	for i, n := range rc.Names {
		switch n {
		case "key":
			key = rc.Fields[i]
		case "val":
			val = rc.Fields[i]
		}
	}
	if key == nil || val == nil {
		return nil, nil, fmt.Errorf("algebra: grouping head must provide key and val, got %s", head)
	}
	return key, val, nil
}

// equiParts splits an equality predicate into (leftExpr, rightExpr) where the
// right side references only newVar and the left side only previously bound
// variables.
func equiParts(p monoid.Expr, bound map[string]bool, newVar string) (monoid.Expr, monoid.Expr, bool) {
	bo, ok := p.(*monoid.BinOp)
	if !ok || bo.Op != "==" {
		return nil, nil, false
	}
	refs := func(e monoid.Expr) (old, new bool) {
		for _, v := range monoid.FreeVars(e) {
			if v == newVar {
				new = true
			} else if bound[v] {
				old = true
			}
		}
		return
	}
	lo, ln := refs(bo.L)
	ro, rn := refs(bo.R)
	switch {
	case lo && !ln && rn && !ro:
		return bo.L, bo.R, true
	case ro && !rn && ln && !lo:
		return bo.R, bo.L, true
	default:
		return nil, nil, false
	}
}
