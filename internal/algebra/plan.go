// Package algebra implements CleanM's second abstraction level: the nested
// relational algebra of Fegaras & Maier (paper Table 1). Normalized monoid
// comprehensions are lowered into DAGs of Scan, Select, Join, Unnest, Nest
// and Reduce operators; the algebraic rewriter then coalesces grouping
// operators that share a child and key (the paper's Plan B + Plan C →
// Plan BC), unifies structurally equal scans into a shared DAG, and fuses
// selections — the inter-operator optimizations of §5.
//
// Runtime convention: every operator produces *environment records* — records
// whose fields are the comprehension variables currently in scope (e.g. after
// scanning customer as c and unnesting tokens as t, rows look like
// {c: ..., t: ...}). Operator expressions reference those variables by name.
package algebra

import (
	"fmt"
	"strings"

	"cleandb/internal/monoid"
)

// Plan is a node of an algebraic plan DAG. Plans are immutable after
// construction; rewrites build new nodes. Nodes may be shared (same pointer
// reachable from several parents) — the physical level executes shared nodes
// once.
type Plan interface {
	fmt.Stringer
	// Binds lists the environment variables the node's output records carry.
	Binds() []string
	// Children returns the input plans.
	Children() []Plan
}

// Scan reads a named source from the catalog, binding each record to Alias.
type Scan struct {
	Source string
	Alias  string
}

// Binds implements Plan.
func (s *Scan) Binds() []string { return []string{s.Alias} }

// Children implements Plan.
func (s *Scan) Children() []Plan { return nil }

// String implements Plan.
func (s *Scan) String() string { return fmt.Sprintf("Scan(%s as %s)", s.Source, s.Alias) }

// Select filters environment records by Pred (σ_p in Table 1).
type Select struct {
	Child Plan
	Pred  monoid.Expr
}

// Binds implements Plan.
func (s *Select) Binds() []string { return s.Child.Binds() }

// Children implements Plan.
func (s *Select) Children() []Plan { return []Plan{s.Child} }

// String implements Plan.
func (s *Select) String() string { return fmt.Sprintf("Select[%s]", s.Pred) }

// Extend adds a computed binding Var := E to every record (a let that
// survived normalization).
type Extend struct {
	Child Plan
	Var   string
	E     monoid.Expr
}

// Binds implements Plan.
func (e *Extend) Binds() []string { return append(append([]string{}, e.Child.Binds()...), e.Var) }

// Children implements Plan.
func (e *Extend) Children() []Plan { return []Plan{e.Child} }

// String implements Plan.
func (e *Extend) String() string { return fmt.Sprintf("Extend[%s := %s]", e.Var, e.E) }

// Join combines two plans (⋈_p in Table 1). When LeftKeys/RightKeys are
// non-empty the join is an equi-join on those expressions; otherwise Theta
// holds the general predicate (nil means cross product). Outer emits
// unmatched left rows with null right bindings.
type Join struct {
	Left, Right Plan
	LeftKeys    []monoid.Expr
	RightKeys   []monoid.Expr
	Theta       monoid.Expr
	Outer       bool
	Residual    monoid.Expr // extra predicate applied after the join
}

// Binds implements Plan.
func (j *Join) Binds() []string {
	return append(append([]string{}, j.Left.Binds()...), j.Right.Binds()...)
}

// Children implements Plan.
func (j *Join) Children() []Plan { return []Plan{j.Left, j.Right} }

// String implements Plan.
func (j *Join) String() string {
	switch {
	case len(j.LeftKeys) > 0:
		ks := make([]string, len(j.LeftKeys))
		for i := range j.LeftKeys {
			ks[i] = j.LeftKeys[i].String() + "=" + j.RightKeys[i].String()
		}
		kind := "EquiJoin"
		if j.Outer {
			kind = "OuterEquiJoin"
		}
		return fmt.Sprintf("%s[%s]", kind, strings.Join(ks, ", "))
	case j.Theta != nil:
		kind := "ThetaJoin"
		if j.Outer {
			kind = "OuterThetaJoin"
		}
		return fmt.Sprintf("%s[%s]", kind, j.Theta)
	default:
		return "CrossJoin"
	}
}

// Unnest iterates the list denoted by Path (an expression over the child's
// bindings) and binds each element to As (µ in Table 1). Outer emits one row
// with a null binding when the list is empty.
type Unnest struct {
	Child Plan
	Path  monoid.Expr
	As    string
	Outer bool
}

// Binds implements Plan.
func (u *Unnest) Binds() []string { return append(append([]string{}, u.Child.Binds()...), u.As) }

// Children implements Plan.
func (u *Unnest) Children() []Plan { return []Plan{u.Child} }

// String implements Plan.
func (u *Unnest) String() string {
	kind := "Unnest"
	if u.Outer {
		kind = "OuterUnnest"
	}
	return fmt.Sprintf("%s[%s as %s]", kind, u.Path, u.As)
}

// Reduce folds the head expression of every input record through monoid M
// (∆ in Table 1). For collection monoids the output is a stream of head
// values bound to As; for primitive monoids it is a single value.
type Reduce struct {
	Child Plan
	M     monoid.Monoid
	Head  monoid.Expr
	As    string
}

// Binds implements Plan.
func (r *Reduce) Binds() []string { return []string{r.As} }

// Children implements Plan.
func (r *Reduce) Children() []Plan { return []Plan{r.Child} }

// String implements Plan.
func (r *Reduce) String() string { return fmt.Sprintf("Reduce[%s/%s]", r.M.Name(), r.Head) }

// Aggregate is one output of a Nest node.
type Aggregate struct {
	// Name is the output binding for this aggregate within the group record.
	Name string
	// M folds the Val expression over the group's members.
	M monoid.Monoid
	// Val is evaluated per member (over the child's bindings).
	Val monoid.Expr
}

// Nest groups the child's records (Γ in Table 1): records are grouped by the
// Key expressions; for each group one record {key: K, aggs...} is emitted,
// bound to As. Having, when non-nil, filters group records (evaluated over
// {As} with fields key and each aggregate name).
//
// A Nest with several Aggregates is the product of the paper's
// nest-coalescing rewrite: Plan B and Plan C of Figure 1 share one grouping
// pass and each reads its own aggregate.
type Nest struct {
	Child  Plan
	Keys   []monoid.Expr
	Aggs   []Aggregate
	As     string
	Having monoid.Expr
}

// Binds implements Plan.
func (n *Nest) Binds() []string { return []string{n.As} }

// Children implements Plan.
func (n *Nest) Children() []Plan { return []Plan{n.Child} }

// String implements Plan.
func (n *Nest) String() string {
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = k.String()
	}
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = fmt.Sprintf("%s=%s/%s", a.Name, a.M.Name(), a.Val)
	}
	s := fmt.Sprintf("Nest[key=(%s); %s]", strings.Join(keys, ","), strings.Join(aggs, ","))
	if n.Having != nil {
		s += fmt.Sprintf(" having %s", n.Having)
	}
	return s
}

// CombineAll full-outer-joins the violation outputs of several cleaning
// sub-plans on an entity key, emitting entities that appear in at least one
// input — the DAG root of the paper's "Overall Plan" in Figure 1.
type CombineAll struct {
	Inputs []Plan
	// Keys[i] extracts the entity key from input i's records.
	Keys []monoid.Expr
	// Names labels each input's contribution in the combined record.
	Names []string
}

// Binds implements Plan.
func (c *CombineAll) Binds() []string { return append([]string{"entity"}, c.Names...) }

// Children implements Plan.
func (c *CombineAll) Children() []Plan { return c.Inputs }

// String implements Plan.
func (c *CombineAll) String() string {
	return fmt.Sprintf("CombineAll[%s]", strings.Join(c.Names, " ⟗ "))
}

// Explain renders the plan DAG as an indented tree, annotating shared nodes.
func Explain(p Plan) string {
	var sb strings.Builder
	seen := map[Plan]int{}
	var walk func(p Plan, depth int)
	walk = func(p Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if id, ok := seen[p]; ok {
			sb.WriteString(fmt.Sprintf("^shared node #%d (%s)\n", id, p.String()))
			return
		}
		seen[p] = len(seen)
		sb.WriteString(p.String())
		sb.WriteByte('\n')
		for _, c := range p.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return sb.String()
}

// ExprEqual reports structural equality of two expressions.
func ExprEqual(a, b monoid.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// PlanEqual reports structural equality of two plans (same operators,
// expressions and sources). Shared-node detection uses it to unify scans.
func PlanEqual(a, b Plan) bool {
	if a == b {
		return true
	}
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	switch x := a.(type) {
	case *Scan:
		y := b.(*Scan)
		return x.Source == y.Source && x.Alias == y.Alias
	case *Select:
		y := b.(*Select)
		return ExprEqual(x.Pred, y.Pred) && PlanEqual(x.Child, y.Child)
	case *Extend:
		y := b.(*Extend)
		return x.Var == y.Var && ExprEqual(x.E, y.E) && PlanEqual(x.Child, y.Child)
	case *Unnest:
		y := b.(*Unnest)
		return x.As == y.As && x.Outer == y.Outer && ExprEqual(x.Path, y.Path) && PlanEqual(x.Child, y.Child)
	case *Join:
		y := b.(*Join)
		if len(x.LeftKeys) != len(y.LeftKeys) || x.Outer != y.Outer {
			return false
		}
		for i := range x.LeftKeys {
			if !ExprEqual(x.LeftKeys[i], y.LeftKeys[i]) || !ExprEqual(x.RightKeys[i], y.RightKeys[i]) {
				return false
			}
		}
		return ExprEqual(x.Theta, y.Theta) && ExprEqual(x.Residual, y.Residual) &&
			PlanEqual(x.Left, y.Left) && PlanEqual(x.Right, y.Right)
	case *Reduce:
		y := b.(*Reduce)
		return x.M.Name() == y.M.Name() && x.As == y.As && ExprEqual(x.Head, y.Head) && PlanEqual(x.Child, y.Child)
	case *Nest:
		y := b.(*Nest)
		if len(x.Keys) != len(y.Keys) || len(x.Aggs) != len(y.Aggs) || x.As != y.As {
			return false
		}
		for i := range x.Keys {
			if !ExprEqual(x.Keys[i], y.Keys[i]) {
				return false
			}
		}
		for i := range x.Aggs {
			if x.Aggs[i].Name != y.Aggs[i].Name || x.Aggs[i].M.Name() != y.Aggs[i].M.Name() || !ExprEqual(x.Aggs[i].Val, y.Aggs[i].Val) {
				return false
			}
		}
		return ExprEqual(x.Having, y.Having) && PlanEqual(x.Child, y.Child)
	case *CombineAll:
		y := b.(*CombineAll)
		if len(x.Inputs) != len(y.Inputs) {
			return false
		}
		for i := range x.Inputs {
			if x.Names[i] != y.Names[i] || !ExprEqual(x.Keys[i], y.Keys[i]) || !PlanEqual(x.Inputs[i], y.Inputs[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
