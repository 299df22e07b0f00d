package algebra

import (
	"fmt"
	"sort"
	"strings"

	"cleandb/internal/monoid"
)

// Rewriter applies the algebra-level optimizations of paper §5: selection
// fusion, folding group filters into Nest.Having, common-subplan elimination
// (which realizes both the shared-scan DAG and the Plan B + Plan C → Plan BC
// nest coalescing of Figure 1), and assembly of multi-operation cleaning
// queries into one DAG topped by a full outer join.
type Rewriter struct {
	// Trace, when non-nil, receives a line per applied rewrite.
	Trace func(rule, detail string)
}

func (r *Rewriter) trace(rule, detail string) {
	if r.Trace != nil {
		r.Trace(rule, detail)
	}
}

// Rewrite optimizes a single plan.
func (r *Rewriter) Rewrite(p Plan) Plan {
	p = r.foldSelects(p)
	ps := r.Share([]Plan{p})
	return ps[0]
}

// RewriteAll optimizes a set of root plans together, sharing common
// sub-plans across roots. Two cleaning operations that group the same source
// on the same key collapse onto a single Nest node — the inter-operator work
// sharing the paper demonstrates on the running example.
func (r *Rewriter) RewriteAll(roots []Plan) []Plan {
	out := make([]Plan, len(roots))
	for i, p := range roots {
		out[i] = r.foldSelects(p)
	}
	return r.Share(out)
}

// Unified builds the paper's "Overall Plan": the violation outputs of all
// sub-plans are combined with a full outer join on the entity key, emitting
// entities with at least one violation. Inputs are rewritten together first.
func (r *Rewriter) Unified(roots []Plan, keys []monoid.Expr, names []string) Plan {
	shared := r.RewriteAll(roots)
	return &CombineAll{Inputs: shared, Keys: keys, Names: names}
}

// UnifiedUnshared builds the same combined plan but without cross-plan
// sharing — each operation keeps its own scan and grouping. This models a
// relational optimizer (Spark SQL's Catalyst) that combines cleaning
// operations with an outer join yet cannot detect their common work
// (paper §8.2: unified execution ends up more expensive than standalone).
func (r *Rewriter) UnifiedUnshared(roots []Plan, keys []monoid.Expr, names []string) Plan {
	rewritten := make([]Plan, len(roots))
	for i, p := range roots {
		rewritten[i] = r.foldSelects(p)
	}
	return &CombineAll{Inputs: rewritten, Keys: keys, Names: names}
}

// foldSelects merges adjacent Select nodes into one conjunctive predicate and
// folds a Select that sits directly on a Nest into the Nest's Having when the
// predicate mentions nothing but the Nest's binding: the group filter then
// runs inside the grouping operator, before a group's environment record
// exists, and equal guards on equal Nests still share one node.
func (r *Rewriter) foldSelects(p Plan) Plan {
	rebuilt := rebuildChildren(p, func(c Plan) Plan { return r.foldSelects(c) })
	s, ok := rebuilt.(*Select)
	if !ok {
		return rebuilt
	}
	switch c := s.Child.(type) {
	case *Select:
		r.trace("fuse-select", s.Pred.String())
		return &Select{Child: c.Child, Pred: conjoin(c.Pred, s.Pred)}
	case *Nest:
		if monoid.MentionsOnly(s.Pred, c.As) {
			r.trace("select-into-having", s.Pred.String())
			return &Nest{Child: c.Child, Keys: c.Keys, Aggs: c.Aggs, As: c.As, Having: conjoin(c.Having, s.Pred)}
		}
	}
	return rebuilt
}

// Share performs common-subplan elimination across roots: structurally equal
// sub-plans are unified into one shared node. Because the physical level
// memoizes shared nodes, a Nest that two cleaning operations both need runs
// once (nest coalescing), and equal Scans read their source once (shared
// scan).
func (r *Rewriter) Share(roots []Plan) []Plan {
	memo := map[string]Plan{}
	var rebuild func(p Plan) Plan
	rebuild = func(p Plan) Plan {
		q := rebuildChildren(p, rebuild)
		key := Encode(q)
		if existing, ok := memo[key]; ok {
			if existing != q {
				switch q.(type) {
				case *Nest:
					r.trace("coalesce-nest", q.String())
				case *Scan:
					r.trace("share-scan", q.String())
				default:
					r.trace("share-subplan", q.String())
				}
			}
			return existing
		}
		memo[key] = q
		return q
	}
	out := make([]Plan, len(roots))
	for i, p := range roots {
		out[i] = rebuild(p)
	}
	return out
}

// rebuildChildren clones p with each child passed through f. Nodes without
// children are returned unchanged.
func rebuildChildren(p Plan, f func(Plan) Plan) Plan {
	switch n := p.(type) {
	case *Scan:
		return n
	case *Select:
		c := f(n.Child)
		if c == n.Child {
			return n
		}
		return &Select{Child: c, Pred: n.Pred}
	case *Extend:
		c := f(n.Child)
		if c == n.Child {
			return n
		}
		return &Extend{Child: c, Var: n.Var, E: n.E}
	case *Unnest:
		c := f(n.Child)
		if c == n.Child {
			return n
		}
		return &Unnest{Child: c, Path: n.Path, As: n.As, Outer: n.Outer}
	case *Join:
		l, rt := f(n.Left), f(n.Right)
		if l == n.Left && rt == n.Right {
			return n
		}
		return &Join{Left: l, Right: rt, LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
			Theta: n.Theta, Outer: n.Outer, Residual: n.Residual}
	case *Reduce:
		c := f(n.Child)
		if c == n.Child {
			return n
		}
		return &Reduce{Child: c, M: n.M, Head: n.Head, As: n.As}
	case *Nest:
		c := f(n.Child)
		if c == n.Child {
			return n
		}
		return &Nest{Child: c, Keys: n.Keys, Aggs: n.Aggs, As: n.As, Having: n.Having}
	case *CombineAll:
		inputs := make([]Plan, len(n.Inputs))
		changed := false
		for i, in := range n.Inputs {
			inputs[i] = f(in)
			if inputs[i] != in {
				changed = true
			}
		}
		if !changed {
			return n
		}
		return &CombineAll{Inputs: inputs, Keys: n.Keys, Names: n.Names}
	default:
		return p
	}
}

// Encode renders a canonical string for a plan subtree, used as the
// common-subplan elimination key.
func Encode(p Plan) string {
	var sb strings.Builder
	encodeInto(&sb, p)
	return sb.String()
}

func encodeInto(sb *strings.Builder, p Plan) {
	switch n := p.(type) {
	case *Scan:
		fmt.Fprintf(sb, "scan(%s,%s)", n.Source, n.Alias)
	case *Select:
		fmt.Fprintf(sb, "select(%s,", n.Pred)
		encodeInto(sb, n.Child)
		sb.WriteByte(')')
	case *Extend:
		fmt.Fprintf(sb, "extend(%s,%s,", n.Var, n.E)
		encodeInto(sb, n.Child)
		sb.WriteByte(')')
	case *Unnest:
		fmt.Fprintf(sb, "unnest(%s,%s,%v,", n.Path, n.As, n.Outer)
		encodeInto(sb, n.Child)
		sb.WriteByte(')')
	case *Join:
		sb.WriteString("join(")
		for i := range n.LeftKeys {
			fmt.Fprintf(sb, "%s=%s;", n.LeftKeys[i], n.RightKeys[i])
		}
		if n.Theta != nil {
			fmt.Fprintf(sb, "theta:%s;", n.Theta)
		}
		if n.Residual != nil {
			fmt.Fprintf(sb, "res:%s;", n.Residual)
		}
		fmt.Fprintf(sb, "outer:%v,", n.Outer)
		encodeInto(sb, n.Left)
		sb.WriteByte(',')
		encodeInto(sb, n.Right)
		sb.WriteByte(')')
	case *Reduce:
		fmt.Fprintf(sb, "reduce(%s,%s,%s,", n.M.Name(), n.Head, n.As)
		encodeInto(sb, n.Child)
		sb.WriteByte(')')
	case *Nest:
		sb.WriteString("nest(")
		for _, k := range n.Keys {
			fmt.Fprintf(sb, "%s;", k)
		}
		for _, a := range n.Aggs {
			fmt.Fprintf(sb, "%s=%s/%s;", a.Name, a.M.Name(), a.Val)
		}
		if n.Having != nil {
			fmt.Fprintf(sb, "having:%s;", n.Having)
		}
		fmt.Fprintf(sb, "%s,", n.As)
		encodeInto(sb, n.Child)
		sb.WriteByte(')')
	case *CombineAll:
		sb.WriteString("combine(")
		for i, in := range n.Inputs {
			fmt.Fprintf(sb, "%s:%s:", n.Names[i], n.Keys[i])
			encodeInto(sb, in)
			sb.WriteByte(';')
		}
		sb.WriteByte(')')
	default:
		fmt.Fprintf(sb, "%T", p)
	}
}

// CountNodes returns the number of distinct nodes in the DAG — used by tests
// to assert that sharing actually reduced plan size.
func CountNodes(roots ...Plan) int {
	seen := map[Plan]struct{}{}
	var walk func(p Plan)
	walk = func(p Plan) {
		if _, ok := seen[p]; ok {
			return
		}
		seen[p] = struct{}{}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	for _, p := range roots {
		walk(p)
	}
	return len(seen)
}

// SourcesOf lists the distinct scan sources of a plan, sorted.
func SourcesOf(p Plan) []string {
	set := map[string]struct{}{}
	var walk func(p Plan)
	walk = func(p Plan) {
		if s, ok := p.(*Scan); ok {
			set[s.Source] = struct{}{}
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(p)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
