package lang

import (
	"fmt"
	"strings"

	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

// Task is one de-sugared unit of work: a monoid comprehension plus the
// metadata the pipeline needs to combine and execute it.
type Task struct {
	// Name labels the task ("fd1", "dedup2", "query", ...).
	Name string
	// Comp is the task's monoid comprehension (paper §4.4 semantics).
	Comp *monoid.Comprehension
	// EntityKey extracts, from the task's output records (bound to "$out"),
	// the entity key used by the unified outer join.
	EntityKey monoid.Expr
	// Blockers maps generated builtin names to their blocking specs; the
	// pipeline fits and registers them before execution.
	Blockers map[string]BlockerBinding
	// Denial carries the declarative structure of a DENIAL constraint so the
	// pipeline can re-check and (with REPAIR) heal the violations after the
	// detection plan has run.
	Denial *DenialSpec
	// Dedup names what a DEDUP operator reads and blocks with, so the
	// incremental layer can decide whether an append to the source is
	// answerable by a delta pass over the task's plan.
	Dedup *DedupSpec
}

// DedupSpec identifies a DEDUP operator's input and blocking.
type DedupSpec struct {
	// Source is the catalog name of the deduplicated table.
	Source string
	// BlockerFn names the generated blocking builtin; "" when blocking is
	// exact on the attribute value (no builtin involved).
	BlockerFn string
}

// DenialSpec is the analyzed form of a DENIAL(t2, pred) [REPAIR(attr)]
// operator. The violation predicate is split into conjuncts by the aliases
// they reference; the one-sided t1 conjuncts are exactly the filters the
// monoid normalizer pushes below the self join.
type DenialSpec struct {
	// Source is the catalog name of the self-joined table.
	Source string
	// Alias is the t1 role (the FROM alias); SecondAlias is the t2 role.
	Alias, SecondAlias string
	// Pred is the full violation predicate over both aliases.
	Pred monoid.Expr
	// T1Conjuncts reference only the t1 alias (selective filters, including
	// WHERE conjuncts); T2Conjuncts only t2; CrossConjuncts both.
	T1Conjuncts, T2Conjuncts, CrossConjuncts []monoid.Expr
	// RepairAttr is the REPAIR clause attribute; nil for detect-only.
	RepairAttr monoid.Expr
}

// BlockerBinding ties a generated blocking builtin to its technique and to
// the dataset/attribute used to fit it (k-means centers come from the
// dictionary, per the paper's term-validation setup).
type BlockerBinding struct {
	Spec BlockerSpec
	// FitSource is the catalog name of the dataset used to fit the blocker
	// (k-means centers); empty when no fitting is needed.
	FitSource string
	// FitAttr extracts the fit attribute from records of FitSource, with
	// the record bound to "$fit".
	FitAttr monoid.Expr
	// Metric/Theta carry the similarity configuration for reporting.
	Metric string
	Theta  float64
}

// OutVar is the binding name of task outputs (the Reduce operator's As).
const OutVar = "$out"

// Desugarer rewrites parsed queries into monoid comprehensions — the Monoid
// Rewriter box of the paper's Figure 2.
type Desugarer struct {
	counter int
}

// Desugar translates the query into one task per cleaning operator, or a
// single "query" task when the statement is a plain SELECT.
func (d *Desugarer) Desugar(q *Query) ([]Task, error) {
	if len(q.Cleaning) == 0 {
		t, err := d.desugarPlain(q)
		if err != nil {
			return nil, err
		}
		return []Task{*t}, nil
	}
	var tasks []Task
	counts := map[CleaningKind]int{}
	for _, op := range q.Cleaning {
		counts[op.Kind]++
		var (
			t   *Task
			err error
		)
		switch op.Kind {
		case CleanFD:
			t, err = d.desugarFD(q, op, fmt.Sprintf("fd%d", counts[op.Kind]))
		case CleanDedup:
			t, err = d.desugarDedup(q, op, fmt.Sprintf("dedup%d", counts[op.Kind]))
		case CleanClusterBy:
			t, err = d.desugarClusterBy(q, op, fmt.Sprintf("clusterby%d", counts[op.Kind]))
		case CleanDenial:
			t, err = d.desugarDenial(q, op, fmt.Sprintf("denial%d", counts[op.Kind]))
		default:
			err = fmt.Errorf("lang: unknown cleaning kind %v", op.Kind)
		}
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, *t)
	}
	return tasks, nil
}

// aliasOf returns the first free variable of e that is a query alias.
func aliasOf(e monoid.Expr, q *Query) (string, bool) {
	aliases := map[string]bool{}
	for _, f := range q.From {
		aliases[f.Alias] = true
	}
	for _, v := range monoid.FreeVars(e) {
		if aliases[v] {
			return v, true
		}
	}
	return "", false
}

func sourceFor(alias string, q *Query) (string, error) {
	for _, f := range q.From {
		if f.Alias == alias {
			return f.Source, nil
		}
	}
	return "", fmt.Errorf("lang: unknown alias %q", alias)
}

// whereFor returns the WHERE conjuncts that reference only the given alias.
func whereFor(q *Query, alias string) []monoid.Expr {
	if q.Where == nil {
		return nil
	}
	var out []monoid.Expr
	for _, c := range monoid.Conjuncts(q.Where) {
		if monoid.MentionsOnly(c, alias) {
			out = append(out, c)
		}
	}
	return out
}

// tuple renders one expr directly or several as a list value.
func tuple(exprs []monoid.Expr) monoid.Expr {
	if len(exprs) == 1 {
		return exprs[0]
	}
	return &monoid.ListCtor{Elems: exprs}
}

// substAlias rewrites every occurrence of the alias variable to target.
func substAlias(e monoid.Expr, alias string, target monoid.Expr) monoid.Expr {
	return monoid.Substitute(e, alias, target)
}

// groupComp builds groupby{ {key: K, val: <aliasVar>} | alias ← source,
// where..., extraGens... }.
func groupComp(source, alias string, where []monoid.Expr, extraGens []monoid.Qual, key monoid.Expr) *monoid.Comprehension {
	quals := []monoid.Qual{&monoid.Generator{Var: alias, Source: monoid.V(source)}}
	for _, w := range where {
		quals = append(quals, &monoid.Pred{Cond: w})
	}
	quals = append(quals, extraGens...)
	head := &monoid.RecordCtor{Names: []string{"key", "val"}, Fields: []monoid.Expr{key, monoid.V(alias)}}
	return &monoid.Comprehension{M: monoid.GroupBy{}, Head: head, Quals: quals}
}

// groupGuard is the cardinality fact the FD and DEDUP semantics imply, stated
// directly after the grouping generator g: a group can only reach the output
// when it has at least two members. Every FD and DEDUP comprehension carries
// the same guard, so the algebra level folds it into the grouping operator
// (Nest.Having) and still coalesces the operators onto one Nest.
func groupGuard() monoid.Qual {
	size := &monoid.Call{Fn: "length", Args: []monoid.Expr{monoid.F(monoid.V("g"), "group")}}
	return &monoid.Pred{Cond: monoid.Gt(size, monoid.CInt(1))}
}

// desugarFD implements the paper's FD semantics:
//
//	groups := for (c <- data) yield filter(LHS(c)),
//	for (g <- groups, |g| > 1, count(distinct RHS over g) > 1) yield bag g
//
// The |g| > 1 guard is implied, not added: a violation needs two members with
// different right-hand sides, so a group of one can never satisfy
// count(distinct RHS) > 1. Stating it lets the plan drop singleton groups
// inside the grouping operator, before the distinct-RHS set is ever built.
func (d *Desugarer) desugarFD(q *Query, op CleaningOp, name string) (*Task, error) {
	alias, ok := aliasOf(tuple(op.LHS), q)
	if !ok {
		return nil, fmt.Errorf("lang: FD left-hand side references no FROM alias")
	}
	source, err := sourceFor(alias, q)
	if err != nil {
		return nil, err
	}
	grouping := groupComp(source, alias, whereFor(q, alias), nil, tuple(op.LHS))

	// rhsvals := set{ RHS(x) | x ← g.group }
	member := "x"
	rhsOverMember := make([]monoid.Expr, len(op.RHS))
	for i, r := range op.RHS {
		rhsOverMember[i] = substAlias(r, alias, monoid.V(member))
	}
	rhsSet := &monoid.Comprehension{
		M:    monoid.Set,
		Head: tuple(rhsOverMember),
		Quals: []monoid.Qual{
			&monoid.Generator{Var: member, Source: monoid.F(monoid.V("g"), "group")},
		},
	}

	head := &monoid.RecordCtor{
		Names: []string{"key", "values", "group"},
		Fields: []monoid.Expr{
			monoid.F(monoid.V("g"), "key"),
			monoid.V("rhsvals"),
			monoid.F(monoid.V("g"), "group"),
		},
	}
	comp := &monoid.Comprehension{
		M:    monoid.Bag,
		Head: head,
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "g", Source: grouping},
			groupGuard(),
			&monoid.Let{Var: "rhsvals", E: rhsSet},
			&monoid.Pred{Cond: monoid.Gt(&monoid.Call{Fn: "length", Args: []monoid.Expr{monoid.V("rhsvals")}}, monoid.CInt(1))},
		},
	}
	return &Task{
		Name:      name,
		Comp:      comp,
		EntityKey: monoid.F(monoid.V(OutVar), "key"),
	}, nil
}

// desugarDedup implements the paper's DEDUP semantics:
//
//	groups := for (c <- data) yield filter(attrs(c), algo),
//	for (g <- groups, |g| > 1, p1 <- g.partition, p2 <- g.partition,
//	     similar(metric, p1.atts, p2.atts, θ)) yield bag (p1, p2)
//
// The |g| > 1 guard is implied for every blocker: a pair needs two members
// with different record keys (reckey(p1) < reckey(p2) drops the diagonal and
// one mirror of each pair, the similarity being symmetric and reflexive), so
// a block of one yields nothing. It is the same guard FD states, which keeps
// an exact-attribute DEDUP on one shared Nest with the FDs on that attribute.
func (d *Desugarer) desugarDedup(q *Query, op CleaningOp, name string) (*Task, error) {
	if len(op.Attrs) == 0 {
		return nil, fmt.Errorf("lang: DEDUP requires at least one attribute")
	}
	alias, ok := aliasOf(op.Attrs[0], q)
	if !ok {
		return nil, fmt.Errorf("lang: DEDUP attribute references no FROM alias")
	}
	source, err := sourceFor(alias, q)
	if err != nil {
		return nil, err
	}
	metric := op.Metric
	if metric == "" {
		metric = "LD"
	}
	theta := op.Theta
	if theta == 0 {
		theta = 0.8
	}
	thetaExpr := monoid.Expr(monoid.C(floatVal(theta)))
	if op.ThetaExpr != nil {
		thetaExpr = op.ThetaExpr
	}

	// Similarity string: concatenation of all attributes.
	simOf := func(target monoid.Expr) monoid.Expr {
		args := make([]monoid.Expr, len(op.Attrs))
		for i, a := range op.Attrs {
			args[i] = substAlias(a, alias, target)
		}
		if len(args) == 1 {
			return args[0]
		}
		return &monoid.Call{Fn: "concat", Args: args}
	}

	blockKey := op.Attrs[0]
	var extraGens []monoid.Qual
	var key monoid.Expr
	var blockerFn string
	blockers := map[string]BlockerBinding{}
	if strings.EqualFold(op.Blocker.Op, "attribute") || strings.EqualFold(op.Blocker.Op, "exact") {
		// Exact grouping on the attribute: the grouping key is the value
		// itself, which lets the rewriter coalesce this Nest with FD nests
		// on the same attribute (paper Figure 1, plans B+C → BC).
		key = blockKey
	} else {
		fn := d.freshBlocker()
		blockerFn = fn
		blockers[fn] = BlockerBinding{Spec: op.Blocker, FitSource: source, FitAttr: substAlias(blockKey, alias, monoid.V("$fit")), Metric: metric, Theta: theta}
		extraGens = append(extraGens, &monoid.Generator{Var: "t", Source: &monoid.Call{Fn: fn, Args: []monoid.Expr{blockKey}}})
		key = monoid.V("t")
	}
	grouping := groupComp(source, alias, whereFor(q, alias), extraGens, key)

	head := &monoid.RecordCtor{
		Names:  []string{"a", "b"},
		Fields: []monoid.Expr{monoid.V("p1"), monoid.V("p2")},
	}
	comp := &monoid.Comprehension{
		M:    monoid.Set, // set semantics: pairs found in several blocks report once
		Head: head,
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "g", Source: grouping},
			groupGuard(),
			&monoid.Generator{Var: "p1", Source: monoid.F(monoid.V("g"), "group")},
			&monoid.Generator{Var: "p2", Source: monoid.F(monoid.V("g"), "group")},
			&monoid.Pred{Cond: monoid.Lt(
				&monoid.Call{Fn: "reckey", Args: []monoid.Expr{monoid.V("p1")}},
				&monoid.Call{Fn: "reckey", Args: []monoid.Expr{monoid.V("p2")}})},
			&monoid.Pred{Cond: &monoid.Call{Fn: "similar", Args: []monoid.Expr{
				monoid.CStr(metric), simOf(monoid.V("p1")), simOf(monoid.V("p2")), thetaExpr}}},
		},
	}
	return &Task{
		Name:      name,
		Comp:      comp,
		EntityKey: substAlias(op.Attrs[0], alias, monoid.F(monoid.V(OutVar), "a")),
		Blockers:  blockers,
		Dedup:     &DedupSpec{Source: source, BlockerFn: blockerFn},
	}, nil
}

// desugarClusterBy implements the paper's CLUSTER BY (term validation)
// semantics: both the data and the dictionary are blocked with the same
// technique, blocks with equal keys are joined, and similar (term,
// dictionary term) pairs are reported as suggested repairs.
func (d *Desugarer) desugarClusterBy(q *Query, op CleaningOp, name string) (*Task, error) {
	term := op.Attrs[0]
	alias, ok := aliasOf(term, q)
	if !ok {
		return nil, fmt.Errorf("lang: CLUSTER BY term references no FROM alias")
	}
	source, err := sourceFor(alias, q)
	if err != nil {
		return nil, err
	}
	// The dictionary is the FROM entry that the term does not reference; a
	// second attr expression may override the dictionary term attribute.
	var dictAlias, dictSource string
	for _, f := range q.From {
		if f.Alias != alias {
			dictAlias, dictSource = f.Alias, f.Source
			break
		}
	}
	if dictAlias == "" {
		return nil, fmt.Errorf("lang: CLUSTER BY requires a dictionary table in FROM")
	}
	var dictTerm monoid.Expr = monoid.F(monoid.V(dictAlias), "term")
	if len(op.Attrs) >= 2 {
		dictTerm = op.Attrs[1]
	}
	metric := op.Metric
	if metric == "" {
		metric = "LD"
	}
	theta := op.Theta
	if theta == 0 {
		theta = 0.8
	}
	thetaExpr := monoid.Expr(monoid.C(floatVal(theta)))
	if op.ThetaExpr != nil {
		thetaExpr = op.ThetaExpr
	}

	fn := d.freshBlocker()
	blockers := map[string]BlockerBinding{fn: {
		Spec:      op.Blocker,
		FitSource: dictSource,
		FitAttr:   substAlias(dictTerm, dictAlias, monoid.V("$fit")),
		Metric:    metric,
		Theta:     theta,
	}}

	dataGroup := groupComp(source, alias, whereFor(q, alias),
		[]monoid.Qual{&monoid.Generator{Var: "t", Source: &monoid.Call{Fn: fn, Args: []monoid.Expr{term}}}},
		monoid.V("t"))
	dictGroup := groupComp(dictSource, dictAlias, whereFor(q, dictAlias),
		[]monoid.Qual{&monoid.Generator{Var: "t2", Source: &monoid.Call{Fn: fn, Args: []monoid.Expr{dictTerm}}}},
		monoid.V("t2"))

	termOf := func(target monoid.Expr) monoid.Expr { return substAlias(term, alias, target) }
	dictTermOf := func(target monoid.Expr) monoid.Expr { return substAlias(dictTerm, dictAlias, target) }

	head := &monoid.RecordCtor{
		Names:  []string{"term", "suggestion"},
		Fields: []monoid.Expr{termOf(monoid.V("d1")), dictTermOf(monoid.V("d2"))},
	}
	comp := &monoid.Comprehension{
		M:    monoid.Set,
		Head: head,
		Quals: []monoid.Qual{
			&monoid.Generator{Var: "g1", Source: dataGroup},
			&monoid.Generator{Var: "g2", Source: dictGroup},
			&monoid.Pred{Cond: monoid.Eq(monoid.F(monoid.V("g1"), "key"), monoid.F(monoid.V("g2"), "key"))},
			&monoid.Generator{Var: "d1", Source: monoid.F(monoid.V("g1"), "group")},
			&monoid.Generator{Var: "d2", Source: monoid.F(monoid.V("g2"), "group")},
			&monoid.Pred{Cond: &monoid.BinOp{Op: "!=", L: termOf(monoid.V("d1")), R: dictTermOf(monoid.V("d2"))}},
			&monoid.Pred{Cond: &monoid.Call{Fn: "similar", Args: []monoid.Expr{
				monoid.CStr(metric), termOf(monoid.V("d1")), dictTermOf(monoid.V("d2")), thetaExpr}}},
		},
	}
	return &Task{
		Name:      name,
		Comp:      comp,
		EntityKey: monoid.F(monoid.V(OutVar), "term"),
		Blockers:  blockers,
	}, nil
}

// desugarDenial implements the general denial constraint ¬∃t1,t2 pred as a
// self-join comprehension:
//
//	bag{ {a: t1, b: t2} | t1 ← data, σ_t1..., t2 ← data, pred_rest... }
//
// The predicate is split into conjuncts; those referencing only the t1 alias
// are emitted before the second generator, which is the comprehension-level
// form of the paper's filter pushdown — lowering turns them into a Select
// below the theta self join, and the physical level derives band statistics
// from the cross conjuncts (§6).
func (d *Desugarer) desugarDenial(q *Query, op CleaningOp, name string) (*Task, error) {
	if op.Pred == nil {
		return nil, fmt.Errorf("lang: DENIAL requires a violation predicate")
	}
	aliases := map[string]bool{}
	for _, f := range q.From {
		aliases[f.Alias] = true
	}
	if aliases[op.SecondAlias] {
		return nil, fmt.Errorf("lang: DENIAL second alias %q collides with a FROM alias", op.SecondAlias)
	}
	var alias string
	for _, v := range monoid.FreeVars(op.Pred) {
		switch {
		case v == op.SecondAlias:
		case aliases[v]:
			if alias == "" {
				alias = v
			} else if alias != v {
				return nil, fmt.Errorf("lang: DENIAL predicate references two FROM aliases (%s, %s)", alias, v)
			}
		default:
			return nil, fmt.Errorf("lang: DENIAL predicate references unknown name %q", v)
		}
	}
	if alias == "" {
		return nil, fmt.Errorf("lang: DENIAL predicate references no FROM alias")
	}
	source, err := sourceFor(alias, q)
	if err != nil {
		return nil, err
	}

	spec := &DenialSpec{
		Source: source, Alias: alias, SecondAlias: op.SecondAlias,
		Pred: op.Pred, RepairAttr: op.RepairAttr,
		T1Conjuncts: whereFor(q, alias),
	}
	for _, c := range monoid.Conjuncts(op.Pred) {
		refsT1, refsT2 := monoid.Mentions(c, alias), monoid.Mentions(c, op.SecondAlias)
		switch {
		case refsT1 && refsT2:
			spec.CrossConjuncts = append(spec.CrossConjuncts, c)
		case refsT2:
			spec.T2Conjuncts = append(spec.T2Conjuncts, c)
		default:
			spec.T1Conjuncts = append(spec.T1Conjuncts, c)
		}
	}

	quals := []monoid.Qual{&monoid.Generator{Var: alias, Source: monoid.V(source)}}
	for _, c := range spec.T1Conjuncts {
		quals = append(quals, &monoid.Pred{Cond: c})
	}
	quals = append(quals, &monoid.Generator{Var: op.SecondAlias, Source: monoid.V(source)})
	for _, c := range spec.CrossConjuncts {
		quals = append(quals, &monoid.Pred{Cond: c})
	}
	for _, c := range spec.T2Conjuncts {
		quals = append(quals, &monoid.Pred{Cond: c})
	}
	head := &monoid.RecordCtor{
		Names:  []string{"a", "b"},
		Fields: []monoid.Expr{monoid.V(alias), monoid.V(op.SecondAlias)},
	}
	comp := &monoid.Comprehension{M: monoid.Bag, Head: head, Quals: quals}
	return &Task{
		Name:      name,
		Comp:      comp,
		EntityKey: monoid.F(monoid.V(OutVar), "a"),
		Denial:    spec,
	}, nil
}

// desugarPlain translates a SELECT without cleaning operators:
// bag{ head | a1 ← src1, ..., where } with optional grouping.
func (d *Desugarer) desugarPlain(q *Query) (*Task, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("lang: query requires a FROM clause")
	}
	var quals []monoid.Qual
	for _, f := range q.From {
		quals = append(quals, &monoid.Generator{Var: f.Alias, Source: monoid.V(f.Source)})
	}
	if q.Where != nil {
		quals = append(quals, &monoid.Pred{Cond: q.Where})
	}

	m := monoid.Bag
	if q.Distinct {
		m = monoid.Set
	}

	if len(q.GroupBy) > 0 {
		return d.desugarGrouped(q, quals, m)
	}

	head, err := d.plainHead(q)
	if err != nil {
		return nil, err
	}
	comp := &monoid.Comprehension{M: m, Head: head, Quals: quals}
	return &Task{Name: "query", Comp: comp, EntityKey: monoid.V(OutVar)}, nil
}

// plainHead builds the projection record for a non-grouped SELECT.
func (d *Desugarer) plainHead(q *Query) (monoid.Expr, error) {
	if q.Star && len(q.Select) == 0 {
		if len(q.From) == 1 {
			return monoid.V(q.From[0].Alias), nil
		}
		names := make([]string, len(q.From))
		fields := make([]monoid.Expr, len(q.From))
		for i, f := range q.From {
			names[i] = f.Alias
			fields[i] = monoid.V(f.Alias)
		}
		return &monoid.RecordCtor{Names: names, Fields: fields}, nil
	}
	names := make([]string, 0, len(q.Select)+1)
	fields := make([]monoid.Expr, 0, len(q.Select)+1)
	for i, item := range q.Select {
		name := item.Alias
		if name == "" {
			name = defaultName(item.Expr, i)
		}
		names = append(names, name)
		fields = append(fields, item.Expr)
	}
	if q.Star {
		for _, f := range q.From {
			names = append(names, f.Alias)
			fields = append(fields, monoid.V(f.Alias))
		}
	}
	return &monoid.RecordCtor{Names: names, Fields: fields}, nil
}

// desugarGrouped builds the two-level comprehension for GROUP BY queries:
// group with the groupby monoid, then compute aggregates per group.
func (d *Desugarer) desugarGrouped(q *Query, quals []monoid.Qual, m monoid.Monoid) (*Task, error) {
	// Collect the full environment per row so aggregate arguments can be
	// evaluated per member.
	envNames := make([]string, len(q.From))
	envFields := make([]monoid.Expr, len(q.From))
	for i, f := range q.From {
		envNames[i] = f.Alias
		envFields[i] = monoid.V(f.Alias)
	}
	valExpr := monoid.Expr(&monoid.RecordCtor{Names: envNames, Fields: envFields})
	if len(q.From) == 1 {
		valExpr = monoid.V(q.From[0].Alias)
	}
	gHead := &monoid.RecordCtor{Names: []string{"key", "val"}, Fields: []monoid.Expr{tuple(q.GroupBy), valExpr}}
	grouping := &monoid.Comprehension{M: monoid.GroupBy{}, Head: gHead, Quals: quals}

	memberFor := func(e monoid.Expr) monoid.Expr {
		out := e
		if len(q.From) == 1 {
			out = substAlias(out, q.From[0].Alias, monoid.V("m"))
		} else {
			for _, f := range q.From {
				out = substAlias(out, f.Alias, monoid.F(monoid.V("m"), f.Alias))
			}
		}
		return out
	}

	rewriteAggs := func(e monoid.Expr) monoid.Expr { return rewriteAggregates(e, memberFor) }

	names := make([]string, 0, len(q.Select))
	fields := make([]monoid.Expr, 0, len(q.Select))
	for i, item := range q.Select {
		name := item.Alias
		if name == "" {
			name = defaultName(item.Expr, i)
		}
		names = append(names, name)
		// Group keys referenced directly map to g.key components.
		fields = append(fields, rewriteAggs(replaceGroupKeys(item.Expr, q.GroupBy)))
	}
	head := &monoid.RecordCtor{Names: names, Fields: fields}

	outQuals := []monoid.Qual{&monoid.Generator{Var: "g", Source: grouping}}
	if q.Having != nil {
		outQuals = append(outQuals, &monoid.Pred{Cond: rewriteAggs(replaceGroupKeys(q.Having, q.GroupBy))})
	}
	comp := &monoid.Comprehension{M: m, Head: head, Quals: outQuals}
	return &Task{Name: "query", Comp: comp, EntityKey: monoid.V(OutVar)}, nil
}

// replaceGroupKeys substitutes occurrences of grouping expressions with the
// group key reference.
func replaceGroupKeys(e monoid.Expr, keys []monoid.Expr) monoid.Expr {
	if len(keys) == 1 {
		if e.String() == keys[0].String() {
			return monoid.F(monoid.V("g"), "key")
		}
	} else {
		for i, k := range keys {
			if e.String() == k.String() {
				return &monoid.Call{Fn: "index", Args: []monoid.Expr{monoid.F(monoid.V("g"), "key"), monoid.CInt(int64(i))}}
			}
		}
	}
	switch n := e.(type) {
	case *monoid.BinOp:
		return &monoid.BinOp{Op: n.Op, L: replaceGroupKeys(n.L, keys), R: replaceGroupKeys(n.R, keys)}
	case *monoid.UnOp:
		return &monoid.UnOp{Op: n.Op, E: replaceGroupKeys(n.E, keys)}
	case *monoid.Call:
		// Do not descend into aggregate calls; their arguments are member
		// expressions handled by rewriteAggregates.
		if isAggregate(n.Fn) {
			return n
		}
		args := make([]monoid.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = replaceGroupKeys(a, keys)
		}
		return &monoid.Call{Fn: n.Fn, Args: args}
	default:
		return e
	}
}

func isAggregate(fn string) bool {
	switch fn {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// rewriteAggregates replaces aggregate calls with comprehensions over the
// group members: sum(x) → sum{ x(m) | m ← g.group }.
func rewriteAggregates(e monoid.Expr, memberFor func(monoid.Expr) monoid.Expr) monoid.Expr {
	switch n := e.(type) {
	case *monoid.Call:
		if isAggregate(n.Fn) {
			arg := monoid.Expr(monoid.CInt(1))
			if len(n.Args) == 1 {
				arg = memberFor(n.Args[0])
			}
			gen := &monoid.Generator{Var: "m", Source: monoid.F(monoid.V("g"), "group")}
			switch n.Fn {
			case "count":
				return &monoid.Comprehension{M: monoid.Count, Head: arg, Quals: []monoid.Qual{gen}}
			case "sum":
				return &monoid.Comprehension{M: monoid.Sum, Head: arg, Quals: []monoid.Qual{gen}}
			case "min":
				return &monoid.Comprehension{M: monoid.Min, Head: arg, Quals: []monoid.Qual{gen}}
			case "max":
				return &monoid.Comprehension{M: monoid.Max, Head: arg, Quals: []monoid.Qual{gen}}
			case "avg":
				sum := &monoid.Comprehension{M: monoid.Sum, Head: arg, Quals: []monoid.Qual{gen}}
				cnt := &monoid.Comprehension{M: monoid.Count, Head: monoid.CInt(1), Quals: []monoid.Qual{
					&monoid.Generator{Var: "m", Source: monoid.F(monoid.V("g"), "group")}}}
				return &monoid.BinOp{Op: "/", L: &monoid.BinOp{Op: "*", L: sum, R: monoid.C(floatVal(1.0))}, R: cnt}
			}
		}
		args := make([]monoid.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewriteAggregates(a, memberFor)
		}
		return &monoid.Call{Fn: n.Fn, Args: args}
	case *monoid.BinOp:
		return &monoid.BinOp{Op: n.Op, L: rewriteAggregates(n.L, memberFor), R: rewriteAggregates(n.R, memberFor)}
	case *monoid.UnOp:
		return &monoid.UnOp{Op: n.Op, E: rewriteAggregates(n.E, memberFor)}
	default:
		return e
	}
}

func defaultName(e monoid.Expr, i int) string {
	if f, ok := e.(*monoid.Field); ok {
		return f.Name
	}
	if v, ok := e.(*monoid.Var); ok {
		return v.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

func (d *Desugarer) freshBlocker() string {
	d.counter++
	return fmt.Sprintf("__block_%d", d.counter)
}

func floatVal(f float64) types.Value { return types.Float(f) }
