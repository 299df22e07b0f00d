package core

import (
	"fmt"

	"cleandb/internal/algebra"
	"cleandb/internal/cleaning"
	"cleandb/internal/engine"
	"cleandb/internal/lang"
	"cleandb/internal/monoid"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// RepairSummary reports a completed REPAIR clause: the healed rows plus the
// convergence statistics of the relaxation loop.
type RepairSummary struct {
	// Task names the denial task that requested the repair.
	Task string
	// Source is the repaired catalog dataset; Col the rewritten column.
	Source string
	Col    string
	// Violations counts round-1 violating pairs (as found by the executed
	// detection plan); Changed the values rewritten; Remaining the pairs
	// left after the final round (0 on convergence).
	Violations, Changed, Remaining int64
	// Rounds and Clusters describe the fixpoint loop.
	Rounds, Clusters int
	// Entries lists every value change.
	Entries []cleaning.RepairEntry
	// Rows holds the repaired dataset's records.
	Rows []types.Value
}

// runRepair heals the violations of a denial task: the executed detection
// plan seeds round 1 (seed, when non-nil, is its already-collected output),
// and the cleaning-layer relaxation loop does the rest. When an earlier
// REPAIR clause already healed the same source, the repair starts from those
// healed rows instead — clauses compose — and the plan seed (computed
// against the original data) is discarded in favor of a fresh check. tab is
// the execution's tuple table: the pair members the canonical ordering
// already interned are the tuples the loop starts from.
func (pr *Prepared) runRepair(ex *physical.Executor, tab *types.TupleTable, t *lang.Task, plan algebra.Plan, seed []types.Value, healed map[string]*engine.Dataset, params map[string]types.Value) (*RepairSummary, error) {
	spec := t.Denial
	src, ok := pr.sources[spec.Source]
	if !ok {
		return nil, fmt.Errorf("core: repair source %q not in catalog", spec.Source)
	}
	// The relaxation loop runs outside the plan executor; rebase the source
	// onto the query's job context so its work is metered and cancellable
	// alongside the rest of the query.
	src = src.WithContext(ex.Ctx)
	cfg, err := buildRepairConfig(spec, pr.pipeline.Config.Theta, params)
	if err != nil {
		return nil, err
	}

	if h, ok := healed[spec.Source]; ok {
		src = h
	} else {
		// Seed with the pairs the optimized plan already found — detection
		// ran through the full comprehension→algebra→physical stack; only
		// the fixpoint re-checks go through DCCheck directly.
		if seed == nil {
			d, err := ex.Exec(plan)
			if err != nil {
				return nil, err
			}
			seed = unwrapOut(d.Collect())
		}
		pairs := make([][2]types.Value, len(seed))
		for i, r := range seed {
			pairs[i] = [2]types.Value{r.Field("a"), r.Field("b")}
		}
		cfg.InitialPairs = pairs
	}

	res, err := cleaning.RepairDCIn(tab, src, cfg)
	if err != nil {
		return nil, err
	}
	return &RepairSummary{
		Task:       t.Name,
		Source:     spec.Source,
		Col:        cfg.RepairCol,
		Violations: res.Violations, Changed: res.Changed, Remaining: res.Remaining,
		Rounds: res.Rounds, Clusters: res.Clusters,
		Entries: res.Entries,
		Rows:    res.Repaired.Collect(),
	}, nil
}

// buildRepairConfig compiles the analyzed DENIAL structure into the cleaning
// layer's declarative repair configuration: the REPAIR attribute must appear
// in an inequality conjunct against the second alias (the relaxed predicate),
// and a second same-attribute inequality supplies the fixed tuple order.
func buildRepairConfig(spec *lang.DenialSpec, theta physical.ThetaStrategy, params map[string]types.Value) (cleaning.DCRepairConfig, error) {
	var cfg cleaning.DCRepairConfig
	col, err := repairColumn(spec)
	if err != nil {
		return cfg, err
	}
	comp := monoid.NewCompiler()
	comp.Params = params

	predCE, err := comp.Compile(spec.Pred, map[string]int{spec.Alias: 0, spec.SecondAlias: 1})
	if err != nil {
		return cfg, err
	}
	pred := func(t1, t2 types.Value) bool {
		v, err := predCE([]types.Value{t1, t2})
		return err == nil && v.Bool()
	}

	var leftFilter func(types.Value) bool
	if len(spec.T1Conjuncts) > 0 {
		f := spec.T1Conjuncts[0]
		for _, c := range spec.T1Conjuncts[1:] {
			f = &monoid.BinOp{Op: "and", L: f, R: c}
		}
		ce, err := comp.Compile(f, map[string]int{spec.Alias: 0})
		if err != nil {
			return cfg, err
		}
		leftFilter = func(v types.Value) bool {
			out, err := ce([]types.Value{v})
			return err == nil && out.Bool()
		}
	}

	// Classify the cross conjuncts: per-side inequality comparisons of the
	// same attribute either relax (the repair column) or order (the band).
	var bandExpr monoid.Expr
	var bandOp, repairOp string
	for _, c := range spec.CrossConjuncts {
		t1Expr, op, same := sameAttrInequality(c, spec)
		if t1Expr == nil || !same {
			continue
		}
		if f, ok := t1Expr.(*monoid.Field); ok && f.Name == col {
			if repairOp == "" {
				repairOp = op
			}
			continue
		}
		if bandExpr == nil {
			bandExpr = t1Expr
			bandOp = op
		}
	}
	if repairOp == "" {
		return cfg, fmt.Errorf("core: REPAIR(%s) needs an inequality conjunct comparing %s.%s with %s.%s",
			col, spec.Alias, col, spec.SecondAlias, col)
	}
	if bandExpr == nil {
		return cfg, fmt.Errorf("core: REPAIR needs a second same-attribute inequality conjunct to order tuples")
	}
	bandCE, err := comp.Compile(bandExpr, map[string]int{spec.Alias: 0})
	if err != nil {
		return cfg, err
	}

	cfg = cleaning.DCRepairConfig{
		Check: cleaning.DCConfig{
			LeftFilter: leftFilter,
			Pred:       pred,
			Band: func(v types.Value) float64 {
				out, err := bandCE([]types.Value{v})
				if err != nil {
					return 0
				}
				return out.Float()
			},
			BandOp:   bandOp,
			Strategy: theta,
		},
		RepairAttr: func(v types.Value) float64 { return v.Field(col).Float() },
		RepairCol:  col,
		RepairOp:   repairOp,
	}
	return cfg, nil
}

// repairColumn resolves the REPAIR clause attribute to a writable column: it
// must be a direct field access on one of the two aliases.
func repairColumn(spec *lang.DenialSpec) (string, error) {
	f, ok := spec.RepairAttr.(*monoid.Field)
	if !ok {
		return "", fmt.Errorf("core: REPAIR attribute %s must be a column of %s or %s",
			spec.RepairAttr, spec.Alias, spec.SecondAlias)
	}
	v, ok := f.Rec.(*monoid.Var)
	if !ok || (v.Name != spec.Alias && v.Name != spec.SecondAlias) {
		return "", fmt.Errorf("core: REPAIR attribute %s must be a column of %s or %s",
			spec.RepairAttr, spec.Alias, spec.SecondAlias)
	}
	return f.Name, nil
}

// sameAttrInequality destructures c as t1Side OP t2Side with an inequality
// OP, returning the t1-side expression with OP normalized to t1-first, and
// whether both sides read the same attribute.
func sameAttrInequality(c monoid.Expr, spec *lang.DenialSpec) (t1Expr monoid.Expr, op string, same bool) {
	bo, ok := c.(*monoid.BinOp)
	if !ok {
		return nil, "", false
	}
	switch bo.Op {
	case "<", "<=", ">", ">=":
	default:
		return nil, "", false
	}
	refs := func(e monoid.Expr) (t1, t2 bool) {
		for _, v := range monoid.FreeVars(e) {
			if v == spec.Alias {
				t1 = true
			}
			if v == spec.SecondAlias {
				t2 = true
			}
		}
		return
	}
	l1, l2 := refs(bo.L)
	r1, r2 := refs(bo.R)
	var t2Expr monoid.Expr
	op = bo.Op
	switch {
	case l1 && !l2 && r2 && !r1:
		t1Expr, t2Expr = bo.L, bo.R
	case l2 && !l1 && r1 && !r2:
		t1Expr, t2Expr = bo.R, bo.L
		op = flipIneq(op)
	default:
		return nil, "", false
	}
	lhs := monoid.Substitute(t1Expr, spec.Alias, monoid.V("$x")).String()
	rhs := monoid.Substitute(t2Expr, spec.SecondAlias, monoid.V("$x")).String()
	return t1Expr, op, lhs == rhs
}

func flipIneq(op string) string {
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
