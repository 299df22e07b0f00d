package core

import (
	"fmt"
	"math"

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
		// ran through the full comprehension→algebra→physical stack (or, for
		// a delta-served execution, the cached view plus a delta pass); the
		// fixpoint's re-checks enumerate only pairs touching rewritten tuples,
		// through the engine's masked self-join.
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

// compileDenial is the one reading of a DENIAL that both incremental
// detectors execute: it turns the analyzed constraint into the cleaning
// layer's check configuration, consumed by the append delta (the engine's
// masked self-join) and by the REPAIR fixpoint (RepairDCIn) alike. Pred is
// compiled by the same specialized pair compiler the cold theta join uses,
// with the two aliases bound to the tuples themselves. The band is the first
// same-attribute cross inequality that is not on the REPAIR column (that
// conjunct is the one being relaxed, so tuples cannot be ordered on it), read
// as an engine.BandKey. It is only a pruning aid — any conjunct is a sound
// necessary condition — so a constraint without one still checks, just
// unpruned.
func compileDenial(spec *lang.DenialSpec, theta physical.ThetaStrategy, params map[string]types.Value) (cleaning.DCConfig, error) {
	cfg := cleaning.DCConfig{Strategy: theta}
	comp := monoid.NewCompiler()
	comp.Params = params

	var err error
	cfg.Pred, err = comp.CompilePair(spec.Pred, map[string]monoid.PairBinding{
		spec.Alias:       {Slot: monoid.WholeSide},
		spec.SecondAlias: {Right: true, Slot: monoid.WholeSide},
	})
	if err != nil {
		return cfg, err
	}
	if f := monoid.AndAll(spec.T1Conjuncts); f != nil {
		ce, err := comp.Compile(f, map[string]int{spec.Alias: 0})
		if err != nil {
			return cfg, err
		}
		cfg.LeftFilter = func(v types.Value) bool {
			out, err := ce([]types.Value{v})
			return err == nil && out.Bool()
		}
	}
	repairAttr, _ := spec.RepairAttr.(*monoid.Field) // nil without a REPAIR clause
	for _, c := range spec.CrossConjuncts {
		t1Expr, op, ok := sameAttrInequality(c, spec)
		if !ok || (repairAttr != nil && isColumn(t1Expr, repairAttr.Name)) {
			continue
		}
		bandCE, err := comp.Compile(t1Expr, map[string]int{spec.Alias: 0})
		if err != nil {
			return cfg, err
		}
		cfg.Band = func(v types.Value) float64 {
			out, err := bandCE([]types.Value{v})
			if err != nil {
				return math.NaN() // unordered: a candidate for every partner
			}
			return engine.BandKey(out)
		}
		cfg.BandOp = op
		break
	}
	return cfg, nil
}

// buildRepairConfig is compileDenial plus the REPAIR-column classification:
// the REPAIR attribute must appear in a same-attribute inequality against the
// second alias (the relaxed predicate), and the check must have found a band
// — a second same-attribute inequality — to supply the fixed tuple order.
func buildRepairConfig(spec *lang.DenialSpec, theta physical.ThetaStrategy, params map[string]types.Value) (cleaning.DCRepairConfig, error) {
	var cfg cleaning.DCRepairConfig
	col, err := repairColumn(spec)
	if err != nil {
		return cfg, err
	}
	check, err := compileDenial(spec, theta, params)
	if err != nil {
		return cfg, err
	}
	var repairOp string
	for _, c := range spec.CrossConjuncts {
		if t1Expr, op, ok := sameAttrInequality(c, spec); ok && isColumn(t1Expr, col) {
			repairOp = op
			break
		}
	}
	if repairOp == "" {
		return cfg, fmt.Errorf("core: REPAIR(%s) needs an inequality conjunct comparing %s.%s with %s.%s",
			col, spec.Alias, col, spec.SecondAlias, col)
	}
	if check.Band == nil {
		return cfg, fmt.Errorf("core: REPAIR needs a second same-attribute inequality conjunct to order tuples")
	}
	return cleaning.DCRepairConfig{
		Check:      check,
		RepairAttr: func(v types.Value) float64 { return v.Field(col).Float() },
		RepairCol:  col,
		RepairOp:   repairOp,
	}, nil
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

// isColumn reports whether e reads the column named col.
func isColumn(e monoid.Expr, col string) bool {
	f, ok := e.(*monoid.Field)
	return ok && f.Name == col
}

// sameAttrInequality reports whether c is an inequality between the same
// attribute of the two aliases, returning the t1-side expression and the
// operator normalized to t1-first.
func sameAttrInequality(c monoid.Expr, spec *lang.DenialSpec) (t1Expr monoid.Expr, op string, ok bool) {
	t1Expr, t2Expr, op, ok := monoid.CrossInequality(c, []string{spec.Alias}, []string{spec.SecondAlias})
	if !ok {
		return nil, "", false
	}
	lhs := monoid.Substitute(t1Expr, spec.Alias, monoid.V("$x")).String()
	rhs := monoid.Substitute(t2Expr, spec.SecondAlias, monoid.V("$x")).String()
	return t1Expr, op, lhs == rhs
}
