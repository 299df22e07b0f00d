package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"cleandb/internal/cluster"
	"cleandb/internal/engine"
	"cleandb/internal/lang"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// This file is the core half of incremental execution: deciding whether a
// prepared statement can answer an appended-source re-execution with a delta
// pass, and producing the canonical pair rows of such an execution from a
// cached Result plus the pairs that touch fresh tuples. Nothing else differs
// from a cold execution: executeWith (pipeline.go) is the one tail — REPAIR,
// metrics, stats, export. A DEDUP's delta pass is the statement's own plan,
// executed with the appended rows as the fresh mask of its self-pair stage;
// a DENIAL's is the engine's masked self-join (engine.MaskedSelfJoin) under
// the appended-rows mask, configured by compileDenial (repair.go) — the one
// reading of a DENIAL it shares with the REPAIR fixpoint, whose re-check is
// the same stage under the touched-tuples mask. What is
// delta-specific here is eligibility, DEDUP's repeat filter and the
// sorted-run merge. The outcome is bit-identical (rows, task rows, repair
// summaries) to a cold full re-clean.
//
// The bit-identity contract leans on two facts. First, every single-task
// DENIAL/DEDUP execution — cold or incremental — reports its pair rows in
// canonical key order (execute() sorts them), so "merge equals recompute" is
// well-defined without reconstructing a partition-dependent order. Second,
// append-only deltas never change old rows, so a cached pair set stays valid
// verbatim and the delta enumerators only add pairs touching fresh tuples.
// Of the execution metrics, rows/repairs are pinned; cost counters
// (SimTicks, Comparisons, shuffle volumes) measure the work actually done,
// which for an incremental run is the delta — that asymmetry is the point.

// IncrKind classifies what the incremental layer can do with a statement.
type IncrKind int

const (
	// IncrNone: the statement must re-execute in full (multiple tasks,
	// unified plans, plain queries, or an append-unstable blocker).
	IncrNone IncrKind = iota
	// IncrDenial: a single DENIAL task (detect-only or REPAIR).
	IncrDenial
	// IncrDedup: a single DEDUP task with an append-stable blocker.
	IncrDedup
)

// IncrInfo describes the incremental eligibility of a Prepared.
type IncrInfo struct {
	Kind IncrKind
	// Source is the one source the delta pass re-reads; appends to it can
	// be answered incrementally, any other change forces a full run.
	Source string
}

// Incremental reports whether this statement can be re-executed over an
// appended source by a delta pass plus a cached prior Result. Eligibility is
// structural (single task, single source, delta-decomposable operator); the
// caller still decides whether a suitable cached Result exists.
func (pr *Prepared) Incremental() IncrInfo {
	if len(pr.tasks) != 1 || pr.combined != nil || len(pr.sources) != 1 {
		return IncrInfo{}
	}
	switch t := pr.tasks[0]; {
	case t.Denial != nil:
		return IncrInfo{Kind: IncrDenial, Source: t.Denial.Source}
	case t.Dedup != nil && appendStableBlocker(&t):
		return IncrInfo{Kind: IncrDedup, Source: t.Dedup.Source}
	}
	return IncrInfo{}
}

// appendStableBlocker reports whether the task's blocking keys depend on
// nothing but the blocked row itself. Every blocker but a fitted one
// (k-means centers chosen from a data sample) qualifies — appending rows
// changes the fit, and with it the block keys of old rows, so the cached pair
// set would be computed against a different blocking than the delta's.
func appendStableBlocker(t *lang.Task) bool {
	if t.Dedup.BlockerFn == "" {
		return true // exact value blocking: no builtin at all
	}
	b, ok := t.Blockers[t.Dedup.BlockerFn]
	return ok && !cluster.Fitted(b.Spec.Op)
}

// Source returns the dataset this statement resolved for name at prepare
// time, nil when the statement does not read it. A view cache compares it
// by identity with the catalog's current dataset to know that the stamps it
// records describe exactly the data the execution saw — an append racing
// the execution makes the pointers differ and the view is simply not
// cached.
func (pr *Prepared) Source(name string) *engine.Dataset {
	return pr.sources[name]
}

// SourceNames lists the sources this statement resolved at prepare time,
// sorted — the set a materialized view of it must be stamped against.
func (pr *Prepared) SourceNames() []string {
	out := make([]string, 0, len(pr.sources))
	for name := range pr.sources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DeltaBase hands ExecuteDeltaContext the cached prior execution: the
// Result computed when the source held BaseRows rows. Rows at global index
// >= BaseRows are the appended delta.
type DeltaBase struct {
	Res      *Result
	BaseRows int
}

// ExecuteDeltaContext re-executes this statement over an appended source by
// enumerating only the pairs that touch fresh rows and merging them into the
// cached prior Result. The returned Result's rows, task rows and repair
// summaries are bit-identical to ExecuteContext's over the same data; its
// cost counters reflect the delta work actually performed. The caller must
// have checked Incremental() and that base.Res was produced by an equivalent
// statement over the same base rows — this method trusts both.
func (pr *Prepared) ExecuteDeltaContext(goctx context.Context, params map[string]types.Value, base DeltaBase) (*Result, error) {
	info := pr.Incremental()
	if info.Kind == IncrNone {
		return nil, fmt.Errorf("core: statement is not incrementally executable")
	}
	if base.Res == nil || len(base.Res.Tasks) != 1 {
		return nil, fmt.Errorf("core: delta execution needs a cached single-task result")
	}
	if _, ok := pr.sources[info.Source]; !ok {
		return nil, fmt.Errorf("core: source %q not in catalog", info.Source)
	}
	return pr.executeWith(goctx, params, nil, &base)
}

// deltaPairRows is the delta-served producer of the canonical pair task's
// rows, standing where a cold execution runs the plan and sorts: the cached
// pairs merged with the ones that touch a fresh row. Both inputs are
// key-sorted runs — the cached view by the canonical-ordering contract, the
// fresh pairs by an explicit sort — so the merge keys only the fresh pairs,
// not the whole cached output. DENIAL has bag semantics (every violating
// index pair is a row, nothing is a repeat); DEDUP has set semantics, so a
// pair reported for the base is skipped even when a value-identical fresh row
// rediscovers it.
func (pr *Prepared) deltaPairRows(ex *physical.Executor, tab *types.TupleTable, base *DeltaBase, params map[string]types.Value) ([]types.Value, pairKeys, error) {
	info := pr.Incremental()
	ds := pr.sources[info.Source].WithContext(ex.Ctx)
	prior := base.Res.Tasks[0].Output.Rows()
	priorKeys := base.Res.priorKeys(tab, prior)

	var fresh []types.Value
	if info.Kind == IncrDenial {
		cfg, err := compileDenial(pr.tasks[0].Denial, pr.pipeline.Config.Theta, params)
		if err != nil {
			return nil, pairKeys{}, err
		}
		appended := func(i int, _ types.Value) bool { return i >= base.BaseRows }
		pairs, err := ds.MaskedSelfJoin("join", appended, cfg.LeftFilter, cfg.JoinBand(), cfg.Pred,
			func(t1, t2 types.Value) types.Value { return types.NewRecord(pairSchema, []types.Value{t1, t2}) })
		if err != nil {
			return nil, pairKeys{}, err
		}
		fresh = pairs.Collect()
	} else {
		// Group members are the scanned records, which a columnar WHERE
		// re-boxes, so a fresh row is recognised by value: an old row equal to
		// an appended one counts as fresh too, and the pairs that adds are
		// repeats of the base's.
		appended := map[string]bool{}
		for _, v := range ds.Collect()[base.BaseRows:] {
			appended[types.Key(v)] = true
		}
		ex.SetFreshMask(func(key string) bool { return appended[key] })
		rows, err := planPairRows(ex, pr.plans[0])
		if err != nil {
			return nil, pairKeys{}, err
		}
		repeat := repeatedPairs(tab, priorKeys)
		for _, r := range rows {
			if !repeat(r) {
				fresh = append(fresh, r)
			}
		}
	}
	freshKeys := sortRowsByKey(tab, fresh)
	rows, keys := mergeSortedRuns(tab, prior, priorKeys, fresh, freshKeys)
	return rows, keys, nil
}

// repeatedPairs returns DEDUP's set-semantics filter over the delta pass's
// pair rows (distinct among themselves — the plan ends in a set reduce): a
// row is a repeat when the base reported it, that is, both members' keys are
// in the prior pool and that pair of pool positions is a prior row.
func repeatedPairs(tab *types.TupleTable, priorKeys pairKeys) func(types.Value) bool {
	reported := make(map[[2]int32]bool, len(priorKeys.of))
	for _, m := range priorKeys.of {
		reported[m] = true
	}
	return func(r types.Value) bool {
		a, b := pairIDs(tab, r)
		pa, inA := slices.BinarySearch(priorKeys.pool, tab.Key(a))
		pb, inB := slices.BinarySearch(priorKeys.pool, tab.Key(b))
		return inA && inB && reported[[2]int32{int32(pa), int32(pb)}]
	}
}

// priorKeys returns the canonical keys of the cached result's primary rows,
// reusing the keys recorded at sort time when they match and rebuilding them
// otherwise (a defensive path for results that lost their keys).
func (r *Result) priorKeys(tab *types.TupleTable, rows []types.Value) pairKeys {
	if len(r.canonKeys.of) == len(rows) {
		return r.canonKeys
	}
	return keyRows(tab, rows)
}

// mergeSortedRuns merges two key-sorted runs into one canonical ordering.
// Ties break toward the prior run, which keeps the merge stable; equal keys
// mean equal values, so the choice is unobservable. If either run is
// unexpectedly out of order (a corrupted cache), the result degrades to a
// full sort rather than a wrong answer.
func mergeSortedRuns(tab *types.TupleTable, a []types.Value, aKeys pairKeys, b []types.Value, bKeys pairKeys) ([]types.Value, pairKeys) {
	if !aKeys.sorted() || !bKeys.sorted() {
		rows := append(append(make([]types.Value, 0, len(a)+len(b)), a...), b...)
		return rows, sortRowsByKey(tab, rows)
	}
	// Merge the two pools first; every member then has one position in the
	// merged pool and the rows merge on integers.
	ap, bp := aKeys.pool, bKeys.pool
	pool := make([]string, 0, len(ap)+len(bp))
	toA, toB := make([]int32, len(ap)), make([]int32, len(bp))
	for i, j := 0, 0; i < len(ap) || j < len(bp); {
		at := int32(len(pool))
		switch {
		case j == len(bp) || (i < len(ap) && ap[i] < bp[j]):
			pool, toA[i] = append(pool, ap[i]), at
			i++
		case i == len(ap) || bp[j] < ap[i]:
			pool, toB[j] = append(pool, bp[j]), at
			j++
		default: // one tuple, keyed in both runs
			pool, toA[i], toB[j] = append(pool, ap[i]), at, at
			i, j = i+1, j+1
		}
	}
	moved := func(to []int32, m [2]int32) [2]int32 { return [2]int32{to[m[0]], to[m[1]]} }

	rows := make([]types.Value, 0, len(a)+len(b))
	of := make([][2]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := moved(toA, aKeys.of[i]), moved(toB, bKeys.of[j])
		if comparePair(ka, kb) <= 0 {
			rows, of = append(rows, a[i]), append(of, ka)
			i++
		} else {
			rows, of = append(rows, b[j]), append(of, kb)
			j++
		}
	}
	for ; i < len(a); i++ {
		rows, of = append(rows, a[i]), append(of, moved(toA, aKeys.of[i]))
	}
	for ; j < len(b); j++ {
		rows, of = append(rows, b[j]), append(of, moved(toB, bKeys.of[j]))
	}
	return rows, pairKeys{pool: pool, of: of}
}

// pairSchema is the {a, b} record shape of DENIAL and DEDUP task output.
var pairSchema = types.NewSchema("a", "b")

// canonicalPairTask reports whether the statement's single task is a
// DENIAL/DEDUP whose output execute() pins to canonical key order — the
// ordering contract that makes incremental merge ≡ cold recompute.
func (pr *Prepared) canonicalPairTask() bool {
	if pr.combined != nil || len(pr.tasks) != 1 {
		return false
	}
	return pr.tasks[0].Denial != nil || pr.tasks[0].Dedup != nil
}

// pairKeys holds the canonical keys of a run of DENIAL/DEDUP pair rows, in
// row order, without a string per row: pool is the distinct member key
// strings in ascending order — each built once per execution by the tuple
// table — and of[i] the pool positions of row i's two members. Ordering rows
// by (of[i][0], of[i][1]) is ordering them by the whole row's types.Key,
// "(" a "," b ")", because a complete key is never continued by a byte at or
// below ',' (FuzzPairKeyOrder).
type pairKeys struct {
	pool []string
	of   [][2]int32
}

// at returns row i's two member keys.
func (k pairKeys) at(i int) (a, b string) { return k.pool[k.of[i][0]], k.pool[k.of[i][1]] }

// sorted reports whether the pool and the rows are in ascending key order.
func (k pairKeys) sorted() bool {
	return slices.IsSorted(k.pool) && slices.IsSortedFunc(k.of, comparePair)
}

func comparePair(x, y [2]int32) int {
	if c := cmp.Compare(x[0], y[0]); c != 0 {
		return c
	}
	return cmp.Compare(x[1], y[1])
}

// pairIDs interns the two members of one pair row in the execution's tuple
// table. A row that is not a two-field record is its own, single member.
func pairIDs(tab *types.TupleTable, row types.Value) (a, b int32) {
	rec := row.Record()
	if rec == nil || len(rec.Fields) != 2 {
		id := tab.Intern(row)
		return id, id
	}
	return tab.Intern(rec.Fields[0]), tab.Intern(rec.Fields[1])
}

// keyRows keys pair rows, in the order given, through the execution's tuple
// table: each member tuple is encoded once per execution however many pairs
// it appears in, the table's ids are ranked by key string once, and a row's
// key is its members' ranks.
func keyRows(tab *types.TupleTable, rows []types.Value) pairKeys {
	of := make([][2]int32, len(rows))
	for i, r := range rows {
		of[i][0], of[i][1] = pairIDs(tab, r)
	}
	byKey := tab.IDsByKey()
	pool := make([]string, len(byKey))
	rank := make([]int32, len(byKey))
	for r, id := range byKey {
		pool[r], rank[id] = tab.Key(id), int32(r)
	}
	for i, m := range of {
		of[i] = [2]int32{rank[m[0]], rank[m[1]]}
	}
	return pairKeys{pool: pool, of: of}
}

// sortRowsByKey orders pair rows by their canonical keys, in place, and
// returns the keys in the sorted order. Equal keys mean equal values, so the
// order is total and any duplicates are interchangeable. The sort compares
// integer ranks; no comparator touches a key string.
func sortRowsByKey(tab *types.TupleTable, rows []types.Value) pairKeys {
	keys := keyRows(tab, rows)
	type ranked struct {
		key [2]int32
		row int32
	}
	rs := make([]ranked, len(rows))
	for i, m := range keys.of {
		rs[i] = ranked{m, int32(i)}
	}
	slices.SortFunc(rs, func(x, y ranked) int { return comparePair(x.key, y.key) })
	sorted := make([]types.Value, len(rows))
	for i, r := range rs {
		sorted[i], keys.of[i] = rows[r.row], r.key
	}
	copy(rows, sorted)
	return keys
}
