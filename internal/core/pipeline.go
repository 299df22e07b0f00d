// Package core ties CleanDB's three abstraction levels together — it is the
// architecture of the paper's Figure 2 as one driver:
//
//	CleanM text ──parse──▶ AST ──Monoid Rewriter──▶ comprehensions
//	  ──Monoid Optimizer (normalization)──▶ canonical comprehensions
//	  ──lowering──▶ nested relational algebra ──Plan Rewriter──▶ DAG
//	  ──physical lowering──▶ engine operators ──▶ scale-out execution
//
// Every level's artifact is retained on the Result for EXPLAIN output, and a
// query containing several cleaning operators is optimized as one task:
// common sub-plans (shared scans, coalesced groupings) execute once and the
// violation sets are combined with a full outer join.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cleandb/internal/algebra"
	"cleandb/internal/cluster"
	"cleandb/internal/engine"
	"cleandb/internal/lang"
	"cleandb/internal/monoid"
	"cleandb/internal/physical"
	"cleandb/internal/sink"
	"cleandb/internal/types"
)

// Catalog resolves source names to datasets. Has must be cheap and must not
// materialize anything — the lowerer consults it for every unbound name;
// Lookup may trigger a (lazy, possibly parallel) load and is called only for
// the sources a statement actually references, at prepare time.
type Catalog interface {
	Has(name string) bool
	Lookup(name string) (*engine.Dataset, error)
}

// MapCatalog adapts a plain dataset map — the eager catalog shape — to the
// Catalog interface.
type MapCatalog map[string]*engine.Dataset

// Has implements Catalog.
func (m MapCatalog) Has(name string) bool { _, ok := m[name]; return ok }

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) (*engine.Dataset, error) {
	d, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("core: source %q not in catalog", name)
	}
	return d, nil
}

// Pipeline executes CleanM queries against a catalog of datasets.
type Pipeline struct {
	Ctx     *engine.Context
	Catalog Catalog
	// Config selects the physical strategies; the zero value is CleanDB's
	// skew-aware defaults.
	Config physical.Config
	// Unified controls whether multiple cleaning operators are combined
	// into a single DAG with an outer join (CleanDB behaviour). When false
	// each operator runs standalone (the paper's baseline configuration).
	Unified bool
	// NoSharing disables cross-operator plan sharing while keeping the
	// combining outer join — the Spark SQL behaviour of §8.2, where unified
	// execution is more expensive than standalone because the optimizer
	// cannot coalesce the common grouping.
	NoSharing bool
	// Trace, when non-nil, receives one line per optimizer rewrite.
	Trace func(level, rule, detail string)
}

// NewPipeline returns a pipeline with CleanDB defaults (unified execution,
// skew-aware grouping, statistics-aware theta joins) over an eager dataset
// map. Lazy catalogs use NewPipelineCatalog.
func NewPipeline(ctx *engine.Context, catalog map[string]*engine.Dataset) *Pipeline {
	return NewPipelineCatalog(ctx, MapCatalog(catalog))
}

// NewPipelineCatalog returns a default pipeline over any Catalog
// implementation, such as a lazy-loading one.
func NewPipelineCatalog(ctx *engine.Context, catalog Catalog) *Pipeline {
	return &Pipeline{Ctx: ctx, Catalog: catalog, Unified: true}
}

// TaskResult is one cleaning operator's (or plain query's) outcome.
type TaskResult struct {
	Name string
	// Output holds the task's result records as a partitioned view. For
	// cleaning operators these are violation records; for plain queries,
	// projected rows. Nil (an empty Rowset) when the query ran unified —
	// per-task violations are folded into the combined records then.
	Output *Rowset
	// Plan is the optimized algebraic plan (shared nodes included).
	Plan algebra.Plan
	// Comp is the normalized comprehension.
	Comp monoid.Expr
	// Repair reports the REPAIR outcome of a denial task (nil otherwise):
	// the healed rows plus the relaxation loop's convergence statistics.
	Repair *RepairSummary
}

// ExecStats is the cost-counter snapshot of one executed query, measured on
// the query's own job context rather than read off the instance-wide
// accumulators — concurrent queries therefore never pollute each other's
// numbers.
type ExecStats struct {
	SimTicks        int64
	Comparisons     int64
	ShuffledRecords int64
	ShuffledBytes   int64
	// ExportedRows counts rows this execution pumped into a sink
	// (ExecuteToContext); zero for plain executions.
	ExportedRows int64
	// BatchesEvaluated counts column batches evaluated by vectorized
	// operators; zero means the query ran entirely on the row path.
	BatchesEvaluated int64
	// SimCacheHits / SimCacheMisses count memoized pair-similarity probes.
	SimCacheHits   int64
	SimCacheMisses int64
	// Strategies counts the physical strategies the executor chose, by name
	// (e.g. "join:mbucket", "nest:aggregate"); nil when none were recorded.
	Strategies map[string]int64
}

// Result is a completed CleanM query. Result rows are held as partitioned
// views (Rowset) handed straight off the engine — no execution ever builds a
// flattened merge copy unless a consumer asks for one.
type Result struct {
	Tasks []TaskResult
	// Combined holds the unified outer-join output (entities with at least
	// one violation) when the query had several cleaning operators and the
	// pipeline runs in unified mode.
	Combined *Rowset
	// Explanation renders all three levels for EXPLAIN.
	Explanation string
	// Stats holds the query's own cost counters.
	Stats ExecStats
	// workers is the job's cluster width, kept so post-hoc exports
	// (RepairedTo) fan out like the execution did.
	workers int
	// primaryDS is the engine dataset behind Primary(), kept so sinks that
	// understand column batches can drain the vectors directly instead of
	// boxed rows. Nil when the primary output is row-backed.
	primaryDS *engine.Dataset
	// canonKeys holds the canonical key of each primary-task output row, in
	// row order, when the task is a canonically-ordered DENIAL/DEDUP pair
	// task. A delta merge against this result reuses them to merge sorted
	// runs instead of re-keying every cached row (see incr.go).
	canonKeys pairKeys
}

// Primary returns the primary output view: the combined records when
// present, otherwise the first task's output. Never nil-dereferences — an
// empty query yields a nil Rowset, which behaves as empty.
func (r *Result) Primary() *Rowset {
	if r.Combined != nil {
		return r.Combined
	}
	if len(r.Tasks) > 0 {
		return r.Tasks[0].Output
	}
	return nil
}

// Rows returns the primary output as a flat slice (memoized; see
// Rowset.Rows).
func (r *Result) Rows() []types.Value { return r.Primary().Rows() }

// Run parses, optimizes and executes a CleanM query.
func (p *Pipeline) Run(query string) (*Result, error) {
	return p.RunContext(context.Background(), query, nil)
}

// RunContext parses, optimizes and executes a CleanM query under goctx with
// the given parameter bindings.
func (p *Pipeline) RunContext(goctx context.Context, query string, params map[string]types.Value) (*Result, error) {
	prep, err := p.Prepare(query)
	if err != nil {
		return nil, err
	}
	return prep.ExecuteContext(goctx, params)
}

// Prepared is a fully planned query, ready to execute (or explain). After
// Prepare returns, a Prepared is immutable: plans, normalized comprehensions
// and fitted blocker builtins are read-only, so one Prepared may be executed
// by any number of goroutines concurrently, each with its own parameter
// bindings — parsing, normalization and lowering ran exactly once.
type Prepared struct {
	pipeline *Pipeline
	tasks    []lang.Task
	norm     []monoid.Expr
	plans    []algebra.Plan
	combined algebra.Plan
	// builtins holds the blocking builtins fitted at prepare time (k-means
	// centers, tokenizers); fitting is part of compile-once.
	builtins map[string]monoid.Builtin
	// sources holds the datasets of every source the statement references,
	// resolved — and for lazy catalogs, loaded — at prepare time. Executions
	// read this immutable map, so a Prepared never touches the live catalog
	// again and concurrent Register calls cannot shift ground under it.
	sources map[string]*engine.Dataset
	explain string
	// params lists the statement's parameter binding keys (lang.Query.Params).
	params []string
}

// Prepare runs the front end and all three optimization levels without
// executing.
func (p *Pipeline) Prepare(query string) (*Prepared, error) {
	q, err := lang.Parse(query)
	if err != nil {
		return nil, err
	}
	var d lang.Desugarer
	tasks, err := d.Desugar(q)
	if err != nil {
		return nil, err
	}
	pr := &Prepared{
		pipeline: p,
		tasks:    tasks,
		params:   q.Params,
		builtins: map[string]monoid.Builtin{},
		sources:  map[string]*engine.Dataset{},
	}

	// Fit and register blocking builtins (k-means centers, tokenizers).
	for _, t := range tasks {
		for name, binding := range t.Blockers {
			if err := pr.fitBlocker(name, binding); err != nil {
				return nil, err
			}
		}
	}

	var explain strings.Builder

	// Level 1: monoid normalization.
	norm := monoid.NewNormalizer()
	if p.Trace != nil {
		norm.Trace = func(rule, detail string) { p.Trace("monoid", rule, detail) }
	}
	// The lowerer's source test doubles as the reference recorder: every name
	// it accepts is a source this statement scans, and exactly those get
	// resolved (loading lazy ones) once lowering is done.
	needed := map[string]bool{}
	lower := &algebra.Lowerer{IsSource: func(name string) bool {
		if name == algebra.UnitSource {
			return true
		}
		if p.Catalog.Has(name) {
			needed[name] = true
			return true
		}
		return false
	}}
	var roots []algebra.Plan
	for _, t := range tasks {
		ne := norm.Normalize(t.Comp)
		pr.norm = append(pr.norm, ne)
		fmt.Fprintf(&explain, "-- task %s: comprehension --\n%s\n", t.Name, ne)
		nc, ok := ne.(*monoid.Comprehension)
		if !ok {
			return nil, fmt.Errorf("core: task %s normalized to a non-comprehension (%T); cannot lower", t.Name, ne)
		}
		// Level 2: lowering to the nested relational algebra.
		plan, err := lower.Lower(nc)
		if err != nil {
			return nil, err
		}
		roots = append(roots, plan)
	}

	// Level 2 rewrites: share sub-plans across tasks; optionally combine.
	rw := &algebra.Rewriter{}
	if p.Trace != nil {
		rw.Trace = func(rule, detail string) { p.Trace("algebra", rule, detail) }
	}
	if p.Unified && len(tasks) > 1 {
		keys := make([]monoid.Expr, len(tasks))
		names := make([]string, len(tasks))
		for i, t := range tasks {
			keys[i] = t.EntityKey
			names[i] = t.Name
		}
		if p.NoSharing {
			pr.combined = rw.UnifiedUnshared(roots, keys, names)
		} else {
			pr.combined = rw.Unified(roots, keys, names)
		}
		pr.plans = pr.combined.(*algebra.CombineAll).Inputs
		fmt.Fprintf(&explain, "-- unified algebraic plan --\n%s", algebra.Explain(pr.combined))
	} else {
		// Standalone mode: each operation is optimized in isolation — no
		// cross-operator sharing (the baseline behaviour the paper compares
		// against in Figure 5).
		pr.plans = make([]algebra.Plan, len(roots))
		for i, root := range roots {
			pr.plans[i] = rw.Rewrite(root)
			fmt.Fprintf(&explain, "-- task %s: algebraic plan --\n%s", tasks[i].Name, algebra.Explain(pr.plans[i]))
		}
	}
	pr.explain = explain.String()

	// A REPAIR clause reads its source outside the plan executor; resolve
	// those too (when present — a missing repair source keeps erroring at
	// execute time, as before).
	for _, t := range tasks {
		if t.Denial != nil && t.Denial.RepairAttr != nil && p.Catalog.Has(t.Denial.Source) {
			needed[t.Denial.Source] = true
		}
	}
	// Resolve in sorted order, not map order: under a cluster session a cold
	// load is a barrier every member must reach, so all members must load a
	// query's pending sources in the same sequence or two members parked at
	// different sources deadlock until the exchange sweep evicts one.
	names := make([]string, 0, len(needed))
	for name := range needed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds, err := p.Catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		pr.sources[name] = ds
	}
	return pr, nil
}

// fitBlocker fits the blocking technique against the catalog and stores it
// as a compile-once builtin shared by every execution of this Prepared.
func (pr *Prepared) fitBlocker(name string, b lang.BlockerBinding) error {
	p := pr.pipeline
	var fitValues []string
	if b.FitSource != "" && cluster.Fitted(b.Spec.Op) {
		if !p.Catalog.Has(b.FitSource) {
			return fmt.Errorf("core: blocker fit source %q not in catalog", b.FitSource)
		}
		src, err := p.Catalog.Lookup(b.FitSource)
		if err != nil {
			return err
		}
		ce, err := monoid.NewCompiler().Compile(b.FitAttr, map[string]int{"$fit": 0})
		if err != nil {
			return err
		}
		// Sample up to ~4k fit values, deterministically.
		sample := src.Sample(int(src.Count()/4096) + 1)
		for _, v := range sample {
			out, err := ce([]types.Value{v})
			if err == nil && out.Kind() == types.KindString {
				fitValues = append(fitValues, out.Str())
			}
		}
	}
	blk, err := cluster.ParseBlocker(b.Spec.Op, b.Spec.Param, fitValues)
	if err != nil {
		return err
	}
	pr.builtins[name] = func(args []types.Value) (types.Value, error) {
		if len(args) != 1 {
			return types.Null(), fmt.Errorf("%s: want 1 arg, got %d", name, len(args))
		}
		keys := blk.Keys(args[0].Str())
		out := make([]types.Value, len(keys))
		for i, k := range keys {
			out[i] = types.String(k)
		}
		return types.ListOf(out), nil
	}
	return nil
}

// Explain returns the multi-level EXPLAIN text.
func (pr *Prepared) Explain() string { return pr.explain }

// Params lists the statement's parameter binding keys in appearance order:
// "$1", "$2", ... for positional placeholders, lowercased names for named
// ones.
func (pr *Prepared) Params() []string {
	out := make([]string, len(pr.params))
	copy(out, pr.params)
	return out
}

// Execute runs the prepared plans without cancellation or parameters.
func (pr *Prepared) Execute() (*Result, error) {
	return pr.ExecuteContext(context.Background(), nil)
}

// ExecuteContext runs the prepared plans under goctx with the given
// parameter bindings. Each call builds its own executor over the shared
// read-only plans and a per-query engine job context, so concurrent
// executions are independent: separate memoization, separate parameter
// bindings, separate cost counters (merged into the pipeline context's
// accumulators on completion), and per-query cancellation.
func (pr *Prepared) ExecuteContext(goctx context.Context, params map[string]types.Value) (*Result, error) {
	return pr.executeWith(goctx, params, nil, nil)
}

// ExecuteToContext runs the prepared plans like ExecuteContext and then
// pumps the primary output straight into s — partition-parallel, under the
// same job context, so cancelling goctx aborts the export exactly as it
// aborts the operator loops, and nothing is buffered beyond the partitions
// in flight. The rows reach the sink without ever being flattened; the
// returned Result still carries the partition views, metrics (including
// Stats.ExportedRows) and repair summaries. A nil s exports nothing: the call
// is then ExecuteContext.
func (pr *Prepared) ExecuteToContext(goctx context.Context, params map[string]types.Value, s sink.Sink) (*Result, error) {
	return pr.executeWith(goctx, params, s, nil)
}

// executeWith is the one execution tail: parameter check, job and executor
// construction, execution, optional export into s, metrics merge and stats.
// A non-nil base makes it a delta-served execution (ExecuteDeltaContext
// checked the statement is a single canonical pair task): that task's rows
// come from the cached view plus a delta pass instead of the plan; everything
// else is the same code.
func (pr *Prepared) executeWith(goctx context.Context, params map[string]types.Value, s sink.Sink, base *DeltaBase) (*Result, error) {
	for _, k := range pr.params {
		if _, ok := params[k]; !ok {
			return nil, fmt.Errorf("core: parameter %s is not bound", (&monoid.Param{Key: k}).String())
		}
	}
	job := pr.pipeline.Ctx.Job(goctx)
	ex := physical.NewExecutor(job, pr.sources)
	ex.Config = pr.pipeline.Config
	for name, fn := range pr.builtins {
		ex.AddBuiltin(name, fn)
	}
	ex.SetParams(params)

	res, err := pr.execute(ex, job, params, base)
	var exported int64
	if err == nil && s != nil {
		exported, err = res.ExportTo(goctx, s)
	}
	// Partial work from failed or cancelled queries still moved data; account
	// for it in the instance-wide accumulators either way.
	pr.pipeline.Ctx.Metrics().Merge(job.Metrics())
	if err != nil {
		return nil, err
	}
	m := job.Metrics()
	simHits, simMisses := m.SimCacheStats()
	res.Stats = ExecStats{
		SimTicks:         m.SimTicks(),
		Comparisons:      m.Comparisons(),
		ShuffledRecords:  m.ShuffledRecords(),
		ShuffledBytes:    m.ShuffledBytes(),
		ExportedRows:     exported,
		BatchesEvaluated: m.BatchesEvaluated(),
		SimCacheHits:     simHits,
		SimCacheMisses:   simMisses,
		Strategies:       m.Strategies(),
	}
	return res, nil
}

func (pr *Prepared) execute(ex *physical.Executor, job *engine.Context, params map[string]types.Value, base *DeltaBase) (*Result, error) {
	res := &Result{Explanation: pr.explain, workers: job.Workers}
	// The execution's tuple table: every tuple in a pair row is encoded once,
	// for the canonical ordering and the REPAIR fixpoint alike. It dies with
	// this call; only key strings it built live on, in canonKeys and entries.
	tab := types.NewTupleTable()
	if pr.combined != nil {
		d, err := ex.Exec(pr.combined)
		if err != nil {
			return nil, err
		}
		// Partition hand-off: the engine's partitions become the result view
		// directly — no merge copy.
		res.Combined = NewRowset(d.Partitions())
	}
	healed := map[string]*engine.Dataset{}
	for i, t := range pr.tasks {
		var out *Rowset
		switch {
		case pr.combined != nil:
			// Unified: per-task violations are folded into Combined.
		case pr.canonicalPairTask():
			// Single DENIAL/DEDUP task: pin the pair rows to canonical key
			// order, the ordering contract that lets an incremental merge
			// over a cached view reproduce a cold run bit for bit (see
			// incr.go). Pair rows are row-backed, so flattening here costs
			// what the first consumer would have paid.
			rows, keys, err := pr.canonicalPairRows(ex, tab, base, params)
			if err != nil {
				return nil, err
			}
			res.canonKeys = keys
			out = NewRowset(partitionRows(rows, job.Workers))
		default:
			d, err := ex.Exec(pr.plans[i])
			if err != nil {
				return nil, err
			}
			if d.Batches() != nil {
				// Columnar result: defer row boxing until a consumer asks.
				// Batch-capable sinks drain the vectors via primaryDS and
				// never trigger it.
				out = LazyRowset(int(d.Count()), func() [][]types.Value {
					return unwrapParts(d.Partitions())
				})
			} else {
				out = NewRowset(unwrapParts(d.Partitions()))
			}
			if i == 0 {
				res.primaryDS = d
			}
		}
		tr := TaskResult{
			Name:   t.Name,
			Output: out,
			Plan:   pr.plans[i],
			Comp:   pr.norm[i],
		}
		// A denial task with REPAIR heals the source after detection: the
		// plan's violation pairs seed the relaxation loop, and successive
		// REPAIR clauses on the same source compose via the healed map.
		if t.Denial != nil && t.Denial.RepairAttr != nil {
			sum, err := pr.runRepair(ex, tab, &pr.tasks[i], pr.plans[i], out.Rows(), healed, params)
			if err != nil {
				return nil, err
			}
			tr.Repair = sum
			healed[sum.Source] = engine.FromValues(job, sum.Rows)
		}
		res.Tasks = append(res.Tasks, tr)
	}
	if err := job.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// canonicalPairRows produces the single DENIAL/DEDUP task's pair rows and
// their canonical keys, in key order: by running the plan and sorting, or —
// delta-served, base non-nil — from the cached view plus a delta pass.
func (pr *Prepared) canonicalPairRows(ex *physical.Executor, tab *types.TupleTable, base *DeltaBase, params map[string]types.Value) ([]types.Value, pairKeys, error) {
	if base != nil {
		return pr.deltaPairRows(ex, tab, base, params)
	}
	rows, err := planPairRows(ex, pr.plans[0])
	if err != nil {
		return nil, pairKeys{}, err
	}
	return rows, sortRowsByKey(tab, rows), nil
}

// planPairRows runs a pair task's plan and returns its {a, b} rows.
func planPairRows(ex *physical.Executor, plan algebra.Plan) ([]types.Value, error) {
	d, err := ex.Exec(plan)
	if err != nil {
		return nil, err
	}
	return unwrapOut(d.Collect()), nil
}

// ExportTo pumps the result's primary output into s and returns the rows
// written: column batches drain directly when both sides support it,
// otherwise the partitioned rows are pumped with the result's own worker
// fan-out. It is the export step of ExecuteToContext, and serves a
// materialized view hit's streaming export without re-executing.
func (r *Result) ExportTo(goctx context.Context, s sink.Sink) (int64, error) {
	if r.primaryDS != nil {
		if batches := r.primaryDS.Batches(); batches != nil {
			// Columnar export: the sink drains the vectors directly;
			// handled=false means the sink is row-only and we box below.
			if exported, handled, err := sink.PumpBatches(goctx, s, batches); handled || err != nil {
				return exported, err
			}
		}
	}
	return sink.Pump(goctx, s, r.Primary().Partitions(), max(r.workers, 1))
}

// RepairedTo pumps the healed rows of the named source — the final state
// after every REPAIR clause on it — into s, partition-parallel under ctx. It
// returns the rows written, or an error when the query repaired nothing in
// that source.
func (r *Result) RepairedTo(ctx context.Context, source string, s sink.Sink) (int64, error) {
	var rows []types.Value
	found := false
	for _, sum := range r.Repairs() {
		if sum.Source == source {
			rows, found = sum.Rows, true
		}
	}
	if !found {
		return 0, fmt.Errorf("core: the query repaired nothing in source %q", source)
	}
	w := max(r.workers, 1)
	return sink.Pump(ctx, s, partitionRows(rows, w), w)
}

// Repairs lists the repair summaries of all tasks that requested one.
func (r *Result) Repairs() []*RepairSummary {
	var out []*RepairSummary
	for _, t := range r.Tasks {
		if t.Repair != nil {
			out = append(out, t.Repair)
		}
	}
	return out
}

// unwrapOut strips the {$out: v} environment wrapper from result records.
func unwrapOut(rows []types.Value) []types.Value {
	out := make([]types.Value, len(rows))
	for i, r := range rows {
		out[i] = unwrapRow(r)
	}
	return out
}

// unwrapRow strips the {$out: v} environment wrapper from one record.
func unwrapRow(r types.Value) types.Value {
	if isWrappedRow(r) {
		return r.Record().Fields[0]
	}
	return r
}

// isWrappedRow reports whether r is a {$out: v} environment record.
func isWrappedRow(r types.Value) bool {
	rec := r.Record()
	return rec != nil && len(rec.Fields) == 1 && rec.Schema.Names[0] == lang.OutVar
}

// unwrapParts is unwrapOut per partition: the partition structure is
// preserved, and partitions containing no wrapped rows are reused as-is
// rather than copied.
func unwrapParts(parts [][]types.Value) [][]types.Value {
	out := make([][]types.Value, len(parts))
	for i, p := range parts {
		out[i] = unwrapPart(p)
	}
	return out
}

func unwrapPart(rows []types.Value) []types.Value {
	for j, r := range rows {
		if isWrappedRow(r) {
			out := make([]types.Value, len(rows))
			copy(out, rows[:j])
			for k := j; k < len(rows); k++ {
				out[k] = unwrapRow(rows[k])
			}
			return out
		}
	}
	return rows
}
