// Package engine is CleanDB's scale-out execution substrate — the stand-in
// for the Spark runtime used by the CleanM paper (VLDB 2017).
//
// A Dataset is a partitioned collection of values. Narrow operators (map,
// filter, flatMap, mapPartitions) run per partition on a bounded pool of
// worker goroutines. Wide operators model the three shuffle strategies the
// paper contrasts:
//
//   - AggregateByKey — CleanDB's strategy: combine locally per partition,
//     shuffle only the (key, partial-aggregate) pairs, then merge. Minimal
//     cross-node traffic; resilient to key skew.
//   - SortShuffleGroup — Spark SQL's sort-based aggregation: range-partition
//     every record by key, sort locally, aggregate runs. Heavy keys overload
//     a single range and create stragglers.
//   - HashShuffleGroup — BigDansing-style hash shuffle: hash-partition every
//     record, group at the reducer. Full shuffle volume, skew-sensitive.
//
// Every operator records a Stage in the Context's Metrics with per-worker
// costs; SimTicks (the sum over stages of the maximum worker cost) is a
// deterministic wall-clock proxy that exposes skew and straggler effects
// regardless of the host machine, while the goroutine pool also provides real
// multicore speedups.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// ErrBudgetExceeded is returned by expensive operators (cartesian products,
// pruning-free theta joins) when the Context's comparison budget is spent.
// The experiment harness reports such runs as DNF ("did not finish"), which
// is how the paper reports Spark SQL and BigDansing on rule ψ and MAG.
var ErrBudgetExceeded = errors.New("engine: comparison budget exceeded")

// Context carries the cluster configuration, the cost-model metrics and the
// optional work budget for a job.
type Context struct {
	// Workers is the simulated cluster width: number of partitions created
	// by default and the bound on concurrently running partition tasks.
	Workers int

	// CompBudget, when positive, bounds the number of pairwise comparisons
	// a single job may perform before ErrBudgetExceeded is reported.
	CompBudget int64

	// goctx, when non-nil, carries cancellation and deadlines for the job.
	// Operator loops poll it and abort promptly once it is done.
	goctx context.Context

	// exchange, when non-nil, distributes masked wide stages across a
	// cleaning cluster (see Exchange in exchange.go). Nil means every slot
	// runs locally — the single-process path.
	exchange Exchange
	// stageSeq numbers masked stages in plan order so every node of a
	// distributed job derives identical stage identifiers.
	stageSeq atomic.Int64
	// failed holds the first job-poisoning error reported via Fail.
	failed atomic.Pointer[failBox]

	metrics Metrics
}

// NewContext returns a context with the given number of workers.
func NewContext(workers int) *Context {
	if workers < 1 {
		workers = 1
	}
	return &Context{Workers: workers}
}

// Job derives a child context for one query: same cluster width and
// comparison budget, fresh metrics (so per-query costs are measured in
// isolation), and bound to goctx for cancellation. Merge the job's metrics
// back into a global collector with Metrics.Merge when the query completes.
func (c *Context) Job(goctx context.Context) *Context {
	j := &Context{Workers: c.Workers, CompBudget: c.CompBudget}
	if goctx != nil {
		if ex, ok := goctx.Value(exchangeCtxKey{}).(Exchange); ok {
			j.exchange = ex
		}
	}
	if goctx == context.Background() {
		goctx = nil
	}
	j.goctx = goctx
	return j
}

// Err reports whether the job may keep running: nil while it may, the
// poisoning error after Fail, or the Go context's cancellation error
// (context.Canceled / context.DeadlineExceeded) after cancellation.
func (c *Context) Err() error {
	if b := c.failed.Load(); b != nil {
		return b.err
	}
	if c.goctx == nil {
		return nil
	}
	return c.goctx.Err()
}

// Metrics accumulates cost-model counters for a job.
type Metrics struct {
	mu         sync.Mutex
	stages     []StageStats
	folded     stageTotals // stages Merge evicted from the log
	strategies map[string]int64

	recordsProcessed atomic.Int64
	shuffledRecords  atomic.Int64
	shuffledBytes    atomic.Int64
	comparisons      atomic.Int64

	batchesEvaluated atomic.Int64
	dictHits         atomic.Int64
	dictMisses       atomic.Int64
	simCacheHits     atomic.Int64
	simCacheMisses   atomic.Int64
}

// recentStages bounds the stage log of a collector that finished jobs are
// merged into: it keeps this many of the most recent records and the totals
// of the rest, so an instance serving queries forever stays the same size.
const recentStages = 1024

// stageTotals is what SimTicks, TotalCost and MaxStageCost read off a run of
// stage records.
type stageTotals struct{ ticks, cost, maxCost int64 }

// add folds one stage in. A stage finishes when its straggler finishes, plus
// a network term: shuffling is spread over workers but serialization and
// deserialization costs scale with volume.
func (t *stageTotals) add(s StageStats) {
	t.ticks += s.MaxCost() + s.ShuffledRecords/2
	t.cost += s.TotalCost()
	t.maxCost = max(t.maxCost, s.MaxCost())
}

// totals returns the totals over every stage ever logged or merged in.
func (m *Metrics) totals() stageTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.folded
	for _, s := range m.stages {
		t.add(s)
	}
	return t
}

// StageStats describes one executed stage.
type StageStats struct {
	Name            string
	WorkerCosts     []int64
	ShuffledRecords int64
	ShuffledBytes   int64
}

// MaxCost returns the straggler cost of the stage.
func (s StageStats) MaxCost() int64 {
	var m int64
	for _, c := range s.WorkerCosts {
		if c > m {
			m = c
		}
	}
	return m
}

// TotalCost returns the summed worker cost of the stage.
func (s StageStats) TotalCost() int64 {
	var t int64
	for _, c := range s.WorkerCosts {
		t += c
	}
	return t
}

// Metrics returns the context's metrics collector.
func (c *Context) Metrics() *Metrics { return &c.metrics }

// Reset clears all counters and stage logs.
func (m *Metrics) Reset() {
	m.mu.Lock()
	m.stages = nil
	m.folded = stageTotals{}
	m.strategies = nil
	m.mu.Unlock()
	m.recordsProcessed.Store(0)
	m.shuffledRecords.Store(0)
	m.shuffledBytes.Store(0)
	m.comparisons.Store(0)
	m.batchesEvaluated.Store(0)
	m.dictHits.Store(0)
	m.dictMisses.Store(0)
	m.simCacheHits.Store(0)
	m.simCacheMisses.Store(0)
}

// BatchesEvaluated returns how many column batches were evaluated by
// vectorized kernels instead of row-at-a-time interpretation.
func (m *Metrics) BatchesEvaluated() int64 { return m.batchesEvaluated.Load() }

// AddDictStats folds string-dictionary interning counters in: hits found an
// existing entry, misses allocated one.
func (m *Metrics) AddDictStats(hits, misses int64) {
	m.dictHits.Add(hits)
	m.dictMisses.Add(misses)
}

// DictStats returns the dictionary interning counters.
func (m *Metrics) DictStats() (hits, misses int64) {
	return m.dictHits.Load(), m.dictMisses.Load()
}

// AddSimCacheStats folds pair-similarity cache counters in.
func (m *Metrics) AddSimCacheStats(hits, misses int64) {
	m.simCacheHits.Add(hits)
	m.simCacheMisses.Add(misses)
}

// SimCacheStats returns the pair-similarity cache counters.
func (m *Metrics) SimCacheStats() (hits, misses int64) {
	return m.simCacheHits.Load(), m.simCacheMisses.Load()
}

// NoteStrategy records that the planner chose the named execution strategy
// (e.g. "theta:mbucket", "group:aggregate-by-key") once, making the
// stats-driven choices observable in Result.Metrics and /metrics.
func (m *Metrics) NoteStrategy(name string) {
	m.mu.Lock()
	if m.strategies == nil {
		m.strategies = make(map[string]int64)
	}
	m.strategies[name]++
	m.mu.Unlock()
}

// Strategies returns a copy of the strategy-choice counters.
func (m *Metrics) Strategies() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.strategies) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m.strategies))
	for k, v := range m.strategies {
		out[k] = v
	}
	return out
}

// AddComparisons counts n pairwise (similarity or predicate) comparisons.
func (m *Metrics) AddComparisons(n int64) { m.comparisons.Add(n) }

// Comparisons returns the pairwise-comparison count.
func (m *Metrics) Comparisons() int64 { return m.comparisons.Load() }

// RecordsProcessed returns the total records touched by narrow operators.
func (m *Metrics) RecordsProcessed() int64 { return m.recordsProcessed.Load() }

// ShuffledRecords returns the total records moved across the simulated network.
func (m *Metrics) ShuffledRecords() int64 { return m.shuffledRecords.Load() }

// ShuffledBytes returns the estimated bytes moved across the simulated network.
func (m *Metrics) ShuffledBytes() int64 { return m.shuffledBytes.Load() }

// Stages returns a copy of the stage log: every stage logged, unless jobs
// were merged into this collector — then the recentStages latest records.
func (m *Metrics) Stages() []StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StageStats, len(m.stages))
	copy(out, m.stages)
	return out
}

// SimTicks is the deterministic wall-clock proxy: the sum over stages of the
// maximum per-worker cost (a stage finishes when its straggler finishes),
// plus a network term proportional to shuffled records.
func (m *Metrics) SimTicks() int64 { return m.totals().ticks }

// TotalCost returns the summed worker cost over all stages. Together with
// MaxStageCost it yields the straggler ratio the experiments use for
// skew-induced DNF detection: a run whose busiest worker exceeds a small
// multiple of the fair per-worker share models a cluster losing a node to
// overload.
func (m *Metrics) TotalCost() int64 { return m.totals().cost }

// MaxStageCost returns the largest single-worker stage cost observed — the
// straggler load. The experiment harness uses it to detect runs that a real
// cluster would lose to an overloaded node (skew-induced DNFs).
func (m *Metrics) MaxStageCost() int64 { return m.totals().maxCost }

// Merge folds the counters and stage log of src into m. Per-query job
// contexts (Context.Job) collect metrics in isolation; merging them into the
// instance-wide collector afterwards keeps cumulative totals meaningful. The
// totals stay exact however many jobs are merged; of the stage records m
// keeps the recentStages latest and folds the older ones into the totals.
func (m *Metrics) Merge(src *Metrics) {
	if src == nil || src == m {
		return
	}
	src.mu.Lock()
	stages, folded := slices.Clone(src.stages), src.folded
	src.mu.Unlock()
	strategies := src.Strategies()
	m.mu.Lock()
	m.folded.ticks += folded.ticks
	m.folded.cost += folded.cost
	m.folded.maxCost = max(m.folded.maxCost, folded.maxCost)
	m.stages = append(m.stages, stages...)
	if old := len(m.stages) - recentStages; old > 0 {
		for _, s := range m.stages[:old] {
			m.folded.add(s)
		}
		m.stages = slices.Delete(m.stages, 0, old)
	}
	if len(strategies) > 0 {
		if m.strategies == nil {
			m.strategies = make(map[string]int64, len(strategies))
		}
		for k, v := range strategies {
			m.strategies[k] += v
		}
	}
	m.mu.Unlock()
	m.recordsProcessed.Add(src.recordsProcessed.Load())
	m.shuffledRecords.Add(src.shuffledRecords.Load())
	m.shuffledBytes.Add(src.shuffledBytes.Load())
	m.comparisons.Add(src.comparisons.Load())
	m.batchesEvaluated.Add(src.batchesEvaluated.Load())
	m.dictHits.Add(src.dictHits.Load())
	m.dictMisses.Add(src.dictMisses.Load())
	m.simCacheHits.Add(src.simCacheHits.Load())
	m.simCacheMisses.Add(src.simCacheMisses.Load())
}

func (m *Metrics) logStage(s StageStats) {
	m.mu.Lock()
	m.stages = append(m.stages, s)
	m.mu.Unlock()
	m.shuffledRecords.Add(s.ShuffledRecords)
	m.shuffledBytes.Add(s.ShuffledBytes)
}

// ChargeComparisons charges n candidate-pair evaluations to the job's
// metrics under the comparison budget: when the charge would overrun
// CompBudget the counter saturates at the budget and ErrBudgetExceeded is
// reported. Every pair stage — the theta joins, their masked variant and
// the self-pair stage — charges its whole candidate count through this
// before testing one, so budgets and metrics see delta work exactly like a
// full pass.
func (c *Context) ChargeComparisons(n int64) error {
	if b := c.CompBudget; b > 0 && c.metrics.comparisons.Load()+n > b {
		chargeBudgetOverflow(&c.metrics, b)
		return ErrBudgetExceeded
	}
	c.metrics.AddComparisons(n)
	return nil
}

// runParallel executes f(0..n-1) on at most Workers concurrent goroutines.
// When the context's Go context is cancelled, remaining work items are
// skipped; every started goroutine still exits through the WaitGroup, so
// cancellation never leaks goroutines.
func (c *Context) runParallel(n int, f func(i int)) {
	if n == 0 {
		return
	}
	width := c.Workers
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if c.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || c.Err() != nil {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Dataset is a partitioned, immutable collection of values bound to a Context.
//
// A dataset is row-backed (parts set), batch-backed (batches set, rows
// materialized lazily through mat), or both (batch-backed with its row form
// already built). wrap and inner implement wrapped scan views: see
// WrapRecords in batch.go.
type Dataset struct {
	ctx   *Context
	parts [][]types.Value

	batches []*data.ColumnBatch
	wrap    *types.Schema
	inner   *Dataset
	mat     *rowCache
}

// Context returns the dataset's execution context.
func (d *Dataset) Context() *Context { return d.ctx }

// WithContext rebinds the dataset to another execution context without
// copying its partitions. Queries rebase shared catalog datasets onto their
// per-query job context so costs are metered per query and cancellation
// reaches the operator loops.
func (d *Dataset) WithContext(ctx *Context) *Dataset {
	if ctx == nil || ctx == d.ctx {
		return d
	}
	return &Dataset{ctx: ctx, parts: d.parts, batches: d.batches, wrap: d.wrap, inner: d.inner, mat: d.mat}
}

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int {
	if d.parts == nil && d.batches != nil {
		return len(d.batches)
	}
	return len(d.parts)
}

// Partition returns partition i (shared storage; do not mutate).
func (d *Dataset) Partition(i int) []types.Value { return d.rows()[i] }

// Partitions returns every partition in order (shared storage; do not mutate
// the outer or the inner slices). This is the copy-free hand-off for result
// consumers: where Collect concatenates every partition into one fresh
// slice, Partitions lets downstream layers — result views, sinks — drain the
// data partition by partition without the engine ever building the O(result)
// merged copy. Batch-backed datasets materialize their rows here; consumers
// that can drain vectors directly should check Batches first.
func (d *Dataset) Partitions() [][]types.Value { return d.rows() }

// FromValues partitions vs into ctx.Workers chunks, preserving order.
func FromValues(ctx *Context, vs []types.Value) *Dataset {
	return FromValuesN(ctx, vs, ctx.Workers)
}

// FromValuesN partitions vs into n contiguous chunks, preserving order.
func FromValuesN(ctx *Context, vs []types.Value, n int) *Dataset {
	if n < 1 {
		n = 1
	}
	parts := make([][]types.Value, n)
	per := (len(vs) + n - 1) / n
	if per == 0 {
		per = 1
	}
	for i := 0; i < n; i++ {
		lo := i * per
		if lo > len(vs) {
			lo = len(vs)
		}
		hi := lo + per
		if hi > len(vs) {
			hi = len(vs)
		}
		parts[i] = vs[lo:hi]
	}
	return &Dataset{ctx: ctx, parts: parts}
}

// FromPartitions wraps pre-partitioned data.
func FromPartitions(ctx *Context, parts [][]types.Value) *Dataset {
	if len(parts) == 0 {
		parts = make([][]types.Value, 1)
	}
	return &Dataset{ctx: ctx, parts: parts}
}

// Collect concatenates all partitions in order.
func (d *Dataset) Collect() []types.Value {
	parts := d.rows()
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]types.Value, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Count returns the total number of records. Batch-backed datasets answer
// from the vector lengths without materializing rows.
func (d *Dataset) Count() int64 {
	if d.parts == nil && d.batches != nil {
		var n int64
		for _, b := range d.batches {
			if b != nil {
				n += int64(b.N)
			}
		}
		return n
	}
	var n int64
	for _, p := range d.parts {
		n += int64(len(p))
	}
	return n
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset(%d records, %d partitions)", d.Count(), d.NumPartitions())
}
