package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cleandb/internal/algebra"
	"cleandb/internal/cleaning"
	"cleandb/internal/cluster"
	"cleandb/internal/core"
	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/lang"
	"cleandb/internal/monoid"
	"cleandb/internal/physical"
	"cleandb/internal/sink"
	"cleandb/internal/source"
	"cleandb/internal/textsim"
	"cleandb/internal/types"
)

// layerReps is how often a standalone layer call is repeated; the median is
// reported.
const layerReps = 5

// frontEnd is one pass of a statement through the five front-end phases, by
// the same public calls core.Pipeline.Prepare makes, each timed on its own.
type frontEnd struct {
	parse, desugar, normalize, lower, rewrite time.Duration

	rewrites int // monoid rules applied, via Normalizer.Trace
	nodes    int // distinct nodes of the rewritten plan DAG
	tasks    []lang.Task
	plans    []algebra.Plan
	combined algebra.Plan
}

// runFrontEnd plans query against a catalog that knows the given sources.
func runFrontEnd(query string, sources map[string]*engine.Dataset) (*frontEnd, error) {
	f := &frontEnd{}
	t0 := time.Now()
	q, err := lang.Parse(query)
	f.parse = time.Since(t0)
	if err != nil {
		return nil, err
	}

	t0 = time.Now()
	var d lang.Desugarer
	f.tasks, err = d.Desugar(q)
	f.desugar = time.Since(t0)
	if err != nil {
		return nil, err
	}

	norm := monoid.NewNormalizer()
	norm.Trace = func(string, string) { f.rewrites++ }
	comps := make([]*monoid.Comprehension, len(f.tasks))
	t0 = time.Now()
	for i, t := range f.tasks {
		nc, ok := norm.Normalize(t.Comp).(*monoid.Comprehension)
		if !ok {
			return nil, fmt.Errorf("front end: task %s normalized to a non-comprehension", t.Name)
		}
		comps[i] = nc
	}
	f.normalize = time.Since(t0)

	lower := &algebra.Lowerer{IsSource: func(name string) bool {
		_, ok := sources[name]
		return ok || name == algebra.UnitSource
	}}
	roots := make([]algebra.Plan, len(comps))
	t0 = time.Now()
	for i, nc := range comps {
		if roots[i], err = lower.Lower(nc); err != nil {
			return nil, err
		}
	}
	f.lower = time.Since(t0)

	rw := &algebra.Rewriter{}
	t0 = time.Now()
	if len(f.tasks) > 1 {
		keys := make([]monoid.Expr, len(f.tasks))
		names := make([]string, len(f.tasks))
		for i, t := range f.tasks {
			keys[i], names[i] = t.EntityKey, t.Name
		}
		f.combined = rw.Unified(roots, keys, names)
		f.plans = f.combined.(*algebra.CombineAll).Inputs
	} else {
		f.plans = rw.RewriteAll(roots)
	}
	f.rewrite = time.Since(t0)
	if f.combined != nil {
		f.nodes = algebra.CountNodes(f.combined)
	} else {
		f.nodes = algebra.CountNodes(f.plans...)
	}
	return f, nil
}

// exec runs the rewritten plan on warm datasets through physical.Executor,
// as core.Prepared.execute does, and returns the job's cost counters.
func (f *frontEnd) exec(ectx *engine.Context, sources map[string]*engine.Dataset, params map[string]types.Value) (*engine.Metrics, error) {
	job := ectx.Job(context.Background())
	ex := physical.NewExecutor(job, sources)
	ex.Config = physical.Config{Auto: true}
	for _, t := range f.tasks {
		for name, b := range t.Blockers {
			blk, err := cluster.ParseBlocker(b.Spec.Op, b.Spec.Param, nil)
			if err != nil {
				return nil, err
			}
			ex.AddBuiltin(name, func(args []types.Value) (types.Value, error) {
				keys := blk.Keys(args[0].Str())
				out := make([]types.Value, len(keys))
				for i, k := range keys {
					out[i] = types.String(k)
				}
				return types.ListOf(out), nil
			})
		}
	}
	ex.SetParams(params)
	roots := f.plans
	if f.combined != nil {
		roots = []algebra.Plan{f.combined}
	}
	for _, p := range roots {
		d, err := ex.Exec(p)
		if err != nil {
			return nil, err
		}
		d.Count()
	}
	return job.Metrics(), job.Err()
}

// layerInput is what a workload hands the standalone layer timers: its own
// statement, its own table (as generated rows and as the file bytes the
// program reads), and the bindings of one representative op.
type layerInput struct {
	query   string
	table   string
	rows    []types.Value
	params  map[string]types.Value
	workers int
	// rule is set for the lineitem workloads (theta join, DC check, repair);
	// customer is set for the customer workloads (group, FD, DEDUP, blocking).
	rule     *dcRule
	repair   bool
	customer bool
}

// frontEndMetrics fills lang.*, monoid.*, algebra.* and core.* from repeated
// passes over the statement, and returns the last pass for exec.
func frontEndMetrics(m metrics, in layerInput, sources map[string]*engine.Dataset) (*frontEnd, error) {
	const reps = 15 // the phases take microseconds; more samples cost nothing
	var parse, desugar, normalize, lower, rewrite, prepare []float64
	var last *frontEnd
	ectx := engine.NewContext(in.workers)
	for i := 0; i < reps; i++ {
		f, err := runFrontEnd(in.query, sources)
		if err != nil {
			return nil, err
		}
		last = f
		parse = append(parse, us(f.parse))
		desugar = append(desugar, us(f.desugar))
		normalize = append(normalize, us(f.normalize))
		lower = append(lower, us(f.lower))
		rewrite = append(rewrite, us(f.rewrite))

		p := core.NewPipeline(ectx, sources)
		p.Config = physical.Config{Auto: true}
		t0 := time.Now()
		if _, err := p.Prepare(in.query); err != nil {
			return nil, err
		}
		prepare = append(prepare, us(time.Since(t0)))
	}
	m.set("lang.parse_us", medianF(parse))
	m.set("lang.desugar_us", medianF(desugar))
	m.set("monoid.normalize_us", medianF(normalize))
	m.set("monoid.rewrites", float64(last.rewrites))
	m.set("algebra.lower_us", medianF(lower))
	m.set("algebra.rewrite_us", medianF(rewrite))
	m.set("algebra.plan_nodes", float64(last.nodes))
	prep := medianF(prepare)
	phases := medianF(parse) + medianF(desugar) + medianF(normalize) + medianF(lower) + medianF(rewrite)
	m.set("core.prepare_us", prep)
	m.set("core.prepare_self_us", math.Max(0, prep-phases))
	return last, nil
}

// scanDataset loads src the way cleandb's catalog does.
func scanDataset(ectx *engine.Context, src source.Source) (*engine.Dataset, error) {
	batches, rows, err := source.ScanIntoBatches(context.Background(), src, ectx.Workers)
	if err != nil {
		return nil, err
	}
	switch {
	case batches == nil:
		return engine.FromPartitions(ectx, rows), nil
	case rows != nil:
		return engine.FromBatchesAndRows(ectx, batches, rows), nil
	default:
		return engine.FromBatches(ectx, batches), nil
	}
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// layerMetrics times every module's public entry points standalone on the
// workload's own inputs and fills the per-layer metrics that do not need the
// workload's op loop.
func layerMetrics(m metrics, in layerInput) error {
	ctx := context.Background()
	ectx := engine.NewContext(in.workers)

	// source + data: both encodings of the workload's table, scanned the way
	// the catalog scans them.
	csvBuf, err := csvBytes(in.rows)
	if err != nil {
		return err
	}
	var colbinBuf []byte
	encode := medianOf(layerReps, func() { colbinBuf, err = colbinBytes(in.rows) })
	if err != nil {
		return err
	}
	m.set("data.colbin_encode_mb_s", mbPerS(int64(len(colbinBuf)), encode))

	var scanErr error
	scans := 0
	a0 := heapAllocs()
	csvScan := medianOf(layerReps, func() {
		scans++
		_, _, scanErr = source.ScanIntoBatches(ctx, source.CSVBytes(csvBuf), in.workers)
	})
	scanAlloc := float64(heapAllocs() - a0)
	colbinScan := medianOf(layerReps, func() {
		if scanErr == nil {
			_, _, scanErr = source.ScanIntoBatches(ctx, source.ColbinBytes(colbinBuf), in.workers)
		}
	})
	if scanErr != nil {
		return scanErr
	}
	m.set("source.csv_scan_mb_s", mbPerS(int64(len(csvBuf)), csvScan))
	m.set("source.colbin_scan_mb_s", mbPerS(int64(len(colbinBuf)), colbinScan))
	m.set("source.scan_alloc_per_input_byte", scanAlloc/float64(scans)/float64(len(csvBuf)))

	// One join slot's worth of rows through the cluster wire codec.
	slot := in.rows
	if n := len(slot) / (4 * in.workers); n > 0 {
		slot = slot[:n]
	}
	var frame []byte
	var wireErr error
	wire := medianOf(layerReps, func() {
		frame = data.EncodeRowsFrame(slot)
		if _, err := data.DecodeRowsFrame(frame, data.NewDict()); err != nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return wireErr
	}
	m.set("data.wire_roundtrip_mb_s", mbPerS(int64(len(frame)), wire))

	ds, err := scanDataset(ectx, source.CSVBytes(csvBuf))
	if err != nil {
		return err
	}
	sources := map[string]*engine.Dataset{in.table: ds}

	fe, err := frontEndMetrics(m, in, sources)
	if err != nil {
		return err
	}

	// physical: the rewritten plan on the warm dataset.
	var em *engine.Metrics
	var execErr error
	exec := medianOf(layerReps, func() {
		if em, err = fe.exec(ectx, sources, in.params); err != nil {
			execErr = err
		}
	})
	if execErr != nil {
		return execErr
	}
	m.set("physical.exec_ms", ms(exec))
	m.set("physical.batches_evaluated", float64(em.BatchesEvaluated()))

	// engine + cleaning + cluster + textsim, on the table's boxed rows.
	rowsDS := func() *engine.Dataset { return engine.FromValues(engine.NewContext(in.workers), in.rows) }
	if in.rule != nil {
		if err := lineitemLayers(m, in, rowsDS); err != nil {
			return err
		}
	}
	if in.customer {
		customerLayers(m, in, rowsDS)
	}
	return nil
}

func lineitemLayers(m metrics, in layerInput, rowsDS func() *engine.Dataset) error {
	r := *in.rule
	price := func(v types.Value) float64 { return v.Field("extendedprice").Float() }
	disc := func(v types.Value) float64 { return v.Field("discount").Float() }
	pred := func(t1, t2 types.Value) bool {
		return price(t1) < price(t2) && disc(t1) > disc(t2)+r.shift && price(t1) < r.priceCap
	}
	var leftFilter func(types.Value) bool
	if !math.IsInf(r.priceCap, 1) {
		leftFilter = func(v types.Value) bool { return price(v) < r.priceCap }
	}
	check := cleaning.DCConfig{LeftFilter: leftFilter, Pred: pred, Band: price, BandOp: "<"}

	var firstErr error
	m.set("engine.group_ms", ms(medianOf(layerReps, func() {
		rowsDS().AggregateByKey("bench:group", engine.KeyFunc(cleaning.FieldExtract("orderkey")), engine.GroupAgg{}).Count()
	})))
	m.set("engine.theta_join_ms", ms(medianOf(layerReps, func() {
		ds := rowsDS()
		left := ds
		if leftFilter != nil {
			left = ds.Filter("bench:filter", leftFilter)
		}
		stats := engine.ThetaJoinStats{SortKey: price,
			Prune: func(lmin, _, _, rmax float64) bool { return lmin > rmax }}
		out, err := left.ThetaJoin("bench:theta", ds, stats, pred, engine.PairCombine)
		if err != nil {
			firstErr = err
			return
		}
		out.Count()
	})))
	m.set("cleaning.dccheck_ms", ms(medianOf(layerReps, func() {
		out, err := cleaning.DCCheck(rowsDS(), check)
		if err != nil {
			firstErr = err
			return
		}
		out.Count()
	})))
	if in.repair && firstErr == nil {
		// Seeded with the detected pairs, as core seeds it with the plan's
		// output: what is timed is the relaxation and its re-checks.
		found, err := cleaning.DCCheck(rowsDS(), check)
		if err != nil {
			return err
		}
		var seed [][2]types.Value
		for _, p := range found.Collect() {
			seed = append(seed, [2]types.Value{p.Field("left"), p.Field("right")})
		}
		var res *cleaning.RepairResult
		m.set("cleaning.repair_ms", ms(medianOf(layerReps, func() {
			var err error
			res, err = cleaning.RepairDC(rowsDS(), cleaning.DCRepairConfig{
				Check: check, RepairAttr: disc, RepairCol: "discount", RepairOp: ">",
				InitialPairs: seed,
			})
			if err != nil {
				firstErr = err
			}
		})))
		if res != nil {
			m.set("cleaning.repair_iterations", float64(res.Rounds))
			m.set("cleaning.repair_remaining", float64(res.Remaining))
		}
	}
	return firstErr
}

func customerLayers(m metrics, in layerInput, rowsDS func() *engine.Dataset) {
	address := cleaning.FieldExtract("address")
	m.set("engine.group_ms", ms(medianOf(layerReps, func() {
		rowsDS().AggregateByKey("bench:group", engine.KeyFunc(address), engine.GroupAgg{}).Count()
	})))
	m.set("cleaning.fd_ms", ms(medianOf(layerReps, func() {
		cleaning.FDCheck(rowsDS(), address, cleaning.FieldExtract("nationkey"), physical.GroupAggregate).Count()
	})))
	simAttr := func(v types.Value) string {
		return v.Field("address").Str() + v.Field("name").Str() + v.Field("phone").Str()
	}
	m.set("cleaning.dedup_ms", ms(medianOf(layerReps, func() {
		cleaning.Dedup(rowsDS(), cleaning.DedupConfig{
			BlockAttr: func(v types.Value) string { return v.Field("address").Str() },
			SimAttr:   simAttr,
			Metric:    textsim.MetricLevenshtein,
			Theta:     0.8,
		}).Count()
	})))

	// cluster: the statement's own blocking operator over its block attribute.
	addrs := make([]string, len(in.rows))
	for i, r := range in.rows {
		addrs[i] = r.Field("address").Str()
	}
	var groups map[string][]string
	m.set("cluster.block_keys_ms", ms(medianOf(layerReps, func() {
		blk, err := cluster.ParseBlocker("attribute", 0, nil)
		if err == nil {
			groups = cluster.Groups(blk, addrs)
		}
	})))

	// textsim: the thresholded edit distance on pairs from the DEDUP blocks.
	byAddr := map[string][]string{}
	for _, r := range in.rows {
		a := r.Field("address").Str()
		byAddr[a] = append(byAddr[a], simAttr(r))
	}
	keys := make([]string, 0, len(groups))
	for k, g := range groups {
		if len(g) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var pairs [][2]string
	for _, k := range keys {
		g := byAddr[k]
		for i := range g {
			for j := i + 1; j < len(g) && len(pairs) < 4096; j++ {
				pairs = append(pairs, [2]string{g[i], g[j]})
			}
		}
	}
	if len(pairs) > 0 {
		d := medianOf(layerReps, func() {
			for _, p := range pairs {
				n := len(p[0])
				if len(p[1]) > n {
					n = len(p[1])
				}
				textsim.LevenshteinWithin(p[0], p[1], n/5)
			}
		})
		m.set("textsim.lev_ns_per_pair", float64(d.Nanoseconds())/float64(len(pairs)))
	}
}

// sinkMetrics pumps parts through the CSV and JSON-lines sinks to a counting
// discard writer.
func sinkMetrics(m metrics, parts [][]types.Value, workers int) error {
	for _, s := range []struct {
		name string
		mk   func(io.Writer) sink.Sink
	}{
		{"sink.csv_mb_s", func(w io.Writer) sink.Sink { return sink.NewCSV(w) }},
		{"sink.jsonl_mb_s", func(w io.Writer) sink.Sink { return sink.NewJSONL(w) }},
	} {
		var n int64
		var pumpErr error
		d := medianOf(layerReps, func() {
			cw := &countingWriter{}
			if _, err := sink.Pump(context.Background(), s.mk(cw), parts, workers); err != nil {
				pumpErr = err
			}
			n = cw.n
		})
		if pumpErr != nil {
			return pumpErr
		}
		m.set(s.name, mbPerS(n, d))
	}
	return nil
}

// processMetrics reads the process's own high-water marks: each workload runs
// in its own process, so they describe that workload alone.
func processMetrics(m metrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("process.gc_cycles", float64(ms.NumGC))
	m.set("process.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					m.set("process.peak_rss_mb", kb/1024)
				}
			}
		}
	}
}
