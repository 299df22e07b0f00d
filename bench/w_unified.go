package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"cleandb"
	"cleandb/internal/sink"
	"cleandb/internal/types"
)

// unifiedCold is the analyst's cold path and the paper's running example
// (Figure 5): every op opens a fresh DB, registers a dirty customer CSV and
// runs FD + FD + DEDUP as one statement into a CSV sink. source, engine
// grouping, textsim and sink do the work; the front end plans once per op;
// incr, server and dist do nothing.
type unifiedCold struct {
	env
	rows   []types.Value
	recs   []custRec
	path   string
	oracle unifiedOracle

	last *cleandb.DB // the latest op's DB, kept reachable for resident_mb

	// traced-run state
	planSpans, execSpans []int
	lastParts            [][]types.Value
	cycleMetrics         cleandb.QueryMetrics
}

func (w *unifiedCold) name() string      { return wUnifiedCold }
func (w *unifiedCold) clients() int      { return 1 }
func (w *unifiedCold) cycle() int        { return 1 }
func (w *unifiedCold) beginCycle() error { return nil }
func (w *unifiedCold) teardown()         { w.last = nil }

func (w *unifiedCold) setup() error {
	var truth map[string]bool
	w.rows, w.recs, truth = genCustomers(w.sizes.UnifiedCustomers, w.seed)
	buf, err := csvBytes(w.rows)
	if err != nil {
		return err
	}
	if w.path, err = writeFile(w.dir, "customer.csv", buf); err != nil {
		return err
	}
	w.oracle = newUnifiedOracle(w.recs, truth)
	return warmUp(w, warmupOps)
}

func (w *unifiedCold) op(int) (any, error) {
	db := cleandb.Open(cleandb.WithWorkers(w.workers))
	w.last = db
	if err := db.RegisterFile("customer", w.path); err != nil {
		return nil, err
	}
	return db.ExecuteTo(context.Background(), unifiedQuery, cleandb.NewCSVSink(io.Discard))
}

func (w *unifiedCold) verify(_ int, out any) error {
	res := out.(*cleandb.Result)
	got, truthFound, err := unifiedDigestOfRows(res.Rows(), w.oracle.truth)
	if err != nil {
		return err
	}
	if truthFound < w.oracle.truthFound {
		return fmt.Errorf("DEDUP found %d ground-truth pairs, floor is %d", truthFound, w.oracle.truthFound)
	}
	if !got.equal(w.oracle.want) {
		return fmt.Errorf("unified answer %v, oracle %v", got, w.oracle.want)
	}
	if n := res.Metrics().ExportedRows; n != int64(w.oracle.want.n) {
		return fmt.Errorf("exported %d rows, oracle has %d entities", n, w.oracle.want.n)
	}
	return nil
}

func (w *unifiedCold) tracedOp(i int, tr *tracer) (any, error) {
	ctx := context.Background()
	root := tr.begin(i, 0, "op", "bench")
	defer tr.end(root)
	db := cleandb.Open(cleandb.WithWorkers(w.workers))
	w.last = db

	var err error
	tr.in(i, root, "source.scan", "source", func() {
		if err = db.RegisterFile("customer", w.path); err == nil {
			err = db.Load(ctx, "customer")
		}
	})
	if err != nil {
		return nil, err
	}
	var stmt *cleandb.Stmt
	plan := tr.begin(i, root, "plan", "core")
	stmt, err = db.PrepareStmt(unifiedQuery)
	tr.end(plan)
	if err != nil {
		return nil, err
	}
	mem := cleandb.NewMemSink()
	var res *cleandb.Result
	exec := tr.begin(i, root, "exec", "physical")
	res, err = stmt.ExecuteTo(ctx, mem)
	tr.end(exec)
	if err != nil {
		return nil, err
	}
	parts := mem.Partitions()
	tr.in(i, root, "sink", "sink", func() {
		_, err = sink.Pump(ctx, cleandb.NewCSVSink(io.Discard), parts, w.workers)
	})
	w.planSpans = append(w.planSpans, plan)
	w.execSpans = append(w.execSpans, exec)
	w.lastParts = parts
	if i == 0 {
		w.cycleMetrics = res.Metrics()
	}
	return res, err
}

func (w *unifiedCold) layers(m metrics, tr *tracer, _, _ runStats) error {
	err := layerMetrics(m, layerInput{
		query: unifiedQuery, table: "customer", rows: w.rows, workers: w.workers, customer: true,
	})
	if err != nil {
		return err
	}
	if err := sinkMetrics(m, w.lastParts, w.workers); err != nil {
		return err
	}
	setEngineCounts(m, w.cycleMetrics)
	// DEDUP compares every pair inside an address group.
	groups := map[string]int{}
	for _, c := range w.recs {
		groups[c.address]++
	}
	pairs := 0
	for _, n := range groups {
		pairs += n * (n - 1) / 2
	}
	lev := time.Duration(m["textsim.lev_ns_per_pair"].Value * float64(pairs))
	group := time.Duration(m["engine.group_ms"].Value * float64(time.Millisecond))
	for k := range w.execSpans {
		attachFrontEnd(tr, w.planSpans[k], m)
		tr.replica(w.execSpans[k], "engine.group", "engine", group)
		tr.replica(w.execSpans[k], "textsim.lev", "textsim", lev)
	}
	setNsPerSimTick(m, tr, w.execSpans, w.cycleMetrics.SimTicks)
	return nil
}

// attachFrontEnd lays the five front-end phases, at their standalone medians,
// inside a plan span; what is left of the span is core's own time.
func attachFrontEnd(tr *tracer, planSpan int, m metrics) {
	for _, p := range []struct{ name, layer, metric string }{
		{"lang.parse", "lang", "lang.parse_us"},
		{"lang.desugar", "lang", "lang.desugar_us"},
		{"monoid.normalize", "monoid", "monoid.normalize_us"},
		{"algebra.lower", "algebra", "algebra.lower_us"},
		{"algebra.rewrite", "algebra", "algebra.rewrite_us"},
	} {
		tr.replica(planSpan, p.name, p.layer, time.Duration(m[p.metric].Value*float64(time.Microsecond)))
	}
}

// setEngineCounts records the engine's own cost counters of one fixed op
// sequence; they must repeat exactly.
func setEngineCounts(m metrics, q cleandb.QueryMetrics) {
	m.set("engine.comparisons", float64(q.Comparisons))
	m.set("engine.shuffled_records", float64(q.ShuffledRecords))
	m.set("engine.shuffled_mb", float64(q.ShuffledBytes)/1e6)
	m.set("engine.sim_ticks", float64(q.SimTicks))
	if probes := q.SimCacheHits + q.SimCacheMisses; probes > 0 {
		m.set("textsim.sim_cache_hit_ratio", float64(q.SimCacheHits)/float64(probes))
	}
}

// setNsPerSimTick divides the mean wall time of the exec spans by the
// SimTicks the cost model charged one such execution.
func setNsPerSimTick(m metrics, tr *tracer, execSpans []int, ticksPerOp int64) {
	if len(execSpans) == 0 || ticksPerOp <= 0 {
		return
	}
	var total time.Duration
	for _, d := range spanDurations(tr, execSpans) {
		total += d
	}
	m.set("engine.ns_per_simtick", float64(total.Nanoseconds())/float64(len(execSpans))/float64(ticksPerOp))
}
