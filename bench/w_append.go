package main

import (
	"fmt"
	"math"
	"time"

	"cleandb"
	"cleandb/internal/types"
)

// appendReclean is the pipeline that appends and re-cleans: one long-lived
// view-cached DB over a CSV-file-backed lineitem base, the shifted-band DC
// warmed once, then each op appends a 0.5% batch and re-asks the same
// question, which must be answered as a delta over the cached view. It uses
// the DENIAL machinery of denial_repair_warm differently — writes beside
// reads, delta enumeration instead of a full pass.
//
// The table grows by design, so the run is a fixed sequence: a cycle is
// AppendCycle ops over a DB reset to the base file (the reset is off the
// clock), and op k of every cycle sees exactly the same table.
type appendReclean struct {
	env
	rows    []types.Value // base rows, then one batch per op of a cycle
	recs    []lineRec
	path    string
	batches [][]byte // CSV payload of op k
	oracles []digest // expected answer after op k
	db      *cleandb.DB
	pos     int // ops done in the current cycle

	// traced-run state
	appendSpans, deltaSpans []int
	deltaHits, ops          int
	planHits                int
	deltaComparisons        int64
	cycleMetrics            cleandb.QueryMetrics
}

func (w *appendReclean) name() string { return wAppendClean }
func (w *appendReclean) clients() int { return 1 }
func (w *appendReclean) cycle() int   { return w.sizes.AppendCycle }
func (w *appendReclean) teardown()    { w.db = nil }

var shiftedBand = dcRule{shift: 0.08, priceCap: math.Inf(1)}

func (w *appendReclean) setup() error {
	base, batch, k := w.sizes.AppendBase, w.sizes.AppendBatch, w.sizes.AppendCycle
	w.rows, w.recs = genLineitems(base+batch*k, w.seed)
	buf, err := csvBytes(w.rows[:base])
	if err != nil {
		return err
	}
	if w.path, err = writeFile(w.dir, "lineitem.csv", buf); err != nil {
		return err
	}
	w.batches, w.oracles = make([][]byte, k), make([]digest, k)
	d := naiveDC(w.recs[:base], shiftedBand)
	for i := 0; i < k; i++ {
		lo, hi := base+i*batch, base+(i+1)*batch
		if w.batches[i], err = csvPayload(w.rows[lo:hi]); err != nil {
			return err
		}
		d = naiveDCDelta(d, w.recs[:lo], w.recs[lo:hi], shiftedBand)
		w.oracles[i] = d
	}
	return warmUp(w, warmupOps)
}

// beginCycle resets the DB to the base file and warms the view once.
func (w *appendReclean) beginCycle() error {
	w.db = cleandb.Open(cleandb.WithWorkers(w.workers), cleandb.WithViewCache(4))
	w.pos = 0
	if err := w.db.RegisterFile("lineitem", w.path); err != nil {
		return err
	}
	_, err := w.db.Query(shiftedBandQuery)
	return err
}

func (w *appendReclean) op(int) (any, error) {
	if err := w.db.AppendCSV("lineitem", w.batches[w.pos]); err != nil {
		return nil, err
	}
	return w.db.Query(shiftedBandQuery)
}

func (w *appendReclean) verify(_ int, out any) error {
	res := out.(*cleandb.Result)
	k := w.pos
	w.pos++
	if hit := res.ViewHit(); hit != "delta" {
		return fmt.Errorf("append %d: served as %q, want a delta view", k, hit)
	}
	if got := dcDigestOfRows(res.Rows()); !got.equal(w.oracles[k]) {
		return fmt.Errorf("append %d: violations %v, oracle %v", k, got, w.oracles[k])
	}
	return nil
}

func (w *appendReclean) tracedOp(i int, tr *tracer) (any, error) {
	root := tr.begin(i, 0, "op", "bench")
	defer tr.end(root)
	var err error
	ap := tr.begin(i, root, "append", "cleandb")
	err = w.db.AppendCSV("lineitem", w.batches[w.pos])
	tr.end(ap)
	if err != nil {
		return nil, err
	}
	var res *cleandb.Result
	dl := tr.begin(i, root, "requery", "incr")
	res, err = w.db.Query(shiftedBandQuery)
	tr.end(dl)
	if err != nil {
		return nil, err
	}
	w.appendSpans = append(w.appendSpans, ap)
	w.deltaSpans = append(w.deltaSpans, dl)
	w.ops++
	if res.ViewHit() == "delta" {
		w.deltaHits++
	}
	q := res.Metrics()
	if q.PlanCacheHit {
		w.planHits++
	}
	if i < w.cycle() {
		addQueryMetrics(&w.cycleMetrics, q)
		w.deltaComparisons += q.Comparisons
	}
	return res, nil
}

func spanDurations(tr *tracer, ids []int) []time.Duration {
	out := make([]time.Duration, len(ids))
	for i, id := range ids {
		s := tr.spans[id-1]
		out[i] = time.Duration(s.EndNs - s.StartNs)
	}
	return out
}

func (w *appendReclean) layers(m metrics, tr *tracer, _, _ runStats) error {
	if err := layerMetrics(m, layerInput{
		query: shiftedBandQuery, table: "lineitem", rows: w.rows[:w.sizes.AppendBase],
		workers: w.workers, rule: &shiftedBand,
	}); err != nil {
		return err
	}
	if w.ops == 0 {
		return fmt.Errorf("append_reclean: no traced ops")
	}
	m.set("cleandb.append_ms", ms(percentile(spanDurations(tr, w.appendSpans), 50)))
	m.set("incr.delta_ms", ms(percentile(spanDurations(tr, w.deltaSpans), 50)))
	m.set("cleandb.view_delta_hit_ratio", float64(w.deltaHits)/float64(w.ops))
	m.set("cleandb.plan_cache_hit_ratio", float64(w.planHits)/float64(w.ops))
	setEngineCounts(m, w.cycleMetrics)

	// The base of the comparison ratio: one cold query over the table as the
	// cycle's last append left it.
	cold := cleandb.Open(cleandb.WithWorkers(w.workers))
	cold.RegisterRows("lineitem", w.rows)
	last, err := cold.Query(shiftedBandQuery)
	if err != nil {
		return err
	}
	if c := last.Metrics().Comparisons; c > 0 {
		m.set("incr.delta_vs_cold_comparisons", float64(w.deltaComparisons)/float64(c))
	}
	if err := sinkMetrics(m, partition(last.Rows(), w.workers), w.workers); err != nil {
		return err
	}
	setNsPerSimTick(m, tr, w.deltaSpans, w.cycleMetrics.SimTicks/int64(w.cycle()))
	return nil
}
