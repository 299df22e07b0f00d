package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cleandb"
	"cleandb/internal/types"
)

// denialRepairWarm is the warm, join-bound path (Figure 6 / Table 5 / Table
// R1): one long-lived DB with lineitem loaded from colbin during set-up, one
// prepared DENIAL + REPAIR statement, each op an Exec with the next of eight
// :cap values. physical pair predicates, the engine theta join and the
// relaxation repair dominate; source, the front end and sink are bypassed.
type denialRepairWarm struct {
	env
	rows    []types.Value
	recs    []lineRec
	db      *cleandb.DB
	stmt    *cleandb.Stmt
	oracles [len(priceCaps)]digest

	execSpans    []int
	cycleMetrics cleandb.QueryMetrics
}

func (w *denialRepairWarm) name() string      { return wDenialRepair }
func (w *denialRepairWarm) clients() int      { return 1 }
func (w *denialRepairWarm) cycle() int        { return len(priceCaps) }
func (w *denialRepairWarm) beginCycle() error { return nil }
func (w *denialRepairWarm) teardown()         { w.db, w.stmt = nil, nil }

func (w *denialRepairWarm) setup() error {
	w.rows, w.recs = genLineitems(w.sizes.DenialLineitems, w.seed)
	buf, err := colbinBytes(w.rows)
	if err != nil {
		return err
	}
	path, err := writeFile(w.dir, "lineitem.colbin", buf)
	if err != nil {
		return err
	}
	for k, c := range priceCaps {
		w.oracles[k] = naiveDC(w.recs, dcRule{priceCap: c})
	}
	w.db = cleandb.Open(cleandb.WithWorkers(w.workers))
	if err := w.db.RegisterFile("lineitem", path); err != nil {
		return err
	}
	if err := w.db.Load(context.Background(), "lineitem"); err != nil {
		return err
	}
	if w.stmt, err = w.db.PrepareStmt(denialRepairParam); err != nil {
		return err
	}
	return warmUp(w, w.cycle())
}

func (w *denialRepairWarm) op(i int) (any, error) {
	return w.stmt.Exec(cleandb.Named("cap", priceCaps[i%len(priceCaps)]))
}

func (w *denialRepairWarm) verify(i int, out any) error {
	res := out.(*cleandb.Result)
	k := i % len(priceCaps)
	return verifyDenialRepair(res, w.recs, dcRule{priceCap: priceCaps[k]}, w.oracles[k])
}

// verifyDenialRepair checks a DENIAL + REPAIR result: the violation set
// against the naive oracle, then the healed rows by re-running the naive
// check over them.
func verifyDenialRepair(res *cleandb.Result, recs []lineRec, r dcRule, want digest) error {
	if got := dcDigestOfRows(res.Rows()); !got.equal(want) {
		return fmt.Errorf("cap %g: violations %v, oracle %v", r.priceCap, got, want)
	}
	reps := res.Repairs()
	if len(reps) != 1 {
		return fmt.Errorf("cap %g: %d repair summaries, want 1", r.priceCap, len(reps))
	}
	if reps[0].Remaining != 0 {
		return fmt.Errorf("cap %g: repair left %d violations", r.priceCap, reps[0].Remaining)
	}
	if want.n == 0 {
		return nil
	}
	return checkRepair(recs, res.RepairedRows("lineitem"), r)
}

func (w *denialRepairWarm) tracedOp(i int, tr *tracer) (any, error) {
	root := tr.begin(i, 0, "op", "bench")
	exec := tr.begin(i, root, "exec", "physical")
	out, err := w.op(i)
	tr.end(exec)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	w.execSpans = append(w.execSpans, exec)
	if i < w.cycle() {
		addQueryMetrics(&w.cycleMetrics, out.(*cleandb.Result).Metrics())
	}
	return out, nil
}

func addQueryMetrics(sum *cleandb.QueryMetrics, q cleandb.QueryMetrics) {
	sum.SimTicks += q.SimTicks
	sum.Comparisons += q.Comparisons
	sum.ShuffledRecords += q.ShuffledRecords
	sum.ShuffledBytes += q.ShuffledBytes
	sum.SimCacheHits += q.SimCacheHits
	sum.SimCacheMisses += q.SimCacheMisses
}

// midCap is the representative binding the standalone layer timers use.
var midCap = priceCaps[len(priceCaps)/2]

func (w *denialRepairWarm) layers(m metrics, tr *tracer, _, _ runStats) error {
	err := layerMetrics(m, layerInput{
		query: denialRepairParam, table: "lineitem", rows: w.rows, workers: w.workers,
		params: map[string]types.Value{"cap": types.Float(midCap)},
		rule:   &dcRule{priceCap: midCap}, repair: true,
	})
	if err != nil {
		return err
	}
	res, err := w.stmt.Exec(cleandb.Named("cap", midCap))
	if err != nil {
		return err
	}
	if err := sinkMetrics(m, partition(res.Rows(), w.workers), w.workers); err != nil {
		return err
	}
	setEngineCounts(m, w.cycleMetrics)
	attachJoinRepair(tr, w.execSpans, m)
	setNsPerSimTick(m, tr, w.execSpans, w.cycleMetrics.SimTicks/int64(w.cycle()))
	return nil
}

// attachJoinRepair lays the standalone theta join and relaxation repair
// inside each exec span of a DENIAL + REPAIR op.
func attachJoinRepair(tr *tracer, execSpans []int, m metrics) {
	join := time.Duration(m["engine.theta_join_ms"].Value * float64(time.Millisecond))
	repair := time.Duration(m["cleaning.repair_ms"].Value * float64(time.Millisecond))
	for _, id := range execSpans {
		tr.replica(id, "engine.theta_join", "engine", join)
		tr.replica(id, "cleaning.repair", "cleaning", repair)
	}
}

// partition splits rows into n near-equal partitions for the sink timers.
func partition(rows []types.Value, n int) [][]types.Value {
	if n < 1 {
		n = 1
	}
	per := int(math.Ceil(float64(len(rows)) / float64(n)))
	var out [][]types.Value
	for lo := 0; lo < len(rows); lo += per {
		hi := lo + per
		if hi > len(rows) {
			hi = len(rows)
		}
		out = append(out, rows[lo:hi])
	}
	return out
}
