package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"cleandb"
	"cleandb/internal/dist"
	"cleandb/internal/server"
	"cleandb/internal/types"
)

// clusterTheta is the only workload with dist and the data wire frames on the
// path: a coordinator and one worker in this process on loopback, each two
// engine workers wide, lineitem registered as a
// CSV path under partitioned custody. Each op POSTs the denial_repair_warm
// statement, cap inlined, to the coordinator. The same statement runs
// single-process in denial_repair_warm, so dist's cost is a ratio with a
// stated base.
type clusterTheta struct {
	env
	rows    []types.Value
	recs    []lineRec
	path    string
	oracles [len(priceCaps)]digest

	coordDB, workerDB *cleandb.DB
	coord             *dist.Coordinator
	coordSrv, wkSrv   *loopback
	client            *http.Client
	coldScan          time.Duration

	// traced-run state
	sessionSpans, execSpans []int
	slotsCoord, slotsAll    int64
	rescans                 int64
	workerBytes             int64
	cycleMetrics            cleandb.QueryMetrics
}

// memberWidth is each cluster member's engine width. Two members of width two
// oversubscribe two cores, but width one leaves a theta join with a single
// slot and a scan with a single chunk, so placement would have nothing to
// divide between the members.
const memberWidth = 2

func (w *clusterTheta) name() string      { return wClusterTheta }
func (w *clusterTheta) clients() int      { return 1 }
func (w *clusterTheta) cycle() int        { return len(priceCaps) }
func (w *clusterTheta) beginCycle() error { return nil }

func (w *clusterTheta) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.coord != nil {
		w.coord.Close()
		w.coord = nil
	}
	for _, s := range []*loopback{w.coordSrv, w.wkSrv} {
		if s != nil {
			s.stop()
		}
	}
	w.coordSrv, w.wkSrv, w.coordDB, w.workerDB = nil, nil, nil, nil
}

func (w *clusterTheta) setup() error {
	w.rows, w.recs = genLineitems(w.sizes.ClusterLineitems, w.seed)
	buf, err := csvBytes(w.rows)
	if err != nil {
		return err
	}
	if w.path, err = writeFile(w.dir, "lineitem.csv", buf); err != nil {
		return err
	}
	for k, c := range priceCaps {
		w.oracles[k] = naiveDC(w.recs, dcRule{priceCap: c})
	}

	w.coordDB = cleandb.Open(cleandb.WithWorkers(memberWidth))
	if err := w.coordDB.RegisterFile("lineitem", w.path); err != nil {
		return err
	}
	w.coord = dist.NewCoordinator(w.coordDB, dist.Config{Custody: dist.CustodyPartitioned})
	if w.coordSrv, err = serveLoopback(server.New(w.coordDB, server.Config{Coordinator: w.coord}).Handler()); err != nil {
		return err
	}
	w.coord.SetAdvertiseURL(w.coordSrv.url)

	w.workerDB = cleandb.Open(cleandb.WithWorkers(memberWidth))
	wk := dist.NewWorker(w.workerDB)
	if w.wkSrv, err = serveLoopback(server.New(w.workerDB, server.Config{Worker: wk}).Handler()); err != nil {
		return err
	}
	reg, _ := json.Marshal(map[string]string{"url": w.wkSrv.url, "fingerprint": wk.Fingerprint()})
	resp, err := http.Post(w.coordSrv.url+"/v1/cluster/register", "application/json", bytes.NewReader(reg))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register worker: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	w.client = keepAliveClient()

	// The first query pays the cold custody scan: each member parses its own
	// chunks and gathers the rest through the barrier exchange.
	t0 := time.Now()
	out, err := w.op(0)
	w.coldScan = time.Since(t0)
	if err == nil {
		err = w.verify(0, out)
	}
	if err != nil {
		return fmt.Errorf("cold query: %w", err)
	}
	return warmUp(w, w.cycle())
}

type clusterReply struct {
	body     []byte
	trailers http.Header
}

func (w *clusterTheta) op(i int) (any, error) {
	q := denialRepairLiteral(priceCaps[i%len(priceCaps)])
	resp, err := w.client.Post(w.coordSrv.url+"/v1/query", "text/plain", strings.NewReader(q))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query %d: %s: %s", i, resp.Status, strings.TrimSpace(string(body)))
	}
	return clusterReply{body: body, trailers: resp.Trailer}, nil
}

// ndjsonPair is one streamed violation: {"a": {...}, "b": {...}}.
type ndjsonPair struct {
	A, B struct {
		Order int64 `json:"orderkey"`
		Line  int64 `json:"linenumber"`
	}
}

func (w *clusterTheta) verify(i int, out any) error {
	rep, ok := out.(clusterReply)
	if !ok {
		return nil // a traced op, verified in full where it ran
	}
	var got digest
	dec := json.NewDecoder(bytes.NewReader(rep.body))
	for dec.More() {
		var p ndjsonPair
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("query %d: response line %d: %w", i, got.n+1, err)
		}
		got.addHash(pairHash(lineID{p.A.Order, p.A.Line}, lineID{p.B.Order, p.B.Line}))
	}
	if want := w.oracles[i%len(priceCaps)]; !got.equal(want) {
		return fmt.Errorf("query %d: violations %v, oracle %v", i, got, want)
	}
	if n := rep.trailers.Get("Cleandb-Cluster-Workers"); n != "1" {
		return fmt.Errorf("query %d: %q worker fragments completed, want 1", i, n)
	}
	if dead := rep.trailers.Get("Cleandb-Cluster-Dead"); dead != "" {
		return fmt.Errorf("query %d: members evicted: %s", i, dead)
	}
	if n := rep.trailers.Get("Cleandb-Custody-Rescans"); n != "0" {
		return fmt.Errorf("query %d: %s custody rescans", i, n)
	}
	return nil
}

// tracedOp drives the distributed session by the public calls the server's
// execute path makes — StartSession, the coordinator's own execution with its
// exchange seat attached, Finish, Close — so the session's cost is visible
// apart from the execution it wraps.
func (w *clusterTheta) tracedOp(i int, tr *tracer) (any, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := i % len(priceCaps)
	q := denialRepairLiteral(priceCaps[k])
	root := tr.begin(i, 0, "op", "bench")
	defer tr.end(root)

	start := tr.begin(i, root, "dist.session.start", "dist")
	sess := w.coord.StartSession(ctx, q, nil)
	tr.end(start)
	if sess == nil {
		return nil, fmt.Errorf("query %d: the coordinator declined to open a session", i)
	}
	defer sess.Close()
	exec := tr.begin(i, root, "exec", "physical")
	res, err := w.coordDB.ExecuteTo(sess.Attach(ctx), q, cleandb.NewJSONLSink(io.Discard))
	tr.end(exec)
	if err != nil {
		return nil, err
	}
	finish := tr.begin(i, root, "dist.session.finish", "dist")
	frags := sess.Finish()
	tr.end(finish)

	if err := verifyDenialRepair(res, w.recs, dcRule{priceCap: priceCaps[k]}, w.oracles[k]); err != nil {
		return nil, err
	}
	w.sessionSpans = append(w.sessionSpans, start, finish)
	w.execSpans = append(w.execSpans, exec)
	if i < w.cycle() {
		addQueryMetrics(&w.cycleMetrics, res.Metrics())
		w.slotsCoord += sess.ExecSlots()
		w.slotsAll += sess.ExecSlots()
		w.rescans += sess.CustodyRescans()
		for _, f := range frags {
			if f.Err != "" {
				return nil, fmt.Errorf("query %d: fragment on %s: %s", i, f.Worker, f.Err)
			}
			w.slotsAll += f.ExecSlots
			w.rescans += f.CustodyRescans
			w.workerBytes = f.OwnedBytes
		}
	}
	return traced{}, nil
}

// traced marks an op the traced path already verified in full.
type traced struct{}

func (w *clusterTheta) layers(m metrics, tr *tracer, base, _ runStats) error {
	if err := layerMetrics(m, layerInput{
		query: denialRepairLiteral(midCap), table: "lineitem", rows: w.rows, workers: memberWidth,
		rule: &dcRule{priceCap: midCap}, repair: true,
	}); err != nil {
		return err
	}
	setEngineCounts(m, w.cycleMetrics)
	attachJoinRepair(tr, w.execSpans, m)
	setNsPerSimTick(m, tr, w.execSpans, w.cycleMetrics.SimTicks/int64(w.cycle()))

	// dist.session_ms: what a session adds around the execution it wraps.
	var session time.Duration
	for _, d := range spanDurations(tr, w.sessionSpans) {
		session += d
	}
	m.set("dist.session_ms", ms(session)/float64(len(w.execSpans)))
	m.set("dist.exec_slots_coord", float64(w.slotsCoord))
	m.set("dist.exec_slots_cluster", float64(w.slotsAll))
	m.set("dist.custody_rescans", float64(w.rescans))
	m.set("dist.cold_scan_ms", ms(w.coldScan))
	info, err := w.coordDB.SourceInfo("lineitem")
	if err != nil {
		return err
	}
	m.set("dist.loaded_bytes_per_node", float64(info.OwnedBytes+w.workerBytes)/2)
	m.set("cleandb.plan_cache_hit_ratio", 1)

	// The base of dist.vs_single_ratio: the same statements, same rows, same
	// engine width, one process.
	single := cleandb.Open(cleandb.WithWorkers(memberWidth))
	if err := single.RegisterFile("lineitem", w.path); err != nil {
		return err
	}
	var singles []time.Duration
	var last *cleandb.Result
	for i := 0; i < 3*w.cycle(); i++ {
		q := denialRepairLiteral(priceCaps[i%len(priceCaps)])
		t0 := time.Now()
		res, err := single.ExecuteTo(context.Background(), q, cleandb.NewJSONLSink(io.Discard))
		if err != nil {
			return err
		}
		if i >= w.cycle() { // the first cycle loads the file and fills the plan cache
			singles = append(singles, time.Since(t0))
		}
		last = res
	}
	if single1 := percentile(singles, 50); single1 > 0 {
		m.set("dist.vs_single_ratio", percentile(base.durs, 50).Seconds()/single1.Seconds())
	}
	return sinkMetrics(m, partition(last.Rows(), memberWidth), memberWidth)
}
