package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cleandb"
	"cleandb/internal/server"
	"cleandb/internal/sink"
	"cleandb/internal/types"
)

// serveMix is the service path: the real HTTP handler on a loopback
// listener, the customer table warm in memory, two closed-loop keep-alive
// clients. Of every ten requests seven execute a prepared handle, two send
// the same text ad hoc (plan-cache hit) and one sends a text with a literal
// no request sent before (plan-cache miss: parse → normalize → lower →
// rewrite). server, the front end, the plan cache, the vectorized filter
// kernels and the JSON-lines sink do the work; joins, cleaning and source do
// nothing.
type serveMix struct {
	env
	rows   []types.Value
	recs   []custRec
	path   string
	oracle *nameOracle
	db     *cleandb.DB
	lb     *loopback
	handle string
	conns  chan *serveConn
	uniq   atomic.Int64

	// traced-run state
	mu       sync.Mutex
	opSpans  map[int]servedOp
	bytesOut atomic.Int64
	rejected atomic.Int64
}

type serveConn struct {
	client *http.Client
	body   bytes.Buffer
}

type servedOp struct {
	span    int
	kind    byte
	planHit bool
}

// The request mix, by position in a block of ten: P executes the prepared
// handle, A sends the statement ad hoc, M sends a never-seen literal.
const servePattern = "PPPAPPMPAP"

// serveWarmup is the number of untimed requests that end set-up.
const serveWarmup = 50 * len(servePattern)

// serveClients is the closed-loop client count: two, or nproc when smaller.
const serveClients = 2

func (w *serveMix) name() string { return wServeMix }
func (w *serveMix) clients() int {
	if w.workers < serveClients {
		return w.workers
	}
	return serveClients
}

// A cycle is ServeCycle requests against a freshly started server. The
// instance-wide metrics keep a record per query served, so the server's live
// heap grows with its age, its collector runs less often and its requests get
// faster: a run that served more requests would report a lower median. Every
// cycle therefore starts from the same state and follows the same schedule.
func (w *serveMix) cycle() int { return w.sizes.ServeCycle }

func (w *serveMix) teardown() {
	if w.lb != nil {
		for len(w.conns) > 0 {
			(<-w.conns).client.CloseIdleConnections()
		}
		w.lb.stop()
		w.lb = nil
	}
	w.db = nil
}

func (w *serveMix) setup() error {
	w.rows, w.recs, _ = genCustomers(w.sizes.ServeCustomers, w.seed)
	buf, err := csvBytes(w.rows)
	if err != nil {
		return err
	}
	if w.path, err = writeFile(w.dir, "customer.csv", buf); err != nil {
		return err
	}
	w.oracle = newNameOracle(w.recs)
	w.opSpans = map[int]servedOp{}
	return w.beginCycle()
}

// beginCycle replaces the server with a fresh one over the same file: table
// loaded, statement prepared, and warmed up.
func (w *serveMix) beginCycle() error {
	w.teardown()
	var err error
	w.db = cleandb.Open(cleandb.WithWorkers(w.workers))
	if err := w.db.RegisterFile("customer", w.path); err != nil {
		return err
	}
	if err := w.db.Load(context.Background(), "customer"); err != nil {
		return err
	}
	if w.lb, err = serveLoopback(server.New(w.db, server.Config{}).Handler()); err != nil {
		return err
	}
	w.conns = make(chan *serveConn, w.clients())
	for i := 0; i < w.clients(); i++ {
		w.conns <- &serveConn{client: keepAliveClient()}
	}

	body, _ := json.Marshal(map[string]string{"query": serveQuery})
	resp, err := http.Post(w.lb.url+"/v1/statements", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var prepared struct {
		Handle string `json:"handle"`
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("prepare: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&prepared); err != nil {
		return err
	}
	w.handle = prepared.Handle
	// Requests take a third of a millisecond, so a warm-up worth the name is
	// hundreds of them: connections open, plan cache filled, heap at its
	// working size.
	for i := 0; i < serveWarmup; i++ {
		if _, err := w.op(i); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// request i of the schedule: the kind comes from the fixed pattern, the
// nation key from the seed.
func (w *serveMix) schedule(i int) (kind byte, n int) {
	i %= w.cycle()
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(w.seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	return servePattern[i%len(servePattern)], int(h.Sum64() % 25)
}

// missText is the serve statement with the nation key inlined and a second,
// per-request literal that changes the text but not the answer.
func missText(n int, uniq int64) string {
	return "SELECT c.name FROM customer c WHERE c.nationkey = " + strconv.Itoa(n) +
		" and c.custkey < " + strconv.FormatInt(1_000_000_000+uniq, 10)
}

type serveReply struct {
	planHit bool
	bytes   int
}

func (w *serveMix) op(i int) (any, error) {
	kind, n := w.schedule(i)
	c := <-w.conns
	defer func() { w.conns <- c }()

	url := w.lb.url + "/v1/query"
	var body string
	switch kind {
	case 'P':
		url = w.lb.url + "/v1/statements/" + w.handle
		body = `{"params":{"n":` + strconv.Itoa(n) + `}}`
	case 'A':
		body = `{"query":` + strconv.Quote(serveQuery) + `,"params":{"n":` + strconv.Itoa(n) + `}}`
	default:
		body = `{"query":` + strconv.Quote(missText(n, w.uniq.Add(1))) + `}`
	}
	resp, err := c.client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		w.rejected.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("request %d (%c): %s", i, kind, resp.Status)
	}
	// The answer check rides in the op: the client had to read these bytes,
	// and a count plus a hash per line is what any consumer would at least do.
	var got digest
	for _, line := range bytes.Split(bytes.TrimSuffix(c.body.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		if len(line) > 0 {
			got.add(string(line))
		}
	}
	if want := w.oracle[n]; !got.equal(want) {
		return nil, fmt.Errorf("request %d (%c, n=%d): answer %v, oracle %v", i, kind, n, got, want)
	}
	if rc := resp.Trailer.Get("Cleandb-Row-Count"); rc != strconv.Itoa(got.n) {
		return nil, fmt.Errorf("request %d: trailer row count %q, body has %d", i, rc, got.n)
	}
	return serveReply{planHit: resp.Trailer.Get("Cleandb-Plan-Cache-Hit") == "true", bytes: c.body.Len()}, nil
}

func (w *serveMix) verify(int, any) error { return nil }

func (w *serveMix) tracedOp(i int, tr *tracer) (any, error) {
	kind, _ := w.schedule(i)
	root := tr.begin(i, 0, "http.request", "server")
	out, err := w.op(i)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	rep := out.(serveReply)
	w.bytesOut.Add(int64(rep.bytes))
	w.mu.Lock()
	w.opSpans[i] = servedOp{span: root, kind: kind, planHit: rep.planHit}
	w.mu.Unlock()
	return out, nil
}

func (w *serveMix) layers(m metrics, tr *tracer, _, st runStats) error {
	ctx := context.Background()
	const n = 7
	text := missText(n, 0)
	if err := layerMetrics(m, layerInput{
		query: text, table: "customer", rows: w.rows, workers: w.workers, customer: true,
	}); err != nil {
		return err
	}

	// The same prepared statement in process: execution into memory, then the
	// JSON-lines encode, each on its own clock.
	stmt, err := w.db.PrepareStmt(serveQuery)
	if err != nil {
		return err
	}
	var execs, pumps, whole []time.Duration
	var cycle cleandb.QueryMetrics
	var parts [][]types.Value
	for k := 0; k < 25; k++ {
		mem := cleandb.NewMemSink()
		t0 := time.Now()
		res, err := stmt.ExecuteTo(ctx, mem, cleandb.Named("n", int64(k)))
		if err != nil {
			return err
		}
		execs = append(execs, time.Since(t0))
		addQueryMetrics(&cycle, res.Metrics())
		cycle.BatchesEvaluated += res.Metrics().BatchesEvaluated
		parts = mem.Partitions()
		t0 = time.Now()
		if _, err := sink.Pump(ctx, cleandb.NewJSONLSink(io.Discard), parts, w.workers); err != nil {
			return err
		}
		pumps = append(pumps, time.Since(t0))
		t0 = time.Now()
		if _, err := stmt.ExecuteTo(ctx, cleandb.NewJSONLSink(io.Discard), cleandb.Named("n", int64(k))); err != nil {
			return err
		}
		whole = append(whole, time.Since(t0))
	}
	if err := sinkMetrics(m, parts, w.workers); err != nil {
		return err
	}
	setEngineCounts(m, cycle)
	exec, pump := percentile(execs, 50), percentile(pumps, 50)
	prepare := time.Duration(m["core.prepare_us"].Value * float64(time.Microsecond))
	penalty, err := w.missPenalty(ctx)
	if err != nil {
		return err
	}
	if penalty < prepare {
		penalty = prepare
	}

	var all, prepared, misses []time.Duration
	hits := 0
	w.mu.Lock()
	for _, o := range w.opSpans {
		s := tr.spans[o.span-1]
		d := time.Duration(s.EndNs - s.StartNs)
		all = append(all, d)
		if o.planHit {
			hits++
		}
		switch o.kind {
		case 'P':
			prepared = append(prepared, d)
		case 'A':
		default:
			misses = append(misses, d)
			// What a miss adds to a request: the root package's cache
			// bookkeeping around core's prepare around the five phases.
			root := tr.replica(o.span, "plan.miss", "cleandb", penalty)
			plan := tr.replica(root, "plan", "core", prepare)
			attachFrontEnd(tr, plan, m)
		}
		tr.replica(o.span, "exec", "physical", exec)
		tr.replica(o.span, "sink.jsonl", "sink", pump)
	}
	w.mu.Unlock()
	if len(all) == 0 {
		return fmt.Errorf("serve_mix: no traced requests")
	}
	m.set("cleandb.plan_cache_hit_ratio", float64(hits)/float64(len(all)))
	m.set("server.request_ms.p50", ms(percentile(all, 50)))
	m.set("server.request_ms.p99", ms(percentile(all, 99)))
	m.set("server.overhead_us", us(percentile(prepared, 50)-percentile(whole, 50)))
	m.set("server.rejected", float64(w.rejected.Load()))
	m.set("server.bytes_out_mb_s", mbPerS(w.bytesOut.Load(), st.wall))
	var ticks int64 = cycle.SimTicks / 25
	if ticks > 0 {
		m.set("engine.ns_per_simtick", float64(exec.Nanoseconds())/float64(ticks))
	}
	m.set("physical.batches_evaluated", float64(cycle.BatchesEvaluated))
	// The front end's share of a miss request: what planning a never-seen
	// text costs in process over the median miss round trip.
	if len(misses) > 0 {
		m.set("trace.frontend_share", penalty.Seconds()/percentile(misses, 50).Seconds())
	}
	return nil
}

// missPenalty is what a plan-cache miss adds to one execution, measured in
// process: the first execution of a never-seen text minus its immediate
// re-execution, which differs only by hitting the plan cache.
func (w *serveMix) missPenalty(ctx context.Context) (time.Duration, error) {
	var first, again []time.Duration
	for k := 0; k < 200; k++ {
		text := missText(k%25, w.uniq.Add(1))
		for _, ds := range []*[]time.Duration{&first, &again} {
			t0 := time.Now()
			if _, err := w.db.ExecuteTo(ctx, text, cleandb.NewJSONLSink(io.Discard)); err != nil {
				return 0, err
			}
			*ds = append(*ds, time.Since(t0))
		}
	}
	return percentile(first, 50) - percentile(again, 50), nil
}
