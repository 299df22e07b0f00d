package cleandb

// Incremental-cleaning equivalence property tests: appending rows to a
// source and re-running a cleaning statement through the materialized view
// cache must produce results bit-identical — rows, task rows, repair
// summaries — to a cold full re-clean over the complete data, while the
// delta execution's comparison count stays strictly below the cold run's
// for pair-enumerating (DC) work. The suite fuzzes over worker counts, the
// pinned strategy matrix and the source encodings (in-memory rows, CSV
// files via tail refresh, colbin via programmatic appends).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cleandb/internal/data"
	"cleandb/internal/datagen"
	"cleandb/internal/physical"
)

// incrQueries are the delta-decomposable statements: single-task DENIAL
// (detect-only and REPAIR) and single-task DEDUP with append-stable
// blocking. Each queries exactly one source. A DEDUP's delta pass is its own
// plan under a fresh mask, so whatever the plan expresses — WHERE filters,
// parameters, any unfitted blocker — is delta-served by construction; the
// DEDUP entries spell those out.
var incrQueries = []struct {
	name    string
	query   string
	args    []any
	source  string
	repairs string
	// dc marks statements whose cold run charges per-pair comparisons, so
	// the delta run's count must be strictly below it.
	dc bool
	// quiet marks a DEDUP whose appended rows share a block with nobody: its
	// delta pass must enumerate nothing.
	quiet bool
}{
	{
		// customer's tail rows each have an address of their own.
		name:   "dedup_attribute",
		query:  `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`,
		source: "customer",
		quiet:  true,
	},
	{
		name:   "dedup_attribute_twins",
		query:  `SELECT * FROM twins c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`,
		source: "twins",
	},
	{
		name:   "dedup_tf",
		query:  `SELECT * FROM customer c DEDUP(token_filtering, LD, 0.7, c.name)`,
		source: "customer",
	},
	{
		// The columnar WHERE gathers a new batch and re-boxes the survivors:
		// group members are not the source's records, only equal to them.
		name:   "dedup_where",
		query:  `SELECT * FROM customer c WHERE c.nationkey >= 3 DEDUP(token_filtering, LD, 0.7, c.name)`,
		source: "customer",
	},
	{
		name:   "dedup_param",
		query:  `SELECT * FROM customer c DEDUP(token_filtering, LD, :theta, c.name)`,
		args:   []any{Named("theta", 0.7)},
		source: "customer",
	},
	{
		name:   "dedup_length",
		query:  `SELECT * FROM customer c DEDUP(length, LD, 0.7, c.name)`,
		source: "customer",
	},
	{
		// twins' delta repeats two base rows value for value — the base twins
		// count as fresh, and the pairs that rediscovers are dropped as repeats
		// — and adds a near-duplicate of a third at its address.
		name:   "dedup_twins",
		query:  `SELECT * FROM twins c DEDUP(token_filtering, LD, 0.7, c.name)`,
		source: "twins",
	},
	{
		// The appended rows carry a null band value, a zero and negatives.
		name:   "denial_null_band",
		query:  `SELECT * FROM nulls t1 DENIAL(t2, t1.p > t2.p and t1.d < t2.d)`,
		source: "nulls",
		dc:     true,
	},
	{
		// A string band: no row has a place in the numeric band order.
		name:   "denial_string_band",
		query:  `SELECT * FROM names t1 DENIAL(t2, t1.name < t2.name and t1.d > t2.d)`,
		source: "names",
		dc:     true,
	},
	{
		name: "denial_detect",
		query: `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 9050)`,
		source: "lineitem",
		dc:     true,
	},
	{
		name: "denial_repair",
		query: `SELECT * FROM lineitem t1
DENIAL(t2, t1.extendedprice < t2.extendedprice and t1.discount > t2.discount and t1.extendedprice < 9050)
REPAIR(t1.discount)`,
		source:  "lineitem",
		repairs: "lineitem",
		dc:      true,
	},
}

// incrData returns the full relations plus the ~10% tail that plays the
// appended delta.
func incrData() (custBase, custDelta, lineBase, lineDelta []Value) {
	customer := datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7}).Rows
	lineitem := datagen.GenLineitem(datagen.LineitemConfig{Rows: 150, NoiseDiscount: true, Seed: 11})
	cb := len(customer) - len(customer)/10
	lb := len(lineitem) - len(lineitem)/10
	return customer[:cb], customer[cb:], lineitem[:lb], lineitem[lb:]
}

// bandIncrData returns the base and appended rows of the two DENIAL sources
// whose band values the numeric order cannot place everywhere: nullTail,
// whose last 42 rows are the delta, and 60 names, 10 of them appended.
func bandIncrData() (nullBase, nullDelta, nameBase, nameDelta []Value) {
	nulls := nullTail()
	schema := NewSchema("id", "name", "d")
	var names []Value
	for i := 0; i < 60; i++ {
		names = append(names, NewRecord(schema, []Value{
			Int(int64(i)), String(fmt.Sprintf("n%03d", (37*i)%60)), Int(int64((7 * i) % 13))}))
	}
	return nulls[:200], nulls[200:], names[:50], names[50:]
}

// withTwins returns delta followed by copies — equal values, new records —
// of the first two base rows and a copy of the third under a new custkey.
func withTwins(base, delta []Value) []Value {
	out := append([]Value{}, delta...)
	for i, v := range base[:3] {
		rec := v.Record()
		fields := append([]Value{}, rec.Fields...)
		if i == 2 {
			fields[0] = Int(int64(len(base) + len(out) + 1))
		}
		out = append(out, NewRecord(rec.Schema, fields))
	}
	return out
}

// registerIncr registers the five sources of incrQueries.
func registerIncr(db *DB, customer, twins, lineitem, nulls, names []Value) {
	db.RegisterRows("customer", customer)
	db.RegisterRows("twins", twins)
	db.RegisterRows("lineitem", lineitem)
	db.RegisterRows("nulls", nulls)
	db.RegisterRows("names", names)
}

func concat(a, b []Value) []Value { return append(append([]Value{}, a...), b...) }

// checkIncrEquiv compares a delta-served result against a cold full
// execution: identical rows, task rows and repaired rows.
func checkIncrEquiv(t *testing.T, label string, got, want *Result, repairs string) {
	t.Helper()
	diffRows(t, label+"/rows", canonRows(got.Rows()), canonRows(want.Rows()))
	for _, task := range want.TaskNames() {
		wantRows, _ := want.TaskRowsOK(task)
		gotRows, ok := got.TaskRowsOK(task)
		if !ok {
			t.Fatalf("%s: task %q missing from incremental result", label, task)
		}
		diffRows(t, label+"/task:"+task, canonRows(gotRows), canonRows(wantRows))
	}
	if repairs != "" {
		diffRows(t, label+"/repaired",
			canonRows(got.RepairedRows(repairs)), canonRows(want.RepairedRows(repairs)))
	}
	// What the shared execution tail assembles around the rows.
	if got.Explanation() != want.Explanation() {
		t.Fatalf("%s: EXPLAIN differs:\n%s\n--- cold ---\n%s", label, got.Explanation(), want.Explanation())
	}
	if !reflect.DeepEqual(got.TaskNames(), want.TaskNames()) {
		t.Fatalf("%s: task names %v, cold %v", label, got.TaskNames(), want.TaskNames())
	}
	if !reflect.DeepEqual(repairSummaries(got), repairSummaries(want)) {
		t.Fatalf("%s: repair summaries\n%+v\n--- cold ---\n%+v", label, repairSummaries(got), repairSummaries(want))
	}
}

// repairSummaries copies a result's repair summaries without their healed
// rows (compared canonically by checkIncrEquiv): task, column, convergence
// counters and every entry, in order.
func repairSummaries(r *Result) []RepairSummary {
	var out []RepairSummary
	for _, s := range r.Repairs() {
		c := *s
		c.Rows = nil
		out = append(out, c)
	}
	return out
}

// metricsGrowth is what one call added to the instance-wide accumulators.
func metricsGrowth(before, after Metrics) QueryMetrics {
	g := QueryMetrics{
		SimTicks:        after.SimTicks - before.SimTicks,
		Comparisons:     after.Comparisons - before.Comparisons,
		ShuffledRecords: after.ShuffledRecords - before.ShuffledRecords,
		ShuffledBytes:   after.ShuffledBytes - before.ShuffledBytes,
	}
	for name, n := range after.Strategies {
		if d := n - before.Strategies[name]; d != 0 {
			if g.Strategies == nil {
				g.Strategies = map[string]int64{}
			}
			g.Strategies[name] = d
		}
	}
	return g
}

// TestIncrementalAppendEquivalence is the core property over in-memory
// sources: base query (cold, view stored) → exact hit → append → delta hit
// bit-identical to a cold DB holding all rows, with DC comparisons strictly
// below the cold run's.
func TestIncrementalAppendEquivalence(t *testing.T) {
	strategies := []struct {
		name  string
		group physical.GroupStrategy
		theta physical.ThetaStrategy
	}{
		{"aggregate_mbucket", physical.GroupAggregate, physical.ThetaMBucket},
		{"hash_cartesian", physical.GroupHash, physical.ThetaCartesian},
		{"sort_mbucket", physical.GroupSort, physical.ThetaMBucket},
	}
	custBase, custDelta, lineBase, lineDelta := incrData()
	nullBase, nullDelta, nameBase, nameDelta := bandIncrData()
	twinDelta := withTwins(custBase, custDelta)
	for _, workers := range []int{1, 3, 8} {
		for _, st := range strategies {
			opts := []Option{WithWorkers(workers),
				WithGroupStrategy(st.group), WithThetaStrategy(st.theta)}
			inc := Open(append([]Option{WithViewCache(16)}, opts...)...)
			registerIncr(inc, custBase, custBase, lineBase, nullBase, nameBase)
			cold := Open(opts...)
			registerIncr(cold, concat(custBase, custDelta), concat(custBase, twinDelta), concat(lineBase, lineDelta),
				concat(nullBase, nullDelta), concat(nameBase, nameDelta))

			for _, q := range incrQueries {
				label := fmt.Sprintf("w%d/%s/%s", workers, st.name, q.name)
				first, err := inc.Query(q.query, q.args...)
				if err != nil {
					t.Fatalf("%s: base query: %v", label, err)
				}
				if first.ViewHit() != "" {
					t.Fatalf("%s: first execution served from view %q", label, first.ViewHit())
				}
				again, err := inc.Query(q.query, q.args...)
				if err != nil {
					t.Fatalf("%s: repeat query: %v", label, err)
				}
				if again.ViewHit() != "exact" {
					t.Fatalf("%s: repeat execution not an exact view hit (got %q)", label, again.ViewHit())
				}
				diffRows(t, label+"/exact", canonRows(again.Rows()), canonRows(first.Rows()))
			}

			for name, delta := range map[string][]Value{"customer": custDelta, "twins": twinDelta, "lineitem": lineDelta,
				"nulls": nullDelta, "names": nameDelta} {
				if err := inc.Append(name, delta); err != nil {
					t.Fatalf("append %s: %v", name, err)
				}
			}

			for _, q := range incrQueries {
				label := fmt.Sprintf("w%d/%s/%s", workers, st.name, q.name)
				before := inc.Metrics()
				got, err := inc.Query(q.query, q.args...)
				if err != nil {
					t.Fatalf("%s: delta query: %v", label, err)
				}
				if got.ViewHit() != "delta" {
					t.Fatalf("%s: appended re-execution not a delta view hit (got %q)", label, got.ViewHit())
				}
				// The job's counters reach the instance accumulators once.
				gm := got.Metrics()
				grew := metricsGrowth(before, inc.Metrics())
				if grew.SimTicks != gm.SimTicks || grew.Comparisons != gm.Comparisons ||
					grew.ShuffledRecords != gm.ShuffledRecords || grew.ShuffledBytes != gm.ShuffledBytes ||
					!reflect.DeepEqual(grew.Strategies, gm.Strategies) {
					t.Fatalf("%s: instance metrics grew by %+v, the query reports %+v", label, grew, gm)
				}
				want, err := cold.Query(q.query, q.args...)
				if err != nil {
					t.Fatalf("%s: cold query: %v", label, err)
				}
				checkIncrEquiv(t, label, got, want, q.repairs)
				if !q.dc {
					// A DEDUP delta is the plan under a mask: the stages, the
					// ledger and the cost model see it like the cold run, at
					// the pairs with a fresh member instead of all of them.
					wm := want.Metrics()
					if !reflect.DeepEqual(gm.Strategies, wm.Strategies) || gm.Strategies["pairs:self"] != 1 {
						t.Fatalf("%s: delta strategies %v, cold %v", label, gm.Strategies, wm.Strategies)
					}
					if q.name == "dedup_where" && gm.BatchesEvaluated == 0 {
						t.Fatalf("%s: the WHERE did not run as a columnar filter", label)
					}
					if gm.SimTicks <= 0 || gm.SimTicks >= wm.SimTicks {
						t.Fatalf("%s: delta SimTicks %d, cold %d", label, gm.SimTicks, wm.SimTicks)
					}
					if gm.Comparisons >= wm.Comparisons || (gm.Comparisons == 0) != q.quiet {
						t.Fatalf("%s: delta Comparisons %d (quiet: %v), cold %d", label, gm.Comparisons, q.quiet, wm.Comparisons)
					}
				}
				if q.dc {
					// The ledger shows the delta pass in place of the cold join
					// and, beside it, the same fixpoint re-checks (themselves
					// delta-band passes) the cold REPAIR ran.
					ws := want.Metrics().Strategies
					coldJoin := map[physical.ThetaStrategy]string{
						physical.ThetaMBucket: "join:mbucket", physical.ThetaCartesian: "join:cartesian"}[st.theta]
					if ws[coldJoin] != 1 || gm.Strategies[coldJoin] != 0 ||
						gm.Strategies["join:delta-band"] != ws["join:delta-band"]+1 {
						t.Fatalf("%s: delta strategies %v, cold %v", label, gm.Strategies, ws)
					}
					if q.repairs != "" && ws["join:delta-band"] == 0 {
						t.Fatalf("%s: cold REPAIR ran no fixpoint re-check: %v", label, ws)
					}
					// The delta pass is a logged stage, charged like the join it
					// stands in for, at the pairs with a fresh member.
					if wt := want.Metrics().SimTicks; gm.SimTicks <= 0 || gm.SimTicks >= wt {
						t.Fatalf("%s: delta SimTicks %d, cold %d", label, gm.SimTicks, wt)
					}
				}
				if q.dc {
					// The delta pass charges its candidate pairs to Comparisons;
					// the cold join splits its pair work between Comparisons and
					// stage ticks. Total pair-work must shrink to the delta.
					wm := want.Metrics()
					gc := gm.Comparisons + gm.SimTicks
					wc := wm.Comparisons + wm.SimTicks
					if gm.Comparisons == 0 {
						t.Fatalf("%s: delta pass charged no comparisons", label)
					}
					if gc >= wc {
						t.Fatalf("%s: delta pair-work %d not below cold %d", label, gc, wc)
					}
				}
			}

			vs := inc.ViewCacheStats()
			if vs.Hits == 0 || vs.DeltaHits == 0 {
				t.Fatalf("view cache never engaged: %+v", vs)
			}
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err poll
// on — a deterministic way to cancel in the middle of an operator loop.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestDeltaCancelledMidPassMergesMetricsOnce cancels a delta-served REPAIR
// statement in the middle of its delta pass, the masked self-join stage: the
// execution fails after the stage's up-front charge, and the partial work
// reaches the instance accumulators exactly once — one delta pass in the
// ledger, the whole pass's comparisons, SimTicks short of the whole
// execution's (no REPAIR ran).
func TestDeltaCancelledMidPassMergesMetricsOnce(t *testing.T) {
	_, _, lineBase, lineDelta := incrData()
	q := incrQueries[len(incrQueries)-1].query
	detect := incrQueries[len(incrQueries)-2].query // q without its REPAIR clause
	warm := func(q string) *DB {
		db := Open(WithWorkers(3), WithViewCache(4))
		db.RegisterRows("lineitem", lineBase)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if err := db.Append("lineitem", lineDelta); err != nil {
			t.Fatal(err)
		}
		return db
	}
	// The detect-only twin's delta is the pass alone: its comparisons are the
	// pass's up-front charge, and cancelling halfway through its polls lands
	// inside the pass.
	twin := warm(detect)
	before := twin.Metrics()
	counter := &cancelAfter{Context: context.Background(), n: 1 << 60}
	if res, err := twin.QueryContext(counter, detect); err != nil || res.ViewHit() != "delta" {
		t.Fatalf("uncancelled detect-only delta: hit %q, err %v", res.ViewHit(), err)
	}
	charge := metricsGrowth(before, twin.Metrics()).Comparisons

	whole := warm(q)
	before = whole.Metrics()
	if res, err := whole.Query(q); err != nil || res.ViewHit() != "delta" {
		t.Fatalf("uncancelled delta: hit %q, err %v", res.ViewHit(), err)
	}
	full := metricsGrowth(before, whole.Metrics())

	db := warm(q)
	before = db.Metrics()
	ctx := &cancelAfter{Context: context.Background(), n: counter.polls.Load() / 2}
	if _, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta returned %v", err)
	}
	grew := metricsGrowth(before, db.Metrics())
	if grew.Strategies["join:delta-band"] != 1 || len(grew.Strategies) != 1 {
		t.Fatalf("cancelled delta pass in the ledger: %v, want one join:delta-band", grew.Strategies)
	}
	if grew.Comparisons != charge || grew.SimTicks <= 0 || grew.SimTicks >= full.SimTicks {
		t.Fatalf("cancelled delta grew %+v (pass charge %d), the whole execution %+v", grew, charge, full)
	}
}

// TestDeltaDedupCancelledMidPassMergesMetricsOnce is the same property for a
// delta-served DEDUP, whose pass is the plan's own stages: cancelled inside
// the self-pair stage, the execution fails after the stage's up-front charge,
// and the instance accumulators grow by that partial work once — the stages
// before the cancellation, one pairs:self in the ledger, the whole pass's
// comparisons.
func TestDeltaDedupCancelledMidPassMergesMetricsOnce(t *testing.T) {
	custBase, custDelta, _, _ := incrData()
	q := `SELECT * FROM customer c DEDUP(token_filtering, LD, 0.7, c.name)`
	warm := func() *DB {
		db := Open(WithWorkers(1), WithViewCache(4))
		db.RegisterRows("customer", custBase)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if err := db.Append("customer", custDelta); err != nil {
			t.Fatal(err)
		}
		return db
	}
	// Count the polls of an uncancelled delta — nearly all of them are the
	// pair stage's, one per list element — and cancel half and three quarters
	// of the way through.
	whole := warm()
	before := whole.Metrics()
	counter := &cancelAfter{Context: context.Background(), n: 1 << 60}
	res, err := whole.QueryContext(counter, q)
	if err != nil || res.ViewHit() != "delta" {
		t.Fatalf("uncancelled delta: hit %q, err %v", res.ViewHit(), err)
	}
	full := metricsGrowth(before, whole.Metrics())

	for _, n := range []int64{counter.polls.Load() / 2, counter.polls.Load() * 3 / 4} {
		db := warm()
		before = db.Metrics()
		ctx := &cancelAfter{Context: context.Background(), n: n}
		if _, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("delta cancelled at poll %d returned %v", n, err)
		}
		grew := metricsGrowth(before, db.Metrics())
		if grew.SimTicks <= 0 || grew.SimTicks >= full.SimTicks || grew.Comparisons != full.Comparisons ||
			!reflect.DeepEqual(grew.Strategies, full.Strategies) {
			t.Fatalf("cancelled at poll %d: instance grew %+v, the whole delta %+v", n, grew, full)
		}
	}
}

// TestFittedBlockerFallsBackToFullRun: k-means centers are fitted from the
// data, so an append moves old rows' block keys and the statement is not
// delta-served — the appended re-execution is a full run, equal to a cold one.
func TestFittedBlockerFallsBackToFullRun(t *testing.T) {
	custBase, custDelta, _, _ := incrData()
	q := `SELECT * FROM customer c DEDUP(KMeans, LD, 0.7, c.name)`
	inc := Open(WithViewCache(4))
	inc.RegisterRows("customer", custBase)
	if _, err := inc.Query(q); err != nil {
		t.Fatal(err)
	}
	if again, err := inc.Query(q); err != nil || again.ViewHit() != "exact" {
		t.Fatalf("repeat: hit %q, err %v", again.ViewHit(), err)
	}
	if err := inc.Append("customer", custDelta); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewHit() != "" {
		t.Fatalf("k-means DEDUP over an appended source served from view %q", got.ViewHit())
	}
	cold := Open()
	cold.RegisterRows("customer", concat(custBase, custDelta))
	want, err := cold.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checkIncrEquiv(t, "kmeans", got, want, "")
}

// writeCSVFile renders rows as CSV (header + cells) into path.
func writeCSVFile(t *testing.T, path string, rows []Value) {
	t.Helper()
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendCSVFile renders rows as headerless CSV lines appended to path.
func appendCSVFile(t *testing.T, path string, rows []Value) {
	t.Helper()
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[i+1:]
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(body); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCSVRefreshEquivalence drives the tail-a-file path: append
// bytes past the high-water mark, Refresh, and the delta-served result must
// match a cold DB scanning the grown file in full.
func TestIncrementalCSVRefreshEquivalence(t *testing.T) {
	custBase, custDelta, _, _ := incrData()
	dir := t.TempDir()
	path := filepath.Join(dir, "customer.csv")
	writeCSVFile(t, path, custBase)

	// The second statement filters the parsed rows through a column batch:
	// its group members are re-boxed copies of the rows the file scan kept.
	queries := []string{
		`SELECT * FROM customer c DEDUP(token_filtering, LD, 0.7, c.name)`,
		`SELECT * FROM customer c WHERE c.nationkey >= 3 DEDUP(token_filtering, LD, 0.7, c.name)`,
	}
	inc := Open(WithViewCache(4))
	inc.RegisterCSVFile("customer", path)
	for _, query := range queries {
		if _, err := inc.Query(query); err != nil {
			t.Fatalf("base query: %v", err)
		}
	}

	appendCSVFile(t, path, custDelta)
	added, err := inc.Refresh(context.Background(), "customer")
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if added != len(custDelta) {
		t.Fatalf("refresh added %d rows, want %d", added, len(custDelta))
	}

	cold := Open()
	cold.RegisterCSVFile("customer", path)
	for i, query := range queries {
		got, err := inc.Query(query)
		if err != nil {
			t.Fatalf("delta query: %v", err)
		}
		if got.ViewHit() != "delta" {
			t.Fatalf("post-refresh execution not a delta view hit (got %q)", got.ViewHit())
		}
		want, err := cold.Query(query)
		if err != nil {
			t.Fatalf("cold query: %v", err)
		}
		checkIncrEquiv(t, fmt.Sprintf("csv_refresh/%d", i), got, want, "")
	}

	info, err := inc.SourceInfo("customer")
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltaEpoch != 1 || info.AppendedRows != int64(len(custDelta)) {
		t.Fatalf("source info epochs wrong: %+v", info)
	}
	if int(info.Rows) != len(custBase)+len(custDelta) {
		t.Fatalf("source info rows %d, want %d", info.Rows, len(custBase)+len(custDelta))
	}
}

// TestIncrementalColbinAppendEquivalence drives programmatic appends against
// a colbin-backed source: both the incremental DB (view cache on) and the
// cold DB (off) hold base colbin + appended rows; the view-served result
// must match the cold full execution.
func TestIncrementalColbinAppendEquivalence(t *testing.T) {
	custBase, custDelta, _, _ := incrData()

	// Encode the base rows as colbin via the public export path.
	enc := Open()
	enc.RegisterRows("customer", custBase)
	var buf bytes.Buffer
	if _, err := enc.ExecuteTo(context.Background(), `SELECT * FROM customer c`, NewColbinSink(&buf)); err != nil {
		t.Fatalf("encode colbin: %v", err)
	}

	build := func(opts ...Option) *DB {
		db := Open(opts...)
		if err := db.RegisterColbin("customer", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("register colbin: %v", err)
		}
		if err := db.Append("customer", custDelta); err != nil {
			t.Fatalf("append: %v", err)
		}
		return db
	}
	query := `SELECT * FROM customer c DEDUP(attribute, LD, 0.8, c.address, c.name, c.phone)`

	inc := build(WithViewCache(4))
	// Warm the view over the base, then append and go delta.
	inc2 := Open(WithViewCache(4))
	if err := inc2.RegisterColbin("customer", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := inc2.Query(query); err != nil {
		t.Fatalf("base query: %v", err)
	}
	if err := inc2.Append("customer", custDelta); err != nil {
		t.Fatal(err)
	}
	got, err := inc2.Query(query)
	if err != nil {
		t.Fatalf("delta query: %v", err)
	}
	if got.ViewHit() != "delta" {
		t.Fatalf("appended re-execution not a delta view hit (got %q)", got.ViewHit())
	}

	want, err := inc.Query(query) // full execution: nothing cached for this state
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	checkIncrEquiv(t, "colbin_append", got, want, "")
}

// TestConcurrentAppendWhileQuerying races appends against queries on a
// shared view-cached DB (-race is the real assertion) and checks that
// goroutines settle afterwards. Every query must succeed and report a row
// count consistent with some append prefix.
func TestConcurrentAppendWhileQuerying(t *testing.T) {
	before := runtime.NumGoroutine()
	customer := datagen.GenCustomer(datagen.CustomerConfig{Rows: 60, Seed: 7}).Rows
	base, delta := customer[:40], customer[40:]

	db := Open(WithWorkers(4), WithViewCache(8))
	db.RegisterRows("customer", base)
	query := `SELECT * FROM customer c DEDUP(token_filtering, LD, 0.7, c.name)`
	if _, err := db.Query(query); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, row := range delta {
			if err := db.Append("customer", []Value{row}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Query(query); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append/query: %v", err)
	}

	// The settled state must equal a cold run over all rows.
	got, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	cold := Open(WithWorkers(4))
	cold.RegisterRows("customer", customer)
	want, err := cold.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	diffRows(t, "settled", canonRows(got.Rows()), canonRows(want.Rows()))

	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}

// TestSourceInfoRecomputedAfterReload is the regression test for the stale
// row/byte hints: after a reset re-scan replaces the base partitions, the
// reported rows and bytes must describe the current data, not the
// registration-time hints.
func TestSourceInfoRecomputedAfterReload(t *testing.T) {
	custBase, custDelta, _, _ := incrData()
	dir := t.TempDir()
	path := filepath.Join(dir, "customer.csv")
	writeCSVFile(t, path, custBase)

	db := Open()
	db.RegisterCSVFile("customer", path)
	if err := db.Load(context.Background(), "customer"); err != nil {
		t.Fatal(err)
	}
	info, err := db.SourceInfo("customer")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if int(info.Rows) != len(custBase) || info.Bytes != st.Size() {
		t.Fatalf("loaded info rows=%d bytes=%d, want rows=%d bytes=%d",
			info.Rows, info.Bytes, len(custBase), st.Size())
	}

	// Rewrite the file wholesale (shrink): Refresh must reset to a full
	// re-scan and the info must track the new content exactly.
	all := append(append([]Value{}, custBase[:10]...), custDelta...)
	writeCSVFile(t, path, all)
	if _, err := db.Refresh(context.Background(), "customer"); err != nil {
		t.Fatal(err)
	}
	info, err = db.SourceInfo("customer")
	if err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(path)
	if int(info.Rows) != len(all) || info.Bytes != st.Size() {
		t.Fatalf("reloaded info rows=%d bytes=%d, want rows=%d bytes=%d",
			info.Rows, info.Bytes, len(all), st.Size())
	}
	if info.BaseGen == 0 {
		t.Fatalf("reset re-scan did not move the base generation: %+v", info)
	}
	if info.Appends != 0 || info.AppendedRows != 0 {
		t.Fatalf("reset re-scan kept append counters: %+v", info)
	}
}
