package cleandb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cleandb/internal/engine"
)

func demoDB() *DB {
	db := Open(WithWorkers(4))
	custSchema := NewSchema("name", "address", "phone", "nationkey")
	db.RegisterRows("customer", []Value{
		NewRecord(custSchema, []Value{String("alice"), String("12 oak st"), String("111-5550"), Int(1)}),
		NewRecord(custSchema, []Value{String("alicia"), String("12 oak st"), String("222-5551"), Int(1)}),
		NewRecord(custSchema, []Value{String("bob"), String("7 elm ave"), String("333-5552"), Int(2)}),
		NewRecord(custSchema, []Value{String("krol"), String("9 pine rd"), String("444-5553"), Int(3)}),
	})
	dictSchema := NewSchema("term")
	db.RegisterRows("dictionary", []Value{
		NewRecord(dictSchema, []Value{String("alice")}),
		NewRecord(dictSchema, []Value{String("bob")}),
		NewRecord(dictSchema, []Value{String("karol")}),
	})
	return db
}

func TestQueryPlain(t *testing.T) {
	db := demoDB()
	res, err := db.Query(`SELECT c.name AS n FROM customer c WHERE c.nationkey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows()) != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
}

func TestQueryCleaningUnified(t *testing.T) {
	db := demoDB()
	res, err := db.Query(`
SELECT * FROM customer c, dictionary d
FD(c.address, prefix(c.phone))
CLUSTER BY(token_filtering, LD, 0.7, c.name)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) == 0 {
		t.Fatal("expected combined violations")
	}
	names := res.TaskNames()
	if len(names) != 2 || names[0] != "fd1" || names[1] != "clusterby1" {
		t.Fatalf("task names = %v", names)
	}
}

func TestExplainShowsAllLevels(t *testing.T) {
	db := demoDB()
	out, err := db.Explain(`SELECT * FROM customer c FD(c.address, c.nationkey) DEDUP(attribute, LD, 0.8, c.address, c.name)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"comprehension", "groupby", "Nest", "shared node", "CombineAll"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterFormats(t *testing.T) {
	db := Open(WithWorkers(2))
	if err := db.RegisterCSV("t", strings.NewReader("a,b\n1,x\n2,y\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterJSON("j", strings.NewReader(`{"a":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterXML("x", strings.NewReader(`<r><e><a>1</a></e></r>`)); err != nil {
		t.Fatal(err)
	}
	got := db.Sources()
	if len(got) != 3 || got[0] != "j" || got[1] != "t" || got[2] != "x" {
		t.Fatalf("sources = %v", got)
	}
	rows, err := db.Rows("t")
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	if _, err := db.Rows("nope"); err == nil {
		t.Fatal("unknown source should error")
	}
}

func TestQueryErrors(t *testing.T) {
	db := demoDB()
	for _, q := range []string{
		`SELECT`,
		`SELECT * FROM nosuchtable n`,
		`SELECT * FROM customer c CLUSTER BY(tf, LD, 0.8, c.name)`, // no dictionary
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestMetricsAccumulateAndReset(t *testing.T) {
	db := demoDB()
	if _, err := db.Query(`SELECT c.name FROM customer c`); err != nil {
		t.Fatal(err)
	}
	if db.Metrics().SimTicks == 0 {
		t.Fatal("metrics should accumulate")
	}
	db.ResetMetrics()
	if db.Metrics().SimTicks != 0 {
		t.Fatal("reset should clear")
	}
}

// TestInstanceMetricsBoundedAcrossQueries: serving a query folds its stage
// records into the instance collector's running totals, so the instance
// neither keeps a record per query served (its stage log and live heap stop
// growing) nor loses anything DB.Metrics reports: over a mixed sequence the
// instance totals are the sum of the queries' own.
func TestInstanceMetricsBoundedAcrossQueries(t *testing.T) {
	db := demoDB()
	queries := []string{
		`SELECT c.name FROM customer c WHERE c.nationkey > 1`,
		`SELECT * FROM customer c FD(c.address, c.nationkey)`,
		`SELECT * FROM customer c DEDUP(token_filtering, LD, 0.6, c.name)`,
	}
	var want Metrics
	serve := func(n int) {
		for i := 0; i < n; i++ {
			res, err := db.Query(queries[i%len(queries)])
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics()
			want.SimTicks += m.SimTicks
			want.Comparisons += m.Comparisons
			want.ShuffledRecords += m.ShuffledRecords
			want.ShuffledBytes += m.ShuffledBytes
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := db.Metrics() // what loading the sources logged
	serve(1500)
	stages, heap := len(db.ctx.Metrics().Stages()), liveHeap()
	serve(4500)
	if n := len(db.ctx.Metrics().Stages()); n != stages {
		t.Fatalf("instance stage log grew from %d to %d records over 4,500 more queries", stages, n)
	}
	// Keeping every record is 24,000 more of them here, ~135 B each: ~3 MB.
	if grown := int64(liveHeap()) - int64(heap); grown > 1<<20 {
		t.Fatalf("live heap grew %d bytes over 4,500 more queries", grown)
	}
	got := db.Metrics()
	if got.SimTicks-base.SimTicks != want.SimTicks || got.Comparisons != want.Comparisons ||
		got.ShuffledRecords != want.ShuffledRecords || got.ShuffledBytes != want.ShuffledBytes {
		t.Fatalf("instance metrics %+v (before the first query %+v), the queries sum to %+v", got, base, want)
	}
}

func TestStandaloneOption(t *testing.T) {
	db := Open(WithWorkers(2), WithStandaloneOps())
	demoSrc := demoDB()
	rows, _ := demoSrc.Rows("customer")
	db.RegisterRows("customer", rows)
	res, err := db.Query(`
SELECT * FROM customer c
FD(c.address, c.nationkey)
DEDUP(attribute, LD, 0.5, c.address, c.name)`)
	if err != nil {
		t.Fatal(err)
	}
	// Standalone mode: no combined output, per-task outputs available.
	if _, ok := res.TaskRowCount("fd1"); !ok {
		t.Fatal("first task output expected")
	}
	n, ok := res.TaskRowCount("dedup1")
	if !ok {
		t.Fatal("dedup task output expected")
	}
	if len(res.TaskRows("dedup1")) != n {
		t.Fatalf("TaskRows disagrees with TaskRowCount: %d vs %d", len(res.TaskRows("dedup1")), n)
	}
	if res.RowCount() != len(res.Rows()) {
		t.Fatalf("RowCount %d != len(Rows) %d", res.RowCount(), len(res.Rows()))
	}
}

// oneBlock returns n customers that share one address — a single DEDUP block
// of n(n−1)/2 candidate pairs — with pairwise distinct names.
func oneBlock(n int) []Value {
	schema := NewSchema("name", "address")
	rows := make([]Value, n)
	for i := range rows {
		rows[i] = NewRecord(schema, []Value{String(fmt.Sprintf("customer %06d", i*7919)), String("1 oak st")})
	}
	return rows
}

// TestComparisonBudgetCoversDedup is the regression test for the CleanM DEDUP
// path charging no comparisons: the plan enumerated a block's pairs without
// telling the cost model, so WithComparisonBudget never tripped and
// Result.Metrics().Comparisons read 0.
func TestComparisonBudgetCoversDedup(t *testing.T) {
	const query = `SELECT * FROM customer c DEDUP(attribute, LD, 0.5, c.address, c.name)`
	rows := oneBlock(200)

	db := Open(WithWorkers(4))
	db.RegisterRows("customer", rows)
	res, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics().Comparisons; got != 200*199/2 {
		t.Fatalf("Comparisons = %d, want %d (one per candidate pair of the block)", got, 200*199/2)
	}
	if res.Metrics().Strategies["pairs:self"] != 1 {
		t.Fatalf("strategy ledger %v lacks pairs:self", res.Metrics().Strategies)
	}

	tight := Open(WithWorkers(4), WithComparisonBudget(10))
	tight.RegisterRows("customer", rows)
	if res, err := tight.Query(query); !errors.Is(err, engine.ErrBudgetExceeded) {
		n := -1
		if res != nil {
			n = res.RowCount()
		}
		t.Fatalf("budget of 10 over 19900 candidate pairs: err = %v (%d rows), want ErrBudgetExceeded", err, n)
	}
}

// TestDedupBigBlockBoundedAndCancellable: one block of a few thousand members
// at a threshold nothing passes. The pair enumeration must not materialize
// the n² candidate environments (the unfused Unnest∘Unnest∘Select plan
// allocated 1530 B per ordered pair, 5.8 GB here), and a cancelled context
// must end it mid-block, promptly, leaving no goroutine behind.
func TestDedupBigBlockBoundedAndCancellable(t *testing.T) {
	const n = 2000
	const query = `SELECT * FROM customer c DEDUP(attribute, LD, 0.99, c.address, c.name)`
	before := runtime.NumGoroutine()
	db := Open(WithWorkers(4))
	db.RegisterRows("customer", oneBlock(n))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := db.Query(query)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 0 {
		t.Fatalf("%d pairs survived θ=0.99 over distinct names", res.RowCount())
	}
	// What remains is φ's own scratch — argument slices and two concatenated
	// strings per candidate, ~320 B per ordered pair; the ceiling is twice that.
	const ceiling = n * n * 640
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > ceiling {
		t.Fatalf("TotalAlloc grew %d MB over a %d-member block; ceiling %d MB", alloc>>20, n, ceiling>>20)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, query)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // inside the block: the full run takes seconds
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not stop within 5 s of cancellation")
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}
