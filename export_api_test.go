// Tests for the streaming result surface: Iter cursors, count-only
// accessors, ExecuteTo pumping into sinks, sink round trips through the
// source catalog, cancellation, and the widened parameter bindings.
package cleandb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cleandb/internal/types"
)

// exportDB builds a DB with a deterministic "events" source whose values
// survive every text format: ints, fractional floats, non-numeric strings
// and nulls, under a schema whose field names are already sorted (the JSON
// reader canonicalizes field order).
func exportDB(t testing.TB, n int) (*DB, []Value) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := NewSchema("id", "score", "user")
	rows := make([]Value, n)
	for i := range rows {
		fields := []Value{
			Int(int64(i)),
			Float(float64(rng.Intn(500)) + 0.25),
			String(fmt.Sprintf("user-%c%03d", 'a'+byte(rng.Intn(26)), rng.Intn(1000))),
		}
		if rng.Intn(9) == 0 {
			fields[1] = Null()
		}
		rows[i] = NewRecord(schema, fields)
	}
	db := Open(WithWorkers(4))
	db.RegisterRows("events", rows)
	return db, rows
}

// TestExecuteToRoundTrip is the full-loop property: query → sink file →
// RegisterFile → re-query must reproduce the original result rows, for all
// three sink file formats.
func TestExecuteToRoundTrip(t *testing.T) {
	db, _ := exportDB(t, 300)
	base, err := db.Query(`SELECT * FROM events e`)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Rows()
	if len(want) != 300 {
		t.Fatalf("base rows = %d", len(want))
	}
	dir := t.TempDir()
	for _, ext := range []string{".csv", ".jsonl", ".colbin"} {
		path := filepath.Join(dir, "events"+ext)
		snk, err := SinkFromPath(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.ExecuteTo(context.Background(), `SELECT * FROM events e`, snk)
		if err != nil {
			t.Fatalf("%s: ExecuteTo: %v", ext, err)
		}
		if got := res.Metrics().ExportedRows; got != int64(len(want)) {
			t.Fatalf("%s: ExportedRows = %d, want %d", ext, got, len(want))
		}
		if res.RowCount() != len(want) {
			t.Fatalf("%s: RowCount = %d, want %d", ext, res.RowCount(), len(want))
		}
		if err := db.RegisterFile("back"+ext[1:], path); err != nil {
			t.Fatal(err)
		}
		again, err := db.Query(fmt.Sprintf(`SELECT * FROM back%s b`, ext[1:]))
		if err != nil {
			t.Fatalf("%s: re-query: %v", ext, err)
		}
		got := again.Rows()
		if len(got) != len(want) {
			t.Fatalf("%s: round trip %d rows, want %d", ext, len(got), len(want))
		}
		for i := range want {
			if !types.Equal(got[i], want[i]) {
				t.Fatalf("%s row %d: %v != %v", ext, i, got[i], want[i])
			}
		}
	}
}

// TestExecuteToMemSink checks the in-memory sink receives exactly the
// result rows, and that the Result returned by ExecuteTo still answers.
func TestExecuteToMemSink(t *testing.T) {
	db, _ := exportDB(t, 120)
	m := NewMemSink()
	res, err := db.ExecuteTo(context.Background(), `SELECT e.user FROM events e WHERE e.id < ?`, m, int64(50))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Rows()); got != 50 {
		t.Fatalf("mem sink rows = %d, want 50", got)
	}
	for i, r := range res.Rows() {
		if !types.Equal(m.Rows()[i], r) {
			t.Fatalf("row %d: sink %v != result %v", i, m.Rows()[i], r)
		}
	}
	if got := m.Schema(); len(got) != 1 || got[0] != "user" {
		t.Fatalf("sink schema = %v", got)
	}
}

func TestStmtExecuteTo(t *testing.T) {
	db, _ := exportDB(t, 80)
	stmt, err := db.PrepareStmt(`SELECT e.id FROM events e WHERE e.id < :cut`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{10, 30} {
		m := NewMemSink()
		res, err := stmt.ExecuteTo(context.Background(), m, Named("cut", cut))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics().ExportedRows; got != cut {
			t.Fatalf("cut %d: ExportedRows = %d", cut, got)
		}
		if !res.Metrics().PlanCacheHit {
			t.Fatal("Stmt executions reuse the prepared plan by construction")
		}
		if got := len(m.Rows()); got != int(cut) {
			t.Fatalf("cut %d: sink rows = %d", cut, got)
		}
	}
}

// blockingSink delays every partition write until released, so a test can
// park an export mid-stream and cancel it.
type blockingSink struct {
	mu      sync.Mutex
	started chan struct{} // closed once the first WritePartition begins
	once    sync.Once
	release chan struct{}
	wrote   int
}

func newBlockingSink() *blockingSink {
	return &blockingSink{started: make(chan struct{}), release: make(chan struct{})}
}

func (s *blockingSink) Open([]string) error { return nil }

func (s *blockingSink) WritePartition(int, []types.Value) error {
	s.once.Do(func() { close(s.started) })
	<-s.release
	s.mu.Lock()
	s.wrote++
	s.mu.Unlock()
	return nil
}

func (s *blockingSink) Close() error { return nil }

// TestExecuteToCancelMidStream cancels an export while sink writes are in
// flight: ExecuteTo must return ctx.Err() promptly once the in-flight
// writes drain, must not start the remaining partitions, and must leak no
// goroutines.
func TestExecuteToCancelMidStream(t *testing.T) {
	db, _ := exportDB(t, 400)
	before := runtime.NumGoroutine()

	snk := newBlockingSink()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.ExecuteTo(ctx, `SELECT * FROM events e`, snk)
		done <- err
	}()
	<-snk.started // the pump is mid-partition now
	cancel()
	close(snk.release) // let the in-flight writes drain

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled export did not return")
	}
	// With 4 workers at most 4 partition writes were in flight when the
	// cancellation landed; no further partitions may start afterwards.
	snk.mu.Lock()
	wrote := snk.wrote
	snk.mu.Unlock()
	if wrote > 4 {
		t.Fatalf("%d partitions written after mid-stream cancel (workers = 4)", wrote)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestExecuteToEmptyResult(t *testing.T) {
	db, _ := exportDB(t, 40)
	m := NewMemSink()
	res, err := db.ExecuteTo(context.Background(), `SELECT * FROM events e WHERE e.id < 0`, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics().ExportedRows != 0 || len(m.Rows()) != 0 {
		t.Fatalf("empty result exported %d/%d rows", res.Metrics().ExportedRows, len(m.Rows()))
	}
}

// TestExportedRowsIsPerCall pins ExportedRows to the call, not to the cached
// result a view-served call shares: an ExecuteTo answered from a view a Query
// stored reports the rows it pumped, and a Query answered from a view an
// ExecuteTo stored reports none — for exact and delta hits alike.
func TestExportedRowsIsPerCall(t *testing.T) {
	const q = `SELECT * FROM events t1 DENIAL(t2, t1.score < t2.score and t1.id > t2.id)`
	_, rows := exportDB(t, 60)
	ctx := context.Background()
	exportedVia := func(db *DB, wantHit string) {
		t.Helper()
		m := NewMemSink()
		res, err := db.ExecuteTo(ctx, q, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.ViewHit() != wantHit {
			t.Fatalf("ExecuteTo view hit = %q, want %q", res.ViewHit(), wantHit)
		}
		if n := len(m.Rows()); n == 0 || res.Metrics().ExportedRows != int64(n) {
			t.Fatalf("ExecuteTo (%q hit): ExportedRows = %d, sink holds %d rows", wantHit, res.Metrics().ExportedRows, n)
		}
	}
	queriedVia := func(db *DB, wantHit string) {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.ViewHit() != wantHit {
			t.Fatalf("Query view hit = %q, want %q", res.ViewHit(), wantHit)
		}
		if got := res.Metrics().ExportedRows; got != 0 {
			t.Fatalf("Query (%q hit): ExportedRows = %d, want 0", wantHit, got)
		}
	}

	db := Open(WithWorkers(4), WithViewCache(4))
	db.RegisterRows("events", rows[:50])
	queriedVia(db, "") // stores the view
	exportedVia(db, "exact")
	if err := db.Append("events", rows[50:55]); err != nil {
		t.Fatal(err)
	}
	exportedVia(db, "delta") // stores the refreshed view
	queriedVia(db, "exact")

	db = Open(WithWorkers(4), WithViewCache(4))
	db.RegisterRows("events", rows[:50])
	exportedVia(db, "") // stores the view, with its own export count on it
	queriedVia(db, "exact")
	if err := db.Append("events", rows[50:]); err != nil {
		t.Fatal(err)
	}
	queriedVia(db, "delta")
}

func TestRepairedToMatchesRepairedRows(t *testing.T) {
	schema := NewSchema("id", "ship", "receipt")
	rows := make([]Value, 0, 60)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		ship := int64(rng.Intn(50))
		rows = append(rows, NewRecord(schema, []Value{
			Int(int64(i)), Int(ship), Int(ship + int64(rng.Intn(20)) - 5),
		}))
	}
	db := Open(WithWorkers(4))
	db.RegisterRows("orders", rows)
	res, err := db.Query(`SELECT * FROM orders o
DENIAL(t2, o.ship > t2.ship and o.receipt < t2.receipt) REPAIR(o.receipt)`)
	if err != nil {
		t.Fatal(err)
	}
	healed := res.RepairedRows("orders")
	if len(healed) != len(rows) {
		t.Fatalf("repaired rows = %d, want %d", len(healed), len(rows))
	}
	m := NewMemSink()
	n, err := res.RepairedTo(context.Background(), "orders", m)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(healed)) {
		t.Fatalf("RepairedTo wrote %d rows, want %d", n, len(healed))
	}
	for i := range healed {
		if !types.Equal(m.Rows()[i], healed[i]) {
			t.Fatalf("row %d: %v != %v", i, m.Rows()[i], healed[i])
		}
	}
	if _, err := res.RepairedTo(context.Background(), "nope", NewMemSink()); err == nil {
		t.Fatal("RepairedTo on an unrepaired source should error")
	}
}

func TestIterEarlyBreak(t *testing.T) {
	db, _ := exportDB(t, 100)
	res, err := db.Query(`SELECT * FROM events e`)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range res.Iter() {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 7 {
			break
		}
	}
	if seen != 7 {
		t.Fatalf("broke after %d rows, want 7", seen)
	}
	if res.RowCount() != 100 {
		t.Fatalf("RowCount = %d after early break", res.RowCount())
	}
}

func TestTaskRowCount(t *testing.T) {
	db, _ := exportDB(t, 50)
	res, err := db.Query(`SELECT * FROM events e FD(e.user, e.score)`)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := res.TaskRowCount("fd1")
	if !ok {
		t.Fatal("fd1 task should exist")
	}
	if got := len(res.TaskRows("fd1")); got != n {
		t.Fatalf("TaskRowCount %d != len(TaskRows) %d", n, got)
	}
	if _, ok := res.TaskRowCount("nope"); ok {
		t.Fatal("unknown task should report ok=false")
	}
}

// TestWidenedBindings locks the toValue satellite: unsigned integers bind
// as ints (overflow-checked) and time.Time binds as its RFC 3339 string.
func TestWidenedBindings(t *testing.T) {
	db, _ := exportDB(t, 30)
	for _, arg := range []any{uint(7), uint32(7), uint64(7)} {
		res, err := db.Query(`SELECT e.id FROM events e WHERE e.id = ?`, arg)
		if err != nil {
			t.Fatalf("%T: %v", arg, err)
		}
		if res.RowCount() != 1 {
			t.Fatalf("%T: rows = %d, want 1", arg, res.RowCount())
		}
	}
	for _, arg := range []any{uint64(math.MaxUint64), uint(math.MaxUint64)} {
		if _, err := db.Query(`SELECT e.id FROM events e WHERE e.id = ?`, arg); err == nil {
			t.Fatalf("%T overflow should be rejected", arg)
		}
	}

	schema := NewSchema("at", "id")
	db.RegisterRows("stamps", []Value{
		NewRecord(schema, []Value{String("2017-08-28T10:30:00Z"), Int(1)}),
		NewRecord(schema, []Value{String("2017-08-28T10:30:00.5Z"), Int(2)}),
		NewRecord(schema, []Value{String("2020-01-01T00:00:00Z"), Int(3)}),
	})
	for stamp, wantID := range map[time.Time]int64{
		time.Date(2017, 8, 28, 10, 30, 0, 0, time.UTC):           1,
		time.Date(2017, 8, 28, 10, 30, 0, 500_000_000, time.UTC): 2,
	} {
		res, err := db.Query(`SELECT s.id FROM stamps s WHERE s.at = ?`, stamp)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowCount() != 1 || res.Rows()[0].Record().Fields[0].Int() != wantID {
			t.Fatalf("time.Time %v matched %v, want id %d", stamp, res.Rows(), wantID)
		}
	}
}
