package dist

// Incremental-catalog guard tests: a cluster must never serve a stale
// replicated view. When the coordinator's copy of a file-backed source grows
// (tail refresh), the shipped source version moves and workers re-scan; when
// the coordinator holds memory-only appended rows that cannot be
// reconstructed from any path, the distributed session refuses to start and
// the query runs single-process.

import (
	"context"
	"os"
	"testing"

	"cleandb"
	"cleandb/internal/types"
)

const distItemsCSV = `id,price
1,10
2,20
3,30
4,40
5,50
6,60
7,70
8,80
`

const distItemsQuery = `SELECT * FROM items t1
DENIAL(t2, t1.price < t2.price)`

// writeItems writes the items fixture and returns its path.
func writeItems(t *testing.T) string {
	t.Helper()
	path := t.TempDir() + "/items.csv"
	if err := os.WriteFile(path, []byte(distItemsCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// coldCount answers the query over the file single-process.
func coldCount(t *testing.T, path string) int {
	t.Helper()
	db := cleandb.Open()
	if err := db.RegisterFile("items", path); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(distItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.RowCount()
}

func TestClusterRefreshesAppendedFile(t *testing.T) {
	path := writeItems(t)
	c := newTestCluster(t, 2, map[string]string{"items": path})
	ctx := context.Background()

	res, frags, err := c.run(ctx, distItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.Err != "" {
			t.Fatalf("fragment on %s errored: %s", f.Worker, f.Err)
		}
	}
	if got, want := res.RowCount(), coldCount(t, path); got != want {
		t.Fatalf("initial distributed run: %d rows, cold %d", got, want)
	}

	// Grow the backing file and tail-refresh the coordinator. The tail lands
	// as an extra partition only the coordinator has — a layout no worker's
	// cold scan reproduces — so the next session must refuse and the query
	// runs single-process, still answering the fresh data.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("9,90\n10,100\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	added, err := c.db.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("refresh added %d rows, want 2", added)
	}
	if sess := c.coord.StartSession(ctx, distItemsQuery, nil); sess != nil {
		sess.Close()
		t.Fatal("StartSession accepted a catalog with an un-folded tail partition")
	}
	res, err = c.db.Query(distItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.RowCount(), coldCount(t, path); got != want {
		t.Fatalf("single-process fallback: %d rows, cold %d", got, want)
	}

	// Rewrite the file (it shrinks): the coordinator's refresh resets — a
	// full re-scan folds the tail, the base generation moves, and sessions
	// are admitted again. The shipped source version changes with it, so
	// every worker drops its stale load and re-scans the rewritten file.
	rewritten := "id,price\n1,15\n2,25\n3,35\n4,45\n5,55\n6,65\n"
	if err := os.WriteFile(path, []byte(rewritten), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.db.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	info, err := c.db.SourceInfo("items")
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseGen == 0 || info.Appends != 0 {
		t.Fatalf("rewrite did not reset: base_gen=%d appends=%d", info.BaseGen, info.Appends)
	}

	res, frags, err = c.run(ctx, distItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		if f.Err != "" {
			t.Fatalf("post-rewrite fragment on %s errored: %s", f.Worker, f.Err)
		}
	}
	if got, want := res.RowCount(), coldCount(t, path); got != want {
		t.Fatalf("post-rewrite distributed run: %d rows, cold %d (stale replicated view)", got, want)
	}
	for _, w := range c.workers {
		winfo, err := w.wk.db.SourceInfo("items")
		if err != nil {
			t.Fatal(err)
		}
		if winfo.Rows != 6 {
			t.Fatalf("worker %s catalog holds %d rows, want 6 (stale load survived the rewrite)", w.id, winfo.Rows)
		}
	}
}

func TestClusterRefusesMemoryOnlyDelta(t *testing.T) {
	path := writeItems(t)
	c := newTestCluster(t, 1, map[string]string{"items": path})
	ctx := context.Background()

	if _, _, err := c.run(ctx, distItemsQuery); err != nil {
		t.Fatal(err)
	}

	// A programmatic append lives only in the coordinator's memory; no
	// worker can reconstruct it from the path, so a distributed session
	// must refuse rather than replicate a catalog missing the delta.
	schema := types.NewSchema("id", "price")
	if err := c.db.Append("items", []types.Value{
		types.NewRecord(schema, []types.Value{types.Int(9), types.Int(90)}),
	}); err != nil {
		t.Fatal(err)
	}
	if sess := c.coord.StartSession(ctx, distItemsQuery, nil); sess != nil {
		sess.Close()
		t.Fatal("StartSession accepted a catalog with memory-only appended rows")
	}
	// The single-process fallback serves the full, fresh answer.
	res, err := c.db.Query(distItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if before := coldCount(t, path); res.RowCount() <= before {
		t.Fatalf("fallback answered %d rows, want more than the file's %d", res.RowCount(), before)
	}
}

// TestRefreshResetRestoresFullOwnership: a reset re-scan (the file was
// rewritten, so Refresh re-parses all of it locally) replaces the share a
// custody-divided load recorded — afterwards this member owns everything it
// reports loaded.
func TestRefreshResetRestoresFullOwnership(t *testing.T) {
	path := writeItems(t)
	c := newTestCluster(t, 2, map[string]string{"items": path})
	ctx := context.Background()
	if _, _, err := c.run(ctx, distItemsQuery); err != nil {
		t.Fatal(err)
	}
	si, err := c.db.SourceInfo("items")
	if err != nil {
		t.Fatal(err)
	}
	if si.OwnedBytes <= 0 || si.OwnedBytes >= si.Bytes {
		t.Fatalf("divided load: coordinator owns %d of %d bytes — not a strict share", si.OwnedBytes, si.Bytes)
	}

	if err := os.WriteFile(path, []byte("id,price\n1,10\n2,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.db.Refresh(ctx, "items"); err != nil {
		t.Fatal(err)
	}
	si, err = c.db.SourceInfo("items")
	if err != nil {
		t.Fatal(err)
	}
	if si.Rows != 2 || si.OwnedBytes != si.Bytes || si.OwnedPartitions != si.Partitions {
		t.Fatalf("after reset re-scan: %d rows, owns %d/%d bytes, %d/%d partitions",
			si.Rows, si.OwnedBytes, si.Bytes, si.OwnedPartitions, si.Partitions)
	}
}
