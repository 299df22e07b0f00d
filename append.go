package cleandb

// Incremental cleaning: appendable sources and epoch-keyed materialized
// cleaning views.
//
// Appends land new rows as additional engine partitions against the
// existing per-source dictionary without touching the base partitions, and
// bump the source's delta epoch (distinct from the catalog epoch: the
// source set did not change, only its tail). The view cache stamps every
// cached Result with the (id, base generation, delta epoch) of the sources
// it read; a later identical statement finds the entry Exact (serve as-is),
// Appended (run a delta pass over just the fresh rows and merge — see
// core.ExecuteDeltaContext), or Stale (base partitions were replaced:
// recompute).
//
// Of a Result's metrics, rows, task rows and repair summaries are pinned
// bit-identical between a delta-served execution and a cold full re-clean;
// the cost counters (Comparisons, SimTicks, shuffle volumes) measure the
// work actually done, which for a delta run is proportional to the appended
// tail — that asymmetry is the feature, not drift.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"cleandb/internal/core"
	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/incr"
	"cleandb/internal/source"
	"cleandb/internal/types"
)

// WithViewCache enables the materialized cleaning-view cache with capacity
// for n results (default off). Cached views are keyed by the normalized
// statement, the configuration fingerprint and the bound parameters, and
// stamped with the per-source epochs they were computed under; re-running a
// statement over unchanged sources answers from the cache, and re-running a
// single-operator DENIAL/DEDUP statement over an appended source executes
// only the delta pairs and merges. A size <= 0 disables the cache.
func WithViewCache(n int) Option {
	return func(db *DB) { db.viewCap = n }
}

// viewEntry is what the view cache stores: the completed result plus the
// row count of its (single) source at computation time — the fresh-row
// boundary a delta pass continues from. Multi-source results cache with
// srcRows 0 and can only be served Exact.
type viewEntry struct {
	res     *core.Result
	srcRows int
}

// entrySeq hands out catalog-entry identities. Stamps embed the identity so
// a re-registered source of the same name never matches its predecessor's
// cached views.
var entrySeq atomic.Int64

func newEntryID() string { return fmt.Sprintf("s%d", entrySeq.Add(1)) }

// entry resolves a catalog name.
func (db *DB) entry(name string) (*sourceEntry, error) {
	db.mu.RLock()
	e, ok := db.catalog[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cleandb: unknown source %q", name)
	}
	return e, nil
}

// append lands rows as one additional partition of the loaded dataset and
// bumps the delta epoch. payloadBytes counts the encoded payload for the
// byte hints (0 for programmatic row appends). The entry's loadMu
// serializes appends with loads and refreshes; snapshots taken by running
// queries keep their pre-append dataset (Extend never mutates).
func (e *sourceEntry) append(rows []types.Value, payloadBytes int64, shippable bool) error {
	if len(rows) == 0 {
		return nil
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.loaded {
		return fmt.Errorf("cleandb: append before load")
	}
	if e.err != nil {
		return e.err
	}
	e.ds = e.ds.Extend(rows)
	e.deltaEpoch++
	e.appends++
	e.appendRows += int64(len(rows))
	e.appendBytes += payloadBytes
	if !shippable {
		e.memRows += int64(len(rows))
	}
	return nil
}

// Append appends programmatic rows to a registered source, loading it first
// if still pending. The rows land as an additional partition — base
// partitions are untouched, so cached views over them stay valid and a
// re-executed cleaning statement can run delta-only. Appended rows live in
// the catalog entry, not in the backing file.
func (db *DB) Append(name string, rows []Value) error {
	return db.AppendContext(context.Background(), name, rows)
}

// AppendContext is Append under a context governing the initial load.
func (db *DB) AppendContext(ctx context.Context, name string, rows []Value) error {
	e, err := db.entry(name)
	if err != nil {
		return err
	}
	if _, err := e.load(ctx, db.ctx); err != nil {
		return fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	if len(rows) == 0 {
		return nil
	}
	if err := e.append(rows, 0, false); err != nil {
		return err
	}
	db.noteLoad()
	return nil
}

// AppendCSV appends inline CSV rows (no header line) to a registered CSV
// source. Cells are typed with the column types the base scan inferred;
// a cell that does not parse under its column's type falls back to a
// string, exactly as any malformed cell does on a full scan.
func (db *DB) AppendCSV(name string, payload []byte) error {
	return db.appendPayload(context.Background(), name, payload, "csv")
}

// AppendJSONL appends inline JSON-lines rows to a registered source. JSON
// sources parse the payload through their own schema cache; for any other
// format the payload parses as standalone JSON lines (the rows join the
// source as an extra partition regardless of the base encoding).
func (db *DB) AppendJSONL(name string, payload []byte) error {
	return db.appendPayload(context.Background(), name, payload, "jsonl")
}

func (db *DB) appendPayload(ctx context.Context, name string, payload []byte, enc string) error {
	e, err := db.entry(name)
	if err != nil {
		return err
	}
	if _, err := e.load(ctx, db.ctx); err != nil {
		return fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	var rows []types.Value
	switch enc {
	case "csv":
		cs, ok := e.src.(*source.CSV)
		if !ok {
			return fmt.Errorf("cleandb: source %q (%s) does not accept CSV payload appends", name, e.src.Format())
		}
		rows, err = cs.ParsePayload(payload)
	case "jsonl":
		if js, ok := e.src.(*source.JSON); ok {
			rows, err = js.ParsePayload(payload)
		} else {
			rows, err = data.ReadJSONChunk(payload, 1, data.NewSchemaCache())
		}
	default:
		return fmt.Errorf("cleandb: unknown append encoding %q", enc)
	}
	if err != nil {
		return fmt.Errorf("cleandb: append to %q: %w", name, err)
	}
	if len(rows) == 0 {
		return nil
	}
	if err := e.append(rows, int64(len(payload)), false); err != nil {
		return err
	}
	db.noteLoad()
	return nil
}

// Refresh re-scans a file-backed source for bytes appended past the last
// scan's high-water mark and lands them as an additional partition,
// returning the number of rows added. When the tail cannot extend the base
// consistently — the file shrank, was rewritten, or a CSV column's type
// widened — the source re-scans in full and its base generation moves,
// invalidating cached views derived from the old base (a full re-scan also
// drops any payload-appended rows: the file is the source of truth again).
// A source that is still pending simply loads.
func (db *DB) Refresh(ctx context.Context, name string) (int, error) {
	e, err := db.entry(name)
	if err != nil {
		return 0, err
	}
	loadedBefore := false
	if _, loaded, lerr := e.peek(); loaded && lerr == nil {
		loadedBefore = true
	}
	if _, err := e.load(ctx, db.ctx); err != nil {
		return 0, fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	if !loadedBefore {
		// The load above just scanned the current file content in full.
		ds, _, _ := e.peek()
		db.noteLoad()
		return int(ds.Count()), nil
	}
	added, changed, err := e.refresh(ctx, db.ctx)
	if err != nil {
		return 0, fmt.Errorf("cleandb: refresh source %q: %w", name, err)
	}
	if changed {
		db.noteLoad()
	}
	return added, nil
}

// Unload drops a loaded source's in-memory data while keeping its
// registration identity and version counters: the next query that touches the
// source cold-scans the backing file again. This differs from re-registering
// the same path, which mints a new entry whose version restarts — a cluster
// coordinator unloads (rather than re-registers) when the custody division
// moves, so the version workers key their synced catalogs on still tracks the
// file's incremental state and nothing else. Memory-only appended rows cannot
// be reconstructed by a re-scan, so an entry holding any refuses; a
// file-backed appended tail folds into the re-scanned base, which moves the
// base generation exactly like a reset re-scan. Unloading a pending or failed
// entry is a no-op.
func (db *DB) Unload(name string) error {
	e, err := db.entry(name)
	if err != nil {
		return err
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	e.mu.Lock()
	if e.memRows > 0 {
		n := e.memRows
		e.mu.Unlock()
		return fmt.Errorf("cleandb: unload source %q: %d memory-only appended rows would be lost", name, n)
	}
	if !e.loaded {
		e.mu.Unlock()
		return nil
	}
	folds := e.appends > 0
	if folds {
		e.baseGen++
		e.appends, e.appendRows, e.appendBytes = 0, 0, 0
	}
	e.loaded, e.ds, e.err = false, nil, nil
	e.gathered = source.Gathered{}
	e.mu.Unlock()
	// Always move the stats epoch, not just when appends folded: a cached
	// plan pins the unloaded dataset by reference, so without a new epoch
	// the next query would serve the stale data without ever re-loading —
	// and under a cluster session would never reach the scan barrier the
	// freshly-cold members are parked at.
	db.noteLoad()
	return nil
}

// refresh tail-scans the entry's source. changed reports whether the
// dataset moved (tail rows landed, or a reset re-scanned the base).
func (e *sourceEntry) refresh(goctx context.Context, ectx *engine.Context) (added int, changed bool, err error) {
	t, ok := source.TailerOf(e.src)
	if !ok {
		return 0, false, fmt.Errorf("source format %q does not support tail scans", e.src.Format())
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	//lint:ignore locksnapshot loadMu is the per-source single-flight latch: holding it across the tail scan serializes concurrent Refresh/Load against the same high-water mark
	rows, reset, err := t.TailScan(goctx)
	if err != nil {
		return 0, false, err
	}
	if reset {
		//lint:ignore locksnapshot same latch: a reset re-scan is the full load path and must not race another loader
		ds, err := e.scan(goctx, ectx)
		if err != nil {
			return 0, false, err
		}
		e.mu.Lock()
		e.loaded, e.ds, e.err = true, ds, nil
		e.baseGen++
		e.appends, e.appendRows, e.appendBytes, e.memRows = 0, 0, 0, 0
		e.mu.Unlock()
		return int(ds.Count()), true, nil
	}
	if len(rows) == 0 {
		return 0, false, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.loaded || e.err != nil {
		return 0, false, fmt.Errorf("refresh before load")
	}
	e.ds = e.ds.Extend(rows)
	e.deltaEpoch++
	e.appends++
	e.appendRows += int64(len(rows))
	return len(rows), true, nil
}

// ViewCacheStats reports the materialized view cache's effectiveness. All
// zeros when the cache is disabled.
type ViewCacheStats struct {
	// Hits counts statements answered verbatim from an exact-stamp view;
	// DeltaHits counts statements answered by a cached view plus a delta
	// pass over appended rows; Misses counts the rest (absent or stale).
	Hits, Misses, DeltaHits int64
	// Entries is the resident view count.
	Entries int
}

// ViewCacheStats returns the view cache counters.
func (db *DB) ViewCacheStats() ViewCacheStats {
	s := db.views.Stats()
	return ViewCacheStats{Hits: s.Hits, Misses: s.Misses, DeltaHits: s.DeltaHits, Entries: s.Entries}
}

// viewKey is the cache key of a statement execution: everything that
// determines the result except the data itself (which the stamps cover).
func (db *DB) viewKey(q string, params map[string]types.Value) string {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(db.ConfigFingerprint())
	sb.WriteByte('|')
	sb.WriteString(normalizeQuery(q))
	for _, k := range names {
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(types.Key(params[k]))
	}
	return sb.String()
}

// viewState captures the stamps describing exactly the data prep resolved.
// The identity check (catalog dataset == prepared dataset) closes the race
// with concurrent appends: if an append landed between prepare and here,
// the pointers differ and the statement simply is not view-cached this
// time. srcRows is the single source's row count (the delta boundary), 0
// for multi-source statements.
func (db *DB) viewState(q string, prep *core.Prepared, params map[string]types.Value) (key string, stamps []incr.Stamp, srcRows int, ok bool) {
	names := prep.SourceNames()
	if len(names) == 0 {
		return "", nil, 0, false
	}
	db.mu.RLock()
	entries := make([]*sourceEntry, len(names))
	for i, n := range names {
		e, found := db.catalog[n]
		if !found {
			db.mu.RUnlock()
			return "", nil, 0, false
		}
		entries[i] = e
	}
	db.mu.RUnlock()
	stamps = make([]incr.Stamp, len(names))
	for i, e := range entries {
		ds := prep.Source(names[i])
		e.mu.Lock()
		match := ds != nil && e.loaded && e.err == nil && e.ds == ds
		stamps[i] = incr.Stamp{ID: e.id, Base: e.baseGen, Delta: e.deltaEpoch}
		e.mu.Unlock()
		if !match {
			return "", nil, 0, false
		}
	}
	if len(names) == 1 {
		srcRows = int(prep.Source(names[0]).Count())
	}
	return db.viewKey(q, params), stamps, srcRows, true
}

// viewExecute consults the view cache for the statement. served reports
// that res answers the statement without a full execution (exactly, or via
// a delta pass whose refreshed view was stored back); vh is "exact" or
// "delta". A delta-pass failure is a real execution failure and returns
// err.
func (db *DB) viewExecute(ctx context.Context, q string, prep *core.Prepared, params map[string]types.Value) (res *core.Result, vh string, served bool, err error) {
	if db.views == nil || db.viewCap <= 0 {
		return nil, "", false, nil
	}
	key, stamps, srcRows, ok := db.viewState(q, prep, params)
	if !ok {
		return nil, "", false, nil
	}
	ent, fresh := db.views.Lookup(key, stamps)
	switch fresh {
	case incr.Exact:
		return ent.Val.res, "exact", true, nil
	case incr.Appended:
		if prep.Incremental().Kind == core.IncrNone {
			return nil, "", false, nil // fall back to a full run (re-cached after)
		}
		dres, derr := prep.ExecuteDeltaContext(ctx, params, core.DeltaBase{Res: ent.Val.res, BaseRows: ent.Val.srcRows})
		if derr != nil {
			return nil, "", false, derr
		}
		db.views.Put(key, viewEntry{res: dres, srcRows: srcRows}, stamps)
		return dres, "delta", true, nil
	}
	return nil, "", false, nil
}

// storeView caches a completed full execution, stamped against the data it
// actually read. Recomputing the stamps after execution closes the other
// half of the append race: data that moved mid-execution fails the identity
// check and the result is not cached.
func (db *DB) storeView(q string, prep *core.Prepared, params map[string]types.Value, res *core.Result) {
	if db.views == nil || db.viewCap <= 0 || res == nil {
		return
	}
	key, stamps, srcRows, ok := db.viewState(q, prep, params)
	if !ok {
		return
	}
	db.views.Put(key, viewEntry{res: res, srcRows: srcRows}, stamps)
}
