// Package cleandb is a unified scale-out data cleaning and querying engine —
// a Go reproduction of "CleanM: An Optimizable Query Language for Unified
// Scale-Out Data Cleaning" (Giannakopoulou et al., VLDB 2017).
//
// CleanDB exposes the CleanM language: SQL extended with FD, DEDUP, CLUSTER
// BY and DENIAL/REPAIR cleaning operators. Queries pass through three optimization
// levels — the monoid comprehension calculus, a nested relational algebra,
// and a skew-aware physical plan — and execute on a partitioned multi-worker
// runtime. A query with several cleaning operators is optimized as a whole:
// operators that group the data the same way share a single grouping pass,
// all operators share the input scan, and the violation sets are combined
// with one outer join.
//
// The API is service-grade: a DB is safe for concurrent use by multiple
// goroutines, statements may carry `?` positional and `:name` named
// parameter placeholders, prepared statements (PrepareStmt) plan once and
// execute many times, un-prepared Query/QueryContext calls hit an internal
// LRU plan cache, and every execution reports its own cost metrics
// (Result.Metrics) besides the instance-wide accumulators (DB.Metrics).
//
// Data enters through the pluggable source catalog. RegisterSource (and the
// Register*File path helpers) records where data lives without parsing a
// byte; the first query that references the source — or an explicit Load —
// parses it with a partition-parallel scan that lands rows directly as
// engine partitions. The original Register* readers remain as eager
// wrappers over the same machinery.
//
// Results leave the same way, through the pluggable Sink interface: Iter
// streams a completed Result without flattening it, ExecuteTo pumps query
// output partition-parallel into CSV / JSON-lines / colbin / in-memory
// sinks under the query's context, and RepairedTo exports healed rows. Flat
// accessors (Rows, TaskRows) remain, now memoized.
//
// The whole API is also served over HTTP: internal/server (mounted by the
// `cleandb serve` command) streams query results as NDJSON or CSV through
// the writer-backed sinks, exercises the plan cache with prepared-statement
// handles, and works the lazy source catalog over the wire.
//
// Quickstart:
//
//	db := cleandb.Open()
//	db.RegisterCSVFile("customer", "customer.csv") // lazy: nothing parsed yet
//	db.RegisterRows("dictionary", dict)
//	res, err := db.QueryContext(ctx, `
//	    SELECT c.name, c.address, *
//	    FROM customer c, dictionary d
//	    WHERE c.nationkey = :nation
//	    FD(c.address, prefix(c.phone))
//	    DEDUP(token_filtering, LD, 0.8, c.address)
//	    CLUSTER BY(token_filtering, LD, 0.8, c.name)`,
//	    cleandb.Named("nation", 7))
package cleandb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cleandb/internal/core"
	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/incr"
	"cleandb/internal/physical"
	"cleandb/internal/sink"
	"cleandb/internal/source"
	"cleandb/internal/types"
)

// Source is the pluggable data-source abstraction: anything that can
// describe itself (Format, Schema, Stats) and Scan into ordered partitions
// can be registered in the catalog. The source subpackage provides CSV,
// JSON-lines, XML, colbin and in-memory implementations; RegisterSource
// accepts third-party ones.
type Source = source.Source

// Sink is the output half of the data-source API: anything that accepts
// Open(schema) / WritePartition(i, rows) / Close can receive query results
// partition-parallel via ExecuteTo and RepairedTo. The sink subpackage
// provides CSV, JSON-lines, colbin and in-memory implementations (see
// NewCSVSink and friends); third-party ones just implement the interface.
// WritePartition must tolerate concurrent calls with distinct indices and
// emit partitions in index order.
type Sink = sink.Sink

// Sink constructors re-exported from the sink subpackage. The *File
// constructors create their file at Open; SinkFromPath infers the format
// from the path's extension (.csv, .json/.jsonl/.ndjson, .colbin). The
// writer-backed byte-stream sinks (NewCSVSink, NewJSONLSink) flush through
// per stitched partition when w has a Flush method — hand them an
// http.ResponseWriter and each partition reaches the client as it lands,
// which is how the HTTP server streams query results with memory bounded by
// the partitions in flight.
var (
	// NewCSVSink streams CSV (header row, data.WriteCSV-compatible cells) to w.
	NewCSVSink = sink.NewCSV
	// NewCSVFileSink streams CSV to a file created at Open.
	NewCSVFileSink = sink.NewCSVFile
	// NewJSONLSink streams JSON lines to w.
	NewJSONLSink = sink.NewJSONL
	// NewJSONLFileSink streams JSON lines to a file created at Open.
	NewJSONLFileSink = sink.NewJSONLFile
	// NewColbinSink writes the binary columnar format to w (encodes at Close).
	NewColbinSink = sink.NewColbin
	// NewColbinFileSink writes colbin to a file created at Open.
	NewColbinFileSink = sink.NewColbinFile
	// NewMemSink collects results in memory, preserving partitions.
	NewMemSink = sink.NewMem
	// SinkFromPath builds a file sink, dispatching on the extension.
	SinkFromPath = sink.FromPath
)

// SourceStats re-exports the source layer's pre-scan size hints (-1 fields
// mean "unknown without a full parse").
type SourceStats = source.Stats

// Value is a dynamically typed datum (null, bool, int, float, string, list
// or record). See the constructor helpers Null, Bool, Int, Float, String,
// List and NewRecord. Values are immutable and safe to share across
// goroutines.
type Value = types.Value

// Schema maps record field names to positions.
type Schema = types.Schema

// Re-exported constructors for building rows programmatically.
var (
	// Null returns the null value.
	Null = types.Null
	// Bool wraps a bool.
	Bool = types.Bool
	// Int wraps an int64.
	Int = types.Int
	// Float wraps a float64.
	Float = types.Float
	// String wraps a string.
	String = types.String
	// List wraps values into a list value.
	List = types.List
	// NewSchema builds a record schema.
	NewSchema = types.NewSchema
	// NewRecord builds a record value over a schema.
	NewRecord = types.NewRecord
)

// Option configures Open.
type Option func(*DB)

// WithWorkers sets the simulated cluster width (default 8).
func WithWorkers(n int) Option {
	return func(db *DB) { db.ctx.Workers = n }
}

// WithComparisonBudget bounds pairwise comparisons per query — the candidate
// pairs of DENIAL joins and of DEDUP blocks alike; exceeding it aborts the
// query with an error (how the experiment suite reproduces the paper's DNF
// entries).
func WithComparisonBudget(n int64) Option {
	return func(db *DB) { db.ctx.CompBudget = n }
}

// WithStandaloneOps disables unified optimization: multiple cleaning
// operators in one query execute independently (baseline behaviour).
func WithStandaloneOps() Option {
	return func(db *DB) { db.unified = false }
}

// WithRowExecution disables columnar batch execution: sources load as boxed
// row partitions and every operator runs its row form, the pre-columnar
// behaviour. Row and batch execution produce identical results and identical
// cost metrics stage for stage; this switch exists for ablation and as an
// escape hatch. It also disables the stats-driven strategy selection, which
// needs the load-time column statistics.
func WithRowExecution() Option {
	return func(db *DB) { db.columnar = false }
}

// WithGroupStrategy overrides the grouping shuffle (ablation hooks). Pinning
// a strategy disables the stats-driven automatic selection.
func WithGroupStrategy(s physical.GroupStrategy) Option {
	return func(db *DB) { db.config.Group = s; db.stratPinned = true }
}

// WithThetaStrategy overrides the theta-join algorithm (ablation hooks).
// Pinning a strategy disables the stats-driven automatic selection.
func WithThetaStrategy(s physical.ThetaStrategy) Option {
	return func(db *DB) { db.config.Theta = s; db.stratPinned = true }
}

// WithPlanCacheSize sets the capacity of the internal LRU plan cache used by
// Query/QueryContext/Explain (default 128 statements). A size <= 0 disables
// caching: every call re-plans from scratch.
func WithPlanCacheSize(n int) Option {
	return func(db *DB) { db.cacheCap = n }
}

// DB is a CleanDB instance: a catalog of data sources plus the query
// pipeline and an LRU cache of prepared plans.
//
// A DB is safe for concurrent use by multiple goroutines: the catalog is
// guarded by a read-write mutex, every query executes on its own engine job
// context, and the plan cache and metrics accumulators are internally
// synchronized. Options apply at Open time only.
type DB struct {
	ctx     *engine.Context
	config  physical.Config
	unified bool
	// columnar selects batch execution: sources land as dictionary-encoded
	// column vectors and operators run their vectorized forms where they
	// exist. Default on; WithRowExecution turns it off.
	columnar bool
	// stratPinned records that an ablation option fixed a strategy, which
	// turns the stats-driven automatic selection off.
	stratPinned bool

	mu      sync.RWMutex
	catalog map[string]*sourceEntry
	// epoch increments on every catalog change; it is part of the plan-cache
	// key, so cached plans never serve stale fitted blockers or sources.
	// Loading a pending source does NOT bump the epoch: the rows are
	// determined by the source, so plans stay valid across the load.
	epoch int64

	// statsEpoch increments when a source load completes. Plans embed it in
	// their cache key: blocker fitting and strategy selection read source
	// statistics, so a plan prepared before a load (against unknown stats)
	// must not be served after the stats exist.
	statsEpoch atomic.Int64

	cacheCap int
	cache    *planCache[*core.Prepared]

	// viewCap/views: the materialized cleaning-view cache (WithViewCache);
	// disabled by default. Entries are stamped with per-source epochs, so
	// appends turn exact hits into delta hits rather than stale misses.
	viewCap int
	views   *incr.Cache[viewEntry]
}

// sourceEntry is one catalog slot: a source plus its load-once state.
// Entries are shared by every catalog snapshot that saw them, so whichever
// query loads a source first loads it for everyone.
//
// Two locks split the roles: loadMu serializes the (possibly long) Scan so
// the data parses once, while mu guards only the result fields — peek and
// SourceInfo read state mid-load without waiting behind the parse.
type sourceEntry struct {
	src source.Source
	// batch selects the columnar scan: the source lands as column batches
	// (native for colbin, converted in parallel for text formats) and row
	// boxing is deferred to first row-level use.
	batch bool
	// onLoad, when set, runs once after a successful load — the DB bumps its
	// stats epoch there so cached plans prepared against unknown statistics
	// are not served once the statistics exist.
	onLoad func()
	// id is the entry's registration identity (unique per Register call);
	// view-cache stamps embed it so a re-registered source never matches
	// its predecessor's cached views.
	id string
	// name is the catalog name the entry was registered under. Custody scan
	// stages are keyed by it ("scan/<name>"), so all cluster members agree on
	// the stage without coordination; entries that never went through
	// register (eager readers load first) leave it empty and always scan
	// replicated.
	name string

	loadMu sync.Mutex

	mu     sync.Mutex
	loaded bool
	ds     *engine.Dataset
	err    error
	// baseGen moves whenever the base partitions are replaced (a reset
	// re-scan); deltaEpoch moves on every append. Together with id they are
	// the incr.Stamp the view cache keys freshness on.
	baseGen    int64
	deltaEpoch int64
	// Append accounting: appends counts append operations, appendRows the
	// rows they landed, appendBytes the encoded payload bytes (0 for
	// programmatic rows), memRows the appended rows that exist only in this
	// process's memory — not re-derivable from the backing file, which is
	// what makes a cluster session refuse to ship the source.
	appends     int64
	appendRows  int64
	appendBytes int64
	memRows     int64
	// gathered is what the last scan received from peers instead of parsing
	// (custody.go): zero unless the load was divided, so what this member owns
	// is the loaded total minus it.
	gathered source.Gathered
}

// load scans the source into a partitioned dataset exactly once. Scan
// failures are remembered (re-register the source to retry) — except
// cancellations and custody-scan failures: a query aborted mid-load, or a
// divided scan that died with its cluster session, must not poison the
// source for the next one.
func (e *sourceEntry) load(goctx context.Context, ectx *engine.Context) (*engine.Dataset, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if ds, loaded, err := e.peek(); loaded {
		return ds, err
	}
	//lint:ignore locksnapshot loadMu is the per-source single-flight latch: holding it across the first scan is the point
	ds, err := e.scan(goctx, ectx)
	if err != nil {
		var transient *custodyScanError
		if goctx.Err() == nil && !errors.As(err, &transient) {
			e.mu.Lock()
			e.loaded, e.err = true, err
			e.mu.Unlock()
		}
		return nil, err
	}
	e.mu.Lock()
	e.loaded, e.ds = true, ds
	e.mu.Unlock()
	if e.onLoad != nil {
		e.onLoad()
	}
	return ds, nil
}

// scan parses the source, columnar or row-wise per the entry's mode, and
// records what the load gathered from peers. Under a cluster session whose
// exchange divides scans by partition custody this member parses only its
// share of the chunks (custody.go); the result is the same full dataset
// either way.
func (e *sourceEntry) scan(goctx context.Context, ectx *engine.Context) (*engine.Dataset, error) {
	var (
		batches  []*data.ColumnBatch
		rows     [][]types.Value
		gathered source.Gathered
		err      error
	)
	if ps, ex := e.custodyExchange(goctx); ex != nil {
		// A divided load gathers rows; the gathered rows are identical on
		// every member and RowsToBatches is deterministic from rows, so the
		// batches (and their dictionary statistics) are too.
		rows, gathered, err = source.ScanMasked(goctx, ps, ectx.Workers, ex, e.name)
		if err == nil && e.batch {
			batches, err = source.RowsToBatches(goctx, rows, ectx.Workers)
		}
		if err != nil {
			err = &custodyScanError{err}
		}
	} else if e.batch {
		batches, rows, err = source.ScanIntoBatches(goctx, e.src, ectx.Workers)
	} else {
		rows, err = e.src.Scan(goctx, ectx.Workers)
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.gathered = gathered
	e.mu.Unlock()
	if batches == nil {
		// Row execution, or heterogeneous records that cannot batch.
		return engine.FromPartitions(ectx, rows), nil
	}
	// All batches of one source share one dictionary; fold its interning
	// counters into the instance-wide metrics once.
	for _, b := range batches {
		if b != nil && b.Dict != nil {
			hits, misses := b.Dict.Stats()
			ectx.Metrics().AddDictStats(hits, misses)
			break
		}
	}
	if rows != nil {
		return engine.FromBatchesAndRows(ectx, batches, rows), nil
	}
	return engine.FromBatches(ectx, batches), nil
}

// peek reports the load state without triggering — or waiting on — a load.
func (e *sourceEntry) peek() (*engine.Dataset, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ds, e.loaded, e.err
}

// Open creates a CleanDB instance.
func Open(opts ...Option) *DB {
	db := &DB{
		ctx:      engine.NewContext(8),
		catalog:  map[string]*sourceEntry{},
		unified:  true,
		columnar: true,
		cacheCap: 128,
	}
	for _, o := range opts {
		o(db)
	}
	// Stats-driven strategy selection needs the columnar load-time statistics
	// and yields to explicitly pinned ablation strategies.
	db.config.Auto = db.columnar && !db.stratPinned
	db.cache = newPlanCache[*core.Prepared](db.cacheCap)
	if db.viewCap > 0 {
		db.views = incr.NewCache[viewEntry](db.viewCap)
	}
	return db
}

// newEntry builds a catalog slot for src carrying the DB's execution mode
// and load notification.
func (db *DB) newEntry(src source.Source) *sourceEntry {
	return &sourceEntry{src: src, batch: db.columnar, onLoad: db.noteLoad, id: newEntryID()}
}

// noteLoad runs when any source finishes loading: the stats epoch moves so
// plans prepared before the statistics existed stop being served from the
// cache. Stale keys age out of the LRU; no purge is needed because the new
// epoch makes them unreachable.
func (db *DB) noteLoad() { db.statsEpoch.Add(1) }

// register installs an entry under name, replacing any previous source of
// that name, and invalidates cached plans.
func (db *DB) register(name string, e *sourceEntry) {
	e.name = name // before publication: custody scans key stages on it
	db.mu.Lock()
	db.catalog[name] = e
	db.epoch++
	db.mu.Unlock()
	// Every cached plan embeds the old epoch in its key and is unreachable
	// now; purge so dead plans don't pin catalog snapshots until LRU
	// pressure. (The epoch stays in the key so an in-flight prepare against
	// the old snapshot cannot resurface as a stale hit after the purge.)
	db.cache.purge()
	// Cached views of the replaced source are stale by stamp identity, but
	// purge anyway so dead results don't pin memory until LRU pressure.
	db.views.Purge()
}

// RegisterSource adds a pluggable data source to the catalog under name,
// replacing any previous source of that name, without reading or parsing
// anything. The first query that references the source — or an explicit
// Load — triggers a partition-parallel scan whose result is cached for all
// subsequent queries. Safe to call concurrently with queries: running
// queries keep their catalog snapshot.
func (db *DB) RegisterSource(name string, src Source) {
	db.register(name, db.newEntry(src))
}

// RegisterFile lazily registers a data file, inferring the format from the
// path's extension (.csv, .json/.jsonl/.ndjson, .xml, .colbin). The file is
// not opened until the source is first loaded, so a missing file surfaces
// as a query/Load error, not here.
func (db *DB) RegisterFile(name, path string) error {
	src, err := source.FromPath(path)
	if err != nil {
		return err
	}
	db.RegisterSource(name, src)
	return nil
}

// RegisterCSVFile lazily registers a CSV file (header row, type-inferred
// columns). The first use parses it chunk-parallel across the configured
// Workers.
func (db *DB) RegisterCSVFile(name, path string) {
	db.RegisterSource(name, source.NewCSVFile(path))
}

// RegisterJSONFile lazily registers a JSON-lines file (nested records
// supported). The first use parses it line-chunk-parallel.
func (db *DB) RegisterJSONFile(name, path string) {
	db.RegisterSource(name, source.NewJSONFile(path))
}

// RegisterXMLFile lazily registers a two-level XML file (DBLP-style).
func (db *DB) RegisterXMLFile(name, path string) {
	db.RegisterSource(name, source.NewXMLFile(path))
}

// RegisterColbinFile lazily registers a colbin (binary columnar) file. The
// first use decodes its column chunks in parallel.
func (db *DB) RegisterColbinFile(name, path string) {
	db.RegisterSource(name, source.NewColbinFile(path))
}

// Load forces a pending source to parse now (parallel, under ctx) instead
// of on first query. Loading an already-loaded source is a no-op returning
// its remembered outcome.
func (db *DB) Load(ctx context.Context, name string) error {
	db.mu.RLock()
	e, ok := db.catalog[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("cleandb: unknown source %q", name)
	}
	if _, err := e.load(ctx, db.ctx); err != nil {
		return fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	return nil
}

// registerEager scans src immediately and registers it only on success —
// the contract of the original Register* readers.
func (db *DB) registerEager(name string, src source.Source) error {
	e := db.newEntry(src)
	if _, err := e.load(context.Background(), db.ctx); err != nil {
		return err
	}
	db.register(name, e)
	return nil
}

// RegisterRows adds an in-memory dataset to the catalog under name,
// replacing any previous dataset of that name. Safe to call concurrently
// with queries: running queries keep their catalog snapshot. In columnar
// mode the rows are dictionary-encoded into column batches here (an
// in-memory scan cannot fail), so programmatic datasets take the vectorized
// paths like file-backed ones.
func (db *DB) RegisterRows(name string, rows []Value) {
	e := db.newEntry(source.FromRows(rows))
	if _, err := e.load(context.Background(), db.ctx); err != nil {
		// Unreachable for an in-memory source; keep the row contract anyway.
		e = &sourceEntry{
			src:    source.FromRows(rows),
			id:     newEntryID(),
			loaded: true,
			ds:     engine.FromValues(db.ctx, rows),
		}
	}
	db.register(name, e)
}

// RegisterCSV eagerly loads a CSV source (header row, type-inferred
// columns). It is a thin wrapper over the source catalog: the reader is
// slurped and parsed through the same chunk-parallel scan lazy registration
// uses, and nothing is registered on error.
func (db *DB) RegisterCSV(name string, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return db.registerEager(name, source.CSVBytes(buf))
}

// RegisterJSON eagerly loads a JSON-lines source (nested records
// supported).
func (db *DB) RegisterJSON(name string, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return db.registerEager(name, source.JSONBytes(buf))
}

// RegisterXML eagerly loads a two-level XML source (DBLP-style; repeated
// child elements become list fields).
func (db *DB) RegisterXML(name string, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return db.registerEager(name, source.XMLBytes(buf))
}

// RegisterColbin eagerly loads a colbin (binary columnar) source.
func (db *DB) RegisterColbin(name string, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return db.registerEager(name, source.ColbinBytes(buf))
}

// Sources lists the registered source names, sorted — loaded or pending.
func (db *DB) Sources() []string {
	db.mu.RLock()
	out := make([]string, 0, len(db.catalog))
	for n := range db.catalog {
		out = append(out, n)
	}
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// SourceInfo describes one catalog entry's load state.
type SourceInfo struct {
	// Name is the catalog name; Format the source encoding ("csv", "json",
	// "xml", "colbin", "mem", or whatever a custom Source reports).
	Name, Format string
	// Loaded reports whether the source has been scanned into partitions.
	// Pending sources have parsed nothing yet.
	Loaded bool
	// Err is the remembered load failure, if the source's scan was
	// attempted and failed (every use will keep returning it until the
	// source is re-registered). Loaded and Err are mutually exclusive.
	Err error
	// Rows is the exact record count once loaded; before that, the source's
	// cheap hint (exact for colbin headers and in-memory rows, -1 for text
	// formats, which cannot count without parsing).
	Rows int64
	// Bytes is the encoded size hint (-1 when unknown).
	Bytes int64
	// Path is the backing file path for file-backed sources, "" for
	// in-memory ones. A cluster coordinator ships file-backed entries to
	// workers by path.
	Path string
	// Partitions is the loaded partition count, 0 before the first scan.
	Partitions int
	// BaseGen is the source's base generation (moves when the base
	// partitions are replaced by a reset re-scan); DeltaEpoch its delta
	// epoch (moves on every append). Both 0 for a never-appended source.
	BaseGen, DeltaEpoch int64
	// Appends counts append operations since load; AppendedRows the rows
	// they landed. A reset re-scan folds appended file rows into the base
	// and zeroes both.
	Appends, AppendedRows int64
	// MemRows counts appended rows that exist only in this process's memory
	// (payload or programmatic appends) — not re-derivable from Path, so a
	// cluster coordinator cannot ship the source and must run such queries
	// single-process.
	MemRows int64
	// OwnedPartitions / OwnedBytes report what this member parsed itself:
	// the loaded totals less whatever the last scan gathered from peers.
	// Under a partition-custody scan a member builds only its owned (plus
	// adopted) chunks, so Owned* is the member's share while
	// Rows/Bytes/Partitions stay the totals of the complete dataset. Any load
	// that built every chunk here — single-process, replicated, a Refresh
	// re-scan — owns exactly the totals.
	OwnedPartitions int
	OwnedBytes      int64
}

// SourceInfo reports a source's format and loaded-vs-pending-vs-failed
// state without triggering a load — and, thanks to the entry's split lock,
// without waiting behind one that is in flight.
func (db *DB) SourceInfo(name string) (SourceInfo, error) {
	db.mu.RLock()
	e, ok := db.catalog[name]
	db.mu.RUnlock()
	if !ok {
		return SourceInfo{}, fmt.Errorf("cleandb: unknown source %q", name)
	}
	info := SourceInfo{Name: name, Format: e.src.Format(), Rows: -1, Bytes: -1,
		Path: source.PathOf(e.src)}
	if st, err := e.src.Stats(); err == nil {
		info.Rows, info.Bytes = st.Rows, st.Bytes
	}
	// The version counters outlive the loaded data: an entry unloaded by a
	// cluster custody resync is pending again, but its base generation must
	// keep identifying the file's incremental state or workers keyed on the
	// shipped version would hold stale loads.
	e.mu.Lock()
	info.BaseGen, info.DeltaEpoch = e.baseGen, e.deltaEpoch
	e.mu.Unlock()
	if ds, loaded, err := e.peek(); loaded {
		if err != nil {
			info.Err = err
		} else {
			info.Loaded = true
			// Recompute the row/byte hints from the loaded state rather than
			// trusting the pre-scan hints: any path that replaced or extended
			// the partitions (append, tail refresh, reset re-scan) makes the
			// registration-time numbers stale. The dataset knows its exact row
			// count; the byte count is the parsed high-water mark plus any
			// inline payload bytes, falling back to the source's current size
			// hint for formats without a tail mark.
			info.Rows = ds.Count()
			info.Partitions = ds.NumPartitions()
			e.mu.Lock()
			info.Appends, info.AppendedRows = e.appends, e.appendRows
			info.MemRows = e.memRows
			appendBytes := e.appendBytes
			gathered := e.gathered
			e.mu.Unlock()
			if t, ok := source.TailerOf(e.src); ok {
				info.Bytes = t.Consumed() + appendBytes
			} else if info.Bytes >= 0 {
				info.Bytes += appendBytes
			}
			info.OwnedPartitions = info.Partitions - gathered.Chunks
			info.OwnedBytes = info.Bytes - gathered.Bytes
		}
	}
	return info, nil
}

// SourceInfos describes every catalog entry, sorted by name.
func (db *DB) SourceInfos() []SourceInfo {
	names := db.Sources()
	out := make([]SourceInfo, 0, len(names))
	for _, n := range names {
		if info, err := db.SourceInfo(n); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Rows returns the records of a registered source, loading it first if it
// is still pending. The returned slice is a fresh copy of the slice header;
// appending to it never corrupts the catalog.
func (db *DB) Rows(name string) ([]Value, error) {
	db.mu.RLock()
	e, ok := db.catalog[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cleandb: unknown source %q", name)
	}
	ds, err := e.load(context.Background(), db.ctx)
	if err != nil {
		return nil, fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	return ds.Collect(), nil
}

// catalogView is a consistent snapshot of the catalog handed to one prepare:
// it resolves names against the entries as of snapshot time and loads
// pending sources under the preparing query's context, so a cancelled query
// aborts its own lazy loads.
type catalogView struct {
	goctx   context.Context
	ectx    *engine.Context
	entries map[string]*sourceEntry
}

// Has implements core.Catalog without triggering a load.
func (v *catalogView) Has(name string) bool {
	_, ok := v.entries[name]
	return ok
}

// Lookup implements core.Catalog, loading pending sources on demand.
func (v *catalogView) Lookup(name string) (*engine.Dataset, error) {
	e, ok := v.entries[name]
	if !ok {
		return nil, fmt.Errorf("cleandb: unknown source %q", name)
	}
	ds, err := e.load(v.goctx, v.ectx)
	if err != nil {
		return nil, fmt.Errorf("cleandb: load source %q: %w", name, err)
	}
	return ds, nil
}

// snapshot copies the catalog map and its epoch atomically, so a query plans
// and executes against a consistent view even while other goroutines
// register sources. The entries themselves are shared: a lazy load performed
// by one snapshot is visible to all.
func (db *DB) snapshot(goctx context.Context) (*catalogView, int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := make(map[string]*sourceEntry, len(db.catalog))
	for k, v := range db.catalog {
		m[k] = v
	}
	return &catalogView{goctx: goctx, ectx: db.ctx, entries: m}, db.epoch
}

// pipelineWith builds the query pipeline over a catalog snapshot.
func (db *DB) pipelineWith(catalog core.Catalog) *core.Pipeline {
	p := core.NewPipelineCatalog(db.ctx, catalog)
	p.Config = db.config
	p.Unified = db.unified
	return p
}

// ConfigFingerprint summarizes every Open-time option that affects query
// results or cost metrics. Cluster nodes compare fingerprints when a worker
// registers: the distributed execution model replays the same plan on every
// node, which is only sound when all nodes resolve a statement to the same
// physical plan.
func (db *DB) ConfigFingerprint() string {
	return fmt.Sprintf("w%d|b%d|c%t|a%t|g%d|t%d|u%t",
		db.ctx.Workers, db.ctx.CompBudget, db.columnar, db.config.Auto,
		db.config.Group, db.config.Theta, db.unified)
}

// cacheKey normalizes the statement text (whitespace runs outside string
// literals collapse) and tags it with everything else a plan depends on: the
// strategy configuration, execution mode, unified mode, the catalog epoch
// and the stats epoch (source statistics feed blocker fitting and strategy
// selection, so a plan prepared before a load must miss after it).
func (db *DB) cacheKey(query string, epoch, statsEpoch int64) string {
	return fmt.Sprintf("e%d|s%d|c%t|a%t|g%d|t%d|u%t|%s",
		epoch, statsEpoch, db.columnar, db.config.Auto,
		db.config.Group, db.config.Theta, db.unified, normalizeQuery(query))
}

// normalizeQuery collapses whitespace runs to single spaces — but never
// inside '…' / "…" string literals, whose spacing is semantically
// significant and must keep distinct statements on distinct cache keys.
func normalizeQuery(q string) string {
	var sb strings.Builder
	sb.Grow(len(q))
	var quote byte
	space := false
	for i := 0; i < len(q); i++ {
		c := q[i]
		if quote != 0 {
			sb.WriteByte(c)
			if c == quote {
				quote = 0
			}
			continue
		}
		switch {
		case c == '\'' || c == '"':
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			quote = c
			sb.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
		default:
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// prepare resolves query to a Prepared plan, consulting the LRU plan cache.
// The returned bool reports whether the plan was served from the cache.
// Cache hits read only the epoch under the lock — the catalog snapshot is
// copied on misses alone, keeping the hot path allocation-light. A cache
// miss resolves (and lazily loads, under ctx) every source the statement
// references; hits reuse the already-resolved datasets.
func (db *DB) prepare(ctx context.Context, query string) (*core.Prepared, bool, error) {
	if db.cache == nil {
		prep, err := db.prepareOn(ctx, query)
		return prep, false, err
	}
	db.mu.RLock()
	epoch := db.epoch
	db.mu.RUnlock()
	statsEpoch := db.statsEpoch.Load()
	key := db.cacheKey(query, epoch, statsEpoch)
	if prep, ok := db.cache.get(key); ok {
		return prep, true, nil
	}
	// Capture the purge generation before snapshotting: if a concurrent
	// Register lands anywhere after this point, the put below is dropped
	// rather than parking an unreachable entry in the cache.
	gen := db.cache.generation()
	prep, epoch2, err := db.prepareOnEpoch(ctx, query)
	if err != nil {
		return nil, false, err
	}
	// Preparation may itself have loaded pending sources (bumping the stats
	// epoch); key the plan under the state it was actually built against.
	if se2 := db.statsEpoch.Load(); epoch2 != epoch || se2 != statsEpoch {
		key = db.cacheKey(query, epoch2, se2)
	}
	db.cache.put(key, prep, gen)
	return prep, false, nil
}

// prepareOn plans the statement against a fresh catalog snapshot under ctx.
func (db *DB) prepareOn(ctx context.Context, query string) (*core.Prepared, error) {
	prep, _, err := db.prepareOnEpoch(ctx, query)
	return prep, err
}

func (db *DB) prepareOnEpoch(ctx context.Context, query string) (*core.Prepared, int64, error) {
	catalog, epoch := db.snapshot(ctx)
	p := db.pipelineWith(catalog)
	prep, err := p.Prepare(query)
	// Preparation resolved the statement's sources into the Prepared; drop
	// the catalog view so plans — which may sit in the cache indefinitely —
	// never pin the preparing query's context or the snapshot map.
	p.Catalog = nil
	return prep, epoch, err
}

// Query parses, optimizes and executes a CleanM statement with optional
// parameter arguments and no cancellation. Equivalent to
// QueryContext(context.Background(), q, args...).
func (db *DB) Query(q string, args ...any) (*Result, error) {
	return db.QueryContext(context.Background(), q, args...)
}

// QueryContext executes a CleanM statement under ctx. Plain arguments bind
// `?` placeholders in order; Named(...) arguments bind `:name` placeholders.
// Cancelling ctx (or exceeding its deadline) aborts the execution promptly —
// including mid theta join — and returns ctx.Err().
//
// Plans are served from the DB's LRU cache when an identical statement
// (modulo whitespace) ran against the same catalog epoch and configuration,
// so repeated un-prepared calls skip parsing, normalization and lowering;
// use PrepareStmt to make that reuse explicit.
func (db *DB) QueryContext(ctx context.Context, q string, args ...any) (*Result, error) {
	return db.run(ctx, q, nil, args)
}

// run is the one execution entry behind QueryContext and ExecuteTo: prepare
// (plan cache), bind, answer from the view cache — verbatim or by a delta
// pass — or execute in full and store the view; with a non-nil sink the
// primary output is exported either way.
func (db *DB) run(ctx context.Context, q string, s Sink, args []any) (*Result, error) {
	prep, hit, err := db.prepare(ctx, q)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(prep.Params(), args)
	if err != nil {
		return nil, err
	}
	res, vh, served, err := db.viewExecute(ctx, q, prep, params)
	if err != nil {
		return nil, err
	}
	var exported int64
	if !served {
		if res, err = prep.ExecuteToContext(ctx, params, s); err == nil {
			db.storeView(q, prep, params, res)
			exported = res.Stats.ExportedRows
		}
	} else if s != nil {
		// A view answers the statement without re-executing; the export
		// itself still streams partition-parallel under ctx.
		exported, err = res.ExportTo(ctx, s)
	}
	if err != nil {
		return nil, err
	}
	return &Result{inner: res, planReused: hit, viewHit: vh, exported: exported}, nil
}

// ExecuteTo executes a CleanM statement under ctx and pumps its primary
// output straight into s instead of answering with a row buffer: the
// result's engine partitions stream to the sink partition-parallel under
// the query's job context, so cancelling ctx aborts the export exactly as
// it aborts the operator loops, and no flattened copy of the result is ever
// built — memory beyond the engine's own partitions is bounded by the
// partitions in flight.
//
// The returned Result carries everything except a materialized answer:
// metrics (including Metrics().ExportedRows), repair summaries (export
// healed rows with RepairedTo), task names and counts. Its row accessors
// still work — the partitions remain addressable — so printing a sample
// after an export costs nothing extra.
func (db *DB) ExecuteTo(ctx context.Context, q string, s Sink, args ...any) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("cleandb: ExecuteTo needs a sink")
	}
	return db.run(ctx, q, s, args)
}

// PrepareStmt parses, de-sugars, normalizes and lowers a CleanM statement
// through all three optimization levels exactly once and returns the
// reusable Stmt. The heavy lifting (blocker fitting, plus loading any
// still-pending sources the statement references) happens here;
// Stmt.ExecContext only binds parameters and runs the physical plan.
func (db *DB) PrepareStmt(q string) (*Stmt, error) {
	return db.PrepareStmtContext(context.Background(), q)
}

// PrepareStmtContext is PrepareStmt under a context: cancelling ctx aborts
// the lazy source loads preparation may trigger.
func (db *DB) PrepareStmtContext(ctx context.Context, q string) (*Stmt, error) {
	prep, _, err := db.prepare(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Stmt{prep: prep, query: q}, nil
}

// Explain plans the query through all three levels and returns the EXPLAIN
// text without executing it. Parameterized statements may be explained
// without bindings; placeholders render as `?N` / `:name`. Note that
// planning resolves the statement's sources, so explaining a statement over
// a pending source loads it.
func (db *DB) Explain(q string) (string, error) {
	prep, _, err := db.prepare(context.Background(), q)
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}

// PlanCacheStats reports the plan cache's hit/miss counters and current
// size. A statement prepared once and executed many times shows up as one
// miss followed by hits (Query path) or no further lookups at all (Stmt
// path).
func (db *DB) PlanCacheStats() CacheStats { return db.cache.stats() }

// Result is a completed query. A Result is immutable and safe to share
// across goroutines.
//
// Result rows live as partitioned views handed straight off the engine.
// Iter streams them with no copy at all; Rows/TaskRows flatten on first use
// and memoize the flat slice; RowCount/TaskRowCount answer without
// materializing anything.
type Result struct {
	inner *core.Result
	// planReused reports whether this execution reused an already-prepared
	// plan (plan-cache hit, or any execution of a Stmt).
	planReused bool
	// viewHit records how the materialized view cache served this
	// execution: "" (full execution), "exact", or "delta".
	viewHit string
	// exported counts the rows this call pumped into a sink. It lives here,
	// not on inner: a cached view's core.Result is shared by every call it
	// answers, whichever of them exported.
	exported int64
}

// ViewHit reports whether this execution was served by the materialized
// view cache: "" for a full execution, "exact" for a verbatim cached
// answer, "delta" for a cached base merged with a delta pass over appended
// rows.
func (r *Result) ViewHit() string { return r.viewHit }

// Rows returns the query's primary output records. For multi-operator
// cleaning queries this is the combined violation report (one record per
// entity with at least one violation); for single operators, the violation
// records; for plain queries, the projected rows.
//
// The slice is built on first call and memoized: repeated calls return the
// same backing array, so treat it as read-only. It is allocated at exact
// capacity — appending to it reallocates rather than corrupting the Result.
// A query with no output rows returns nil (earlier versions returned a
// non-nil empty slice); test emptiness with len or RowCount, not against
// nil. Prefer Iter to stream without materializing, or RowCount when only
// the size matters.
func (r *Result) Rows() []Value { return r.inner.Rows() }

// RowCount returns the number of primary output rows without flattening or
// copying anything.
func (r *Result) RowCount() int { return r.inner.Primary().Len() }

// Iter returns a cursor over the primary output rows: a single-use sequence
// that drains the engine's result partitions in order without building the
// flat slice Rows returns. The error value exists for sinks and sources
// that can fail mid-stream; iterating a completed in-memory Result never
// yields one. Breaking out of the loop early is allowed and cheap.
func (r *Result) Iter() iter.Seq2[Value, error] {
	return func(yield func(Value, error) bool) {
		for v := range r.inner.Primary().All() {
			if !yield(v, nil) {
				return
			}
		}
	}
}

// TaskRows returns the output of the named cleaning operator task ("fd1",
// "dedup1", "clusterby1", or "query"), or nil when the task is unknown or
// produced nothing. Use TaskRowsOK to distinguish the two. For unified
// queries the per-task violations are folded inside the combined records;
// use Rows instead.
func (r *Result) TaskRows(name string) []Value {
	rows, _ := r.TaskRowsOK(name)
	return rows
}

// TaskRowsOK returns the output of the named cleaning operator task and
// whether the task exists in this query — so an existing task with an empty
// output (rows == nil, ok == true) is distinguishable from an unknown task
// name (ok == false). Like Rows, the slice is memoized and shared across
// calls: treat it as read-only (appending is safe).
func (r *Result) TaskRowsOK(name string) ([]Value, bool) {
	for _, t := range r.inner.Tasks {
		if t.Name == name {
			return t.Output.Rows(), true
		}
	}
	return nil, false
}

// TaskRowCount returns the named task's output row count and whether the
// task exists, without materializing the rows.
func (r *Result) TaskRowCount(name string) (int, bool) {
	for _, t := range r.inner.Tasks {
		if t.Name == name {
			return t.Output.Len(), true
		}
	}
	return 0, false
}

// TaskNames lists the cleaning tasks of the query in order.
func (r *Result) TaskNames() []string {
	out := make([]string, len(r.inner.Tasks))
	for i, t := range r.inner.Tasks {
		out[i] = t.Name
	}
	return out
}

// Explanation renders the three-level EXPLAIN (normalized comprehensions
// and the optimized algebraic DAG).
func (r *Result) Explanation() string { return r.inner.Explanation }

// QueryMetrics is the cost snapshot of a single query execution, measured
// on the query's own job context: concurrent queries never pollute each
// other's numbers, unlike the instance-wide DB.Metrics accumulators.
type QueryMetrics struct {
	// SimTicks is the deterministic cost-model time of this execution.
	SimTicks int64
	// Comparisons counts this execution's pairwise similarity/predicate checks.
	Comparisons int64
	// ShuffledRecords counts records this execution moved across the
	// simulated network.
	ShuffledRecords int64
	// ShuffledBytes estimates bytes this execution moved.
	ShuffledBytes int64
	// PlanCacheHit reports whether the execution reused an already-prepared
	// plan instead of planning from scratch (always true for Stmt
	// executions).
	PlanCacheHit bool
	// ExportedRows counts rows this call pumped into a sink (ExecuteTo
	// paths, view-served or not); zero for plain Query executions.
	ExportedRows int64
	// BatchesEvaluated counts column batches run through vectorized operator
	// kernels; zero under WithRowExecution.
	BatchesEvaluated int64
	// SimCacheHits / SimCacheMisses count this execution's memoized
	// pair-similarity probes: a hit answered a similarity comparison from the
	// cache (the comparison is still charged to Comparisons).
	SimCacheHits   int64
	SimCacheMisses int64
	// Strategies counts the physical strategies the executor chose, by name
	// ("join:hash", "join:mbucket", "nest:aggregate", ...); nil when the
	// query executed no joins or groupings.
	Strategies map[string]int64
}

// Metrics returns the cost counters of this execution alone.
func (r *Result) Metrics() QueryMetrics {
	return QueryMetrics{
		SimTicks:         r.inner.Stats.SimTicks,
		Comparisons:      r.inner.Stats.Comparisons,
		ShuffledRecords:  r.inner.Stats.ShuffledRecords,
		ShuffledBytes:    r.inner.Stats.ShuffledBytes,
		PlanCacheHit:     r.planReused,
		ExportedRows:     r.exported,
		BatchesEvaluated: r.inner.Stats.BatchesEvaluated,
		SimCacheHits:     r.inner.Stats.SimCacheHits,
		SimCacheMisses:   r.inner.Stats.SimCacheMisses,
		Strategies:       r.inner.Stats.Strategies,
	}
}

// RepairSummary reports the outcome of a REPAIR clause: the healed rows and
// the convergence statistics of the relaxation loop.
type RepairSummary = core.RepairSummary

// Repairs lists one summary per REPAIR clause executed by the query.
func (r *Result) Repairs() []*RepairSummary { return r.inner.Repairs() }

// RepairedRows returns the healed rows of the named source after the query's
// REPAIR clauses, or nil when the query repaired nothing in that source.
// Successive REPAIR clauses on one source compose, so the last summary holds
// the final rows. Re-register them (RegisterRows) to query the cleaned data,
// or use RepairedTo to export them without the intermediate slice. The slice
// is shared across calls: treat it as read-only (appending is safe).
func (r *Result) RepairedRows(source string) []Value {
	var rows []Value
	for _, s := range r.inner.Repairs() {
		if s.Source == source {
			rows = s.Rows
		}
	}
	return rows
}

// RepairedTo pumps the healed rows of the named source — the final state
// after every REPAIR clause on it — into s, partition-parallel under ctx,
// and returns the number of rows written. Cancelling ctx aborts the export
// between partitions, like ExecuteTo. It errors when the query repaired
// nothing in that source.
func (r *Result) RepairedTo(ctx context.Context, source string, s Sink) (int64, error) {
	return r.inner.RepairedTo(ctx, source, s)
}

// Metrics reports the engine cost counters accumulated across all queries
// since Open (or the last ResetMetrics). Safe to read concurrently with
// running queries; a query's costs merge in when it completes. For the cost
// of one specific execution use Result.Metrics.
type Metrics struct {
	// SimTicks is the deterministic cost-model time (straggler-sensitive).
	SimTicks int64
	// Comparisons counts pairwise similarity/predicate checks.
	Comparisons int64
	// ShuffledRecords counts records moved across the simulated network.
	ShuffledRecords int64
	// ShuffledBytes estimates bytes moved across the simulated network.
	ShuffledBytes int64
	// BatchesEvaluated counts column batches run through vectorized operator
	// kernels.
	BatchesEvaluated int64
	// DictHits / DictMisses count string-dictionary interning at load time: a
	// hit found the string already encoded, a miss admitted a new distinct
	// string. misses/(hits+misses) approximates column cardinality.
	DictHits   int64
	DictMisses int64
	// SimCacheHits / SimCacheMisses count memoized pair-similarity probes
	// across all queries.
	SimCacheHits   int64
	SimCacheMisses int64
	// Strategies counts physical strategy choices by name across all queries;
	// nil when none were recorded.
	Strategies map[string]int64
}

// Metrics returns a snapshot of the instance-wide engine cost counters.
func (db *DB) Metrics() Metrics {
	m := db.ctx.Metrics()
	dictHits, dictMisses := m.DictStats()
	simHits, simMisses := m.SimCacheStats()
	return Metrics{
		SimTicks:         m.SimTicks(),
		Comparisons:      m.Comparisons(),
		ShuffledRecords:  m.ShuffledRecords(),
		ShuffledBytes:    m.ShuffledBytes(),
		BatchesEvaluated: m.BatchesEvaluated(),
		DictHits:         dictHits,
		DictMisses:       dictMisses,
		SimCacheHits:     simHits,
		SimCacheMisses:   simMisses,
		Strategies:       m.Strategies(),
	}
}

// ResetMetrics clears the instance-wide engine cost counters.
func (db *DB) ResetMetrics() { db.ctx.Metrics().Reset() }
