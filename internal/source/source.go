// Package source is CleanDB's pluggable data-source layer: one interface
// behind which every input format — CSV, JSON lines, XML, colbin, in-memory
// rows — presents itself to the catalog.
//
// A Source is cheap to construct: building one records where the data lives
// and nothing else. Parsing happens in Scan, which lands the rows directly
// as ordered partitions so the engine can wrap them without a
// collect-then-repartition copy.
//
// There is one scan path for the formats that can be cut into chunks. CSV
// (row boundaries), JSON lines (line boundaries) and colbin (row ranges over
// concurrently decoded columns) each describe their chunk layout and
// per-chunk parse once, as a ScanPlan, and ScanMasked drives the plan
// through the engine's masked-stage driver. Their Scan methods are that
// driver with every chunk built here; a cluster member under partition
// custody runs the same driver with the session's exchange, building only
// the chunks it owns and gathering the rest. XML is the holdout — nested
// elements leave no safe split points short of parsing — so it scans
// sequentially and only partitions the result.
//
// The catalog registers sources lazily and calls Scan on first use; Schema
// and Stats answer what they can without a full parse (a CSV header, a
// colbin row count, a file size) so tooling can describe pending sources.
package source

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cleandb/internal/par"
	"cleandb/internal/types"
)

// Stats carries a source's pre-scan size hints. Fields are -1 when the
// format cannot answer without a full parse.
type Stats struct {
	// Rows is the record count: exact for in-memory and colbin sources
	// (colbin stores it in the header), -1 for text formats.
	Rows int64
	// Bytes is the encoded size: the file length for file-backed sources,
	// the buffer length for in-memory bytes, -1 when unknown.
	Bytes int64
}

// Source is a registered-but-not-necessarily-parsed data source.
//
// Implementations must be safe for concurrent use; Scan may be called more
// than once and must return the same rows each time (for a file-backed
// source, assuming the file is unchanged).
type Source interface {
	// Format names the source encoding: "csv", "json", "xml", "colbin",
	// "mem".
	Format() string
	// Schema returns the column names when they are knowable without a full
	// scan (a CSV header row, a colbin header), or nil when discovering them
	// requires parsing the data (JSON, XML).
	Schema() ([]string, error)
	// Stats returns size hints without a full scan.
	Stats() (Stats, error)
	// Scan parses the source into at most parts ordered partitions.
	// Concatenating the partitions in order yields exactly the rows the
	// format's sequential reader produces. Cancelling ctx aborts the scan
	// with ctx.Err(): chunk-parallel formats stop between chunks promptly;
	// formats that must parse sequentially (XML) only notice cancellation
	// at their phase boundaries.
	Scan(ctx context.Context, parts int) ([][]types.Value, error)
}

// FromPath builds a file-backed source, inferring the format from the
// path's extension. The file is not opened until Schema/Stats/Scan.
func FromPath(path string) (Source, error) {
	switch filepath.Ext(path) {
	case ".csv":
		return NewCSVFile(path), nil
	case ".json", ".jsonl", ".ndjson":
		return NewJSONFile(path), nil
	case ".xml":
		return NewXMLFile(path), nil
	case ".colbin":
		return NewColbinFile(path), nil
	default:
		return nil, fmt.Errorf("source: unknown format for %q (want .csv/.json/.xml/.colbin)", path)
	}
}

// Path returns the backing file path of a file-backed source, "" for
// in-memory buffers. A cluster coordinator uses it to ship catalog entries to
// workers by path (the nodes share storage); in-memory sources stay local.
func (s *CSV) Path() string    { return s.src.path }
func (s *JSON) Path() string   { return s.src.path }
func (s *XML) Path() string    { return s.src.path }
func (s *Colbin) Path() string { return s.src.path }

// PathOf extracts the backing file path from any source that exposes one,
// "" otherwise (in-memory buffers, custom sources).
func PathOf(s Source) string {
	if p, ok := s.(interface{ Path() string }); ok {
		return p.Path()
	}
	return ""
}

// headPrefixBytes bounds how much of a file-backed source Schema/Stats read
// when parsing just its header.
const headPrefixBytes = 1 << 20

// bytesAt abstracts "the raw bytes live here" for the file/buffer pairs of
// constructors every format offers.
type bytesAt struct {
	path string // file-backed when non-empty
	buf  []byte // in-memory otherwise
}

func (b bytesAt) bytes() ([]byte, error) {
	if b.path != "" {
		return os.ReadFile(b.path)
	}
	return b.buf, nil
}

// head returns up to n leading bytes of the input plus whether that prefix
// is the complete input — header parsers use it to stay O(header) on huge
// files while detecting when a header might continue past the prefix.
func (b bytesAt) head(n int) (prefix []byte, complete bool, err error) {
	if b.path == "" {
		return b.buf, true, nil
	}
	f, err := os.Open(b.path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, false, err
	}
	return buf[:m], m < n, nil
}

func (b bytesAt) sizeBytes() int64 {
	if b.path != "" {
		fi, err := os.Stat(b.path)
		if err != nil {
			return -1
		}
		return fi.Size()
	}
	return int64(len(b.buf))
}

// partition slices vs into at most n contiguous chunks without copying
// (par.Chunks), mirroring the engine's default partitioner so a sequentially
// parsed source lands exactly like pre-partitioned data.
func partition(vs []types.Value, n int) [][]types.Value {
	return par.Chunks(vs, n)
}

// runParallel is the shared bounded-worker driver (par.Run): first error or
// cancellation wins, every started goroutine exits before return, width is
// capped at GOMAXPROCS.
func runParallel(ctx context.Context, n, width int, f func(i int) error) error {
	return par.Run(ctx, n, width, f)
}
