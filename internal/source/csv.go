package source

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// CSV is a CSV source (header row, type-inferred columns). Its scan plan
// splits the body on row boundaries and parses the chunks on parallel
// goroutines; only merging the chunks' column-type votes runs between the
// vote round and the build round.
//
// A successful Scan also records tail state — the header, the inferred
// column types with their voted flags, and the consumed byte offset — so
// TailScan can parse just the bytes appended past the high-water mark and
// ParsePayload can type inline appended rows consistently with the base.
type CSV struct {
	src bytesAt

	mu    sync.Mutex
	state *csvState
}

// csvState is the scan state a tail parse continues from.
type csvState struct {
	header   []string
	schema   *types.Schema
	colTypes []data.ColType
	voted    []bool // per column: any non-empty cell seen so far
	consumed int64  // bytes parsed (header + body), the tail high-water mark
}

// NewCSVFile returns a lazy CSV source over a file path.
func NewCSVFile(path string) *CSV { return &CSV{src: bytesAt{path: path}} }

// CSVBytes returns a CSV source over an in-memory buffer.
func CSVBytes(buf []byte) *CSV { return &CSV{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *CSV) Format() string { return "csv" }

// Schema returns the header row's column names without parsing the body.
// File-backed sources read a bounded prefix — a header longer than
// headPrefixBytes is reported as an error rather than silently truncated.
func (s *CSV) Schema() ([]string, error) {
	buf, complete, err := s.src.head(headPrefixBytes)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, nil
	}
	cr := csv.NewReader(bytes.NewReader(buf))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("source: csv: %w", err)
	}
	// A header record consuming the whole prefix of a larger file may have
	// been cut mid-record (csv EOF-terminates partial records without
	// error); refuse to guess.
	if !complete && int(cr.InputOffset()) == len(buf) {
		return nil, fmt.Errorf("source: csv: header record exceeds %d-byte prefix", headPrefixBytes)
	}
	return header, nil
}

// Stats implements Source: the byte size is knowable, the row count is not.
func (s *CSV) Stats() (Stats, error) {
	return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, nil
}

// Scan implements Source: the scan plan with every chunk built here.
func (s *CSV) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	return scanLocal(ctx, s, parts)
}

// Consumed implements Tailer.
func (s *CSV) Consumed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		return 0
	}
	return s.state.consumed
}

// TailScan implements Tailer: it parses only the bytes appended past the
// last scan's high-water mark. The tail's cells vote on column types under
// the same lattice the base scan used; if a voted base column would widen
// (old cells like "1" parse differently as int vs float), the tail cannot
// be represented consistently and reset=true asks the caller for a full
// re-scan. A column the base scan defaulted (all empty) adopts the tail's
// type — the base cells are nulls under any type. The mark only advances
// when the tail parses cleanly.
func (s *CSV) TailScan(ctx context.Context) ([]types.Value, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state
	if st == nil {
		return nil, true, nil // no base scan recorded: caller must Scan
	}
	buf, err := s.src.bytes()
	if err != nil {
		return nil, false, err
	}
	if int64(len(buf)) < st.consumed {
		return nil, true, nil // truncated or rewritten: full re-scan
	}
	// Without a trailing newline the base scan's last record would glue
	// onto appended bytes, changing an already-delivered row; re-scan.
	if st.consumed > 0 && buf[st.consumed-1] != '\n' && int64(len(buf)) > st.consumed {
		return nil, true, nil
	}
	tail := buf[st.consumed:]
	if len(tail) == 0 {
		return nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	cr := csv.NewReader(bytes.NewReader(tail))
	cr.FieldsPerRecord = -1
	raw, err := cr.ReadAll()
	if err != nil {
		return nil, false, fmt.Errorf("source: csv: tail: %w", err)
	}
	tailTypes, tailVoted := data.InferColumnTypesSeen([][][]string{raw}, len(st.header))
	merged := make([]data.ColType, len(st.header))
	for c := range st.header {
		switch {
		case !tailVoted[c]:
			merged[c] = st.colTypes[c]
		case !st.voted[c]:
			merged[c] = tailTypes[c]
		default:
			j := joinColType(st.colTypes[c], tailTypes[c])
			if j != st.colTypes[c] {
				return nil, true, nil // widening: base cells would re-type
			}
			merged[c] = j
		}
	}
	rows := buildCSVRows(raw, st.header, st.schema, merged)
	st.colTypes = merged
	for c := range st.voted {
		st.voted[c] = st.voted[c] || tailVoted[c]
	}
	st.consumed = int64(len(buf))
	return rows, false, nil
}

// ParsePayload parses inline appended CSV rows (no header line) with the
// column types the base scan inferred; cells that do not parse under the
// column's type fall back to strings, exactly as ParseCell treats any
// malformed cell. It requires a prior Scan (the header and types come from
// it) and does not move the file high-water mark — payload rows exist only
// in the catalog, not in the backing file.
func (s *CSV) ParsePayload(payload []byte) ([]types.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state
	if st == nil {
		return nil, fmt.Errorf("source: csv: payload append before first scan")
	}
	cr := csv.NewReader(bytes.NewReader(payload))
	cr.FieldsPerRecord = -1
	raw, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("source: csv: payload: %w", err)
	}
	return buildCSVRows(raw, st.header, st.schema, st.colTypes), nil
}

// buildCSVRows types raw cells into records, sharing the base scan's schema
// so appended rows batch and compare identically to base rows.
func buildCSVRows(raw [][]string, header []string, schema *types.Schema, colTypes []data.ColType) []types.Value {
	vals := make([]types.Value, len(raw))
	for j, row := range raw {
		fields := make([]types.Value, len(header))
		for c := range header {
			var cell string
			if c < len(row) {
				cell = row[c]
			}
			fields[c] = data.ParseCell(cell, colTypes[c])
		}
		vals[j] = types.NewRecord(schema, fields)
	}
	return vals
}

// joinColType is the inference lattice's join: int ⊑ float ⊑ string.
func joinColType(a, b data.ColType) data.ColType { return data.JoinColType(a, b) }

// csvHeader lets the csv reader itself find the header record's end: it
// skips blank leading lines and handles quoting/CRLF exactly as the
// sequential reader does, and InputOffset marks where the body starts. A nil
// header with nil error means blank input.
func csvHeader(buf []byte) ([]string, int, error) {
	hr := csv.NewReader(bytes.NewReader(buf))
	hr.FieldsPerRecord = -1
	header, err := hr.Read()
	if err == io.EOF {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("source: csv: %w", err)
	}
	return header, int(hr.InputOffset()), nil
}

// parseCSVChunk parses one body chunk's raw cells, rebasing parse errors by
// the chunk's preceding line count so they report absolute file positions.
func parseCSVChunk(chunk []byte, baseLines int) ([][]string, error) {
	cr := csv.NewReader(bytes.NewReader(chunk))
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.Line += baseLines
			if pe.StartLine > 0 {
				pe.StartLine += baseLines
			}
		}
		return nil, fmt.Errorf("source: csv: %w", err)
	}
	return rows, nil
}

// splitCSVBody cuts the post-header bytes into at most parts chunks, each
// starting on a record boundary, aiming for even byte sizes, and reports
// the number of input lines preceding each chunk (for absolute error line
// numbers). A newline is a record boundary iff it is outside quotes, and
// quote-parity tracking is exact for well-formed CSV (the RFC 4180 escape
// "" toggles twice and nets out). The scan hops newline to newline with
// IndexByte and counts quotes per line with Count — both memchr-speed —
// instead of inspecting every byte, so boundary finding stays a small
// fraction of the parse it enables.
func splitCSVBody(body []byte, parts int) (chunks [][]byte, baseLines []int) {
	if len(body) == 0 {
		return nil, nil
	}
	starts := []int{0}
	baseLines = []int{0}
	pos, line, inQ := 0, 0, false
	for pos < len(body) && len(starts) < parts {
		j := bytes.IndexByte(body[pos:], '\n')
		if j < 0 {
			break
		}
		nl := pos + j
		if bytes.Count(body[pos:nl], []byte{'"'})%2 == 1 {
			inQ = !inQ
		}
		pos = nl + 1
		line++
		if !inQ && pos < len(body) && pos >= len(starts)*len(body)/parts {
			starts = append(starts, pos)
			baseLines = append(baseLines, line)
		}
	}
	chunks = make([][]byte, len(starts))
	for i := range starts {
		end := len(body)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		chunks[i] = body[starts[i]:end]
	}
	return chunks, baseLines
}
