package source

import (
	"bytes"
	"context"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// JSON is a JSON-lines source (one object per line, nested records
// supported). Lines are independent, so its scan plan splits the input at
// line boundaries and parses the chunks on parallel goroutines; a shared
// concurrency-safe schema cache preserves the sequential reader's
// schema-sharing across partitions.
//
// Scan records the consumed byte offset and keeps the schema cache, so
// TailScan parses only appended lines — line-locality makes JSON tails
// exact — and appended rows intern their schemas in the same cache as the
// base rows.
type JSON struct {
	src bytesAt

	mu    sync.Mutex
	state *jsonState
}

// jsonState is the scan state a tail parse continues from.
type jsonState struct {
	cache    *data.SchemaCache
	consumed int64 // bytes parsed, the tail high-water mark
	lines    int   // newline count in the consumed prefix, for error positions
}

// NewJSONFile returns a lazy JSON-lines source over a file path.
func NewJSONFile(path string) *JSON { return &JSON{src: bytesAt{path: path}} }

// JSONBytes returns a JSON-lines source over an in-memory buffer.
func JSONBytes(buf []byte) *JSON { return &JSON{src: bytesAt{buf: buf}} }

// Format implements Source.
func (s *JSON) Format() string { return "json" }

// Schema implements Source; JSON objects carry their own field names, so
// the column set is unknowable without parsing.
func (s *JSON) Schema() ([]string, error) { return nil, nil }

// Stats implements Source.
func (s *JSON) Stats() (Stats, error) {
	return Stats{Rows: -1, Bytes: s.src.sizeBytes()}, nil
}

// Scan implements Source: the scan plan with every chunk built here.
func (s *JSON) Scan(ctx context.Context, parts int) ([][]types.Value, error) {
	return scanLocal(ctx, s, parts)
}

// Consumed implements Tailer.
func (s *JSON) Consumed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		return 0
	}
	return s.state.consumed
}

// TailScan implements Tailer: lines are independent, so parsing only the
// appended suffix is exact — no type interplay with base rows. The suffix
// shares the base scan's schema cache, so appended rows with a known field
// set reuse the interned schema.
func (s *JSON) TailScan(ctx context.Context) ([]types.Value, bool, error) {
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
	// Appended bytes would glue onto a final unterminated line, changing an
	// already-delivered row; re-scan.
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
	rows, err := data.ReadJSONChunk(tail, st.lines+1, st.cache)
	if err != nil {
		return nil, false, err
	}
	st.lines += bytes.Count(tail, []byte{'\n'})
	st.consumed = int64(len(buf))
	return rows, false, nil
}

// ParsePayload parses inline appended JSON lines through the base scan's
// schema cache (or a fresh one before any scan). Payload rows exist only in
// the catalog, so the file high-water mark does not move.
func (s *JSON) ParsePayload(payload []byte) ([]types.Value, error) {
	s.mu.Lock()
	cache := data.NewSchemaCache()
	if s.state != nil {
		cache = s.state.cache
	}
	s.mu.Unlock()
	return data.ReadJSONChunk(payload, 1, cache)
}

// splitLines cuts buf into at most parts chunks at line boundaries, also
// reporting each chunk's 1-based first line number so parse errors keep
// their absolute positions.
func splitLines(buf []byte, parts int) ([][]byte, []int) {
	if len(buf) == 0 {
		return nil, nil
	}
	starts := []int{0}
	lines := []int{1}
	if parts > 1 {
		line := 1
		for i := 0; i < len(buf)-1 && len(starts) < parts; i++ {
			if buf[i] != '\n' {
				continue
			}
			line++
			if i+1 >= len(starts)*len(buf)/parts {
				starts = append(starts, i+1)
				lines = append(lines, line)
			}
		}
	}
	chunks := make([][]byte, len(starts))
	for i := range starts {
		end := len(buf)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		chunks[i] = buf[starts[i]:end]
	}
	return chunks, lines
}
