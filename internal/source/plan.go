package source

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/types"
)

// ScanPlan is a format's one implementation of "chunk layout + parse": the
// ordered chunks a scan of the source produces, and how to build any one of
// them, without building anything up front. Every scan — CSV.Scan, JSON.Scan
// and Colbin.Scan in a single process, and a cluster member's share of a
// partition-custody load — is ScanMasked driving one of these; the callers
// differ only in which chunks they build here.
//
// The contract that makes a divided scan bit-identical to a local one:
// Chunks and the chunk boundaries are a pure function of the bytes and the
// partition count, Build(i) depends only on the bytes and the installed types,
// and Finish sees the reassembled whole whoever built its pieces.
//
// CSV needs a vote round first: column types are inferred over every chunk,
// so each chunk votes (NeedsVote/Vote), the merged votes are installed with
// SetTypes, and only then may any chunk Build.
type ScanPlan interface {
	// Chunks is the number of ordered partitions the scan produces.
	Chunks() int
	// ChunkBytes is the input-byte cost of building chunk i — what a member
	// that owns the chunk must parse (or decode) from the source.
	ChunkBytes(i int) int64
	// NeedsVote reports whether a type-vote round must precede Build.
	NeedsVote() bool
	// Vote parses chunk i's raw cells and returns its column-type votes.
	Vote(ctx context.Context, i int) ([]data.ColVote, error)
	// SetTypes installs the merged global votes; required before Build when
	// NeedsVote, ignored otherwise.
	SetTypes(votes []data.ColVote) error
	// Build returns chunk i's rows.
	Build(ctx context.Context, i int) ([]types.Value, error)
	// Finish sees the fully assembled partition vector, records the source's
	// tail-scan state, and names the chunks to leave out of the result (JSON
	// drops whitespace-only ones); nil drops none.
	Finish(full [][]types.Value) (drop []bool, err error)
}

// PartitionedScanner is implemented by the sources whose Scan is plan-driven
// and can therefore be divided by partition custody. Sources without it (XML,
// in-memory rows, custom sources) are scanned whole by every member.
type PartitionedScanner interface {
	Source
	PlanScan(ctx context.Context, parts int) (ScanPlan, error)
}

// Gathered counts what a masked scan received from peers instead of parsing
// it here: Chunks over the partitions the scan returned (a gathered chunk
// Finish dropped is no partition of anyone's), Bytes over every chunk. It is
// zero whenever every chunk was built locally.
type Gathered struct {
	Chunks int
	Bytes  int64
}

// ScanMasked is the one scan path. It plans s into at most parts chunks and
// runs the plan's stages through engine.RunMasked: the type-vote round when
// the format needs one ("scanvote/<name>"), then the data round
// ("scan/<name>"), then Finish. With a nil exchange every chunk is built here
// and nothing crosses a wire; with a session's exchange this member builds the
// chunks rendezvous custody assigns it (and any it adopts from a dead peer,
// which the plan re-parses from the raw bytes) and gathers the rest, so every
// member ends with the same complete partition vector.
func ScanMasked(ctx context.Context, s PartitionedScanner, parts int, ex engine.Exchange, name string) ([][]types.Value, Gathered, error) {
	plan, err := s.PlanScan(ctx, parts)
	if err != nil {
		return nil, Gathered{}, err
	}
	n := plan.Chunks()
	var votedHere []int

	if n > 0 && plan.NeedsVote() {
		// Votes built here stay typed; only a peer's cross the exchange as rows.
		votes := make([][]data.ColVote, n)
		full, ran, err := engine.RunMasked(ctx, ex, "scanvote/"+name, n, parts, func(i int) ([]types.Value, error) {
			v, err := plan.Vote(ctx, i)
			votes[i] = v
			if err != nil || ex == nil {
				return nil, err
			}
			return data.VoteRows(v), nil
		})
		if err != nil {
			return nil, Gathered{}, err
		}
		votedHere = ran
		for i := range votes {
			if votes[i] != nil {
				continue
			}
			if votes[i], err = data.VotesOfRows(full[i]); err != nil {
				return nil, Gathered{}, fmt.Errorf("source: %s chunk %d: %w", name, i, err)
			}
		}
		if err := plan.SetTypes(data.ColVotes(data.MergeColVotes(votes, len(votes[0])))); err != nil {
			return nil, Gathered{}, err
		}
	}

	full, builtHere, err := engine.RunMasked(ctx, ex, "scan/"+name, n, parts, func(i int) ([]types.Value, error) {
		return plan.Build(ctx, i)
	})
	if err != nil {
		return nil, Gathered{}, err
	}
	drop, err := plan.Finish(full)
	if err != nil {
		return nil, Gathered{}, err
	}
	mine := make([]bool, n) // chunks parsed here, in either round
	for _, i := range append(votedHere, builtHere...) {
		mine[i] = true
	}
	var g Gathered
	kept := full[:0]
	for i, part := range full {
		if !mine[i] {
			g.Bytes += plan.ChunkBytes(i)
		}
		if drop != nil && drop[i] {
			continue
		}
		kept = append(kept, part)
		if !mine[i] {
			g.Chunks++
		}
	}
	return kept, g, nil
}

// scanLocal is Scan for the plan-driven formats: every chunk built here.
func scanLocal(ctx context.Context, s PartitionedScanner, parts int) ([][]types.Value, error) {
	out, _, err := ScanMasked(ctx, s, parts, nil, "")
	return out, err
}

// rowRanges cuts rows into at most parts equal contiguous ranges: per rows
// each (the last may be short), n ranges in all.
func rowRanges(rows, parts int) (per, n int) {
	if rows == 0 {
		return 0, 0
	}
	if parts < 1 {
		parts = 1
	}
	per = (rows + parts - 1) / parts
	return per, (rows + per - 1) / per
}

// ---- CSV ----

// csvPlan chunks the body at record boundaries. Raw cells parse lazily per
// chunk and are cached between the vote and build rounds; a chunk adopted
// after the vote round is simply parsed again.
type csvPlan struct {
	s           *CSV
	buf         []byte
	header      []string
	schema      *types.Schema
	headerLines int
	hEnd        int
	chunks      [][]byte
	baseLines   []int

	mu       sync.Mutex
	raw      [][][]string // per chunk; nil until parsed and again once built
	colTypes []data.ColType
	voted    []bool
}

// PlanScan implements PartitionedScanner.
func (s *CSV) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	p := &csvPlan{s: s, buf: buf}
	if len(buf) == 0 {
		return p, nil
	}
	header, hEnd, err := csvHeader(buf)
	if err != nil {
		return nil, err
	}
	if header == nil { // io.EOF: blank input
		return p, nil
	}
	p.header = header
	p.schema = types.NewSchema(header...)
	p.hEnd = hEnd
	p.headerLines = bytes.Count(buf[:hEnd], []byte{'\n'})
	p.chunks, p.baseLines = splitCSVBody(buf[hEnd:], parts)
	p.raw = make([][][]string, len(p.chunks))
	return p, nil
}

func (p *csvPlan) Chunks() int { return len(p.chunks) }

func (p *csvPlan) ChunkBytes(i int) int64 {
	n := int64(len(p.chunks[i]))
	if i == 0 {
		n += int64(p.hEnd) // the owner of chunk 0 also parsed the header
	}
	return n
}

func (p *csvPlan) NeedsVote() bool { return true }

func (p *csvPlan) Vote(ctx context.Context, i int) ([]data.ColVote, error) {
	raw, err := p.rawChunk(ctx, i)
	if err != nil {
		return nil, err
	}
	ts, voted := data.InferColumnTypesSeen([][][]string{raw}, len(p.header))
	return data.ColVotes(ts, voted), nil
}

func (p *csvPlan) SetTypes(votes []data.ColVote) error {
	if len(votes) != len(p.header) {
		return fmt.Errorf("source: csv: %d type votes for %d columns", len(votes), len(p.header))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.colTypes = make([]data.ColType, len(votes))
	p.voted = make([]bool, len(votes))
	for c, v := range votes {
		p.colTypes[c], p.voted[c] = v.Type, v.Voted
	}
	return nil
}

func (p *csvPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	p.mu.Lock()
	colTypes := p.colTypes
	p.mu.Unlock()
	if colTypes == nil {
		return nil, fmt.Errorf("source: csv: build before type votes merged")
	}
	raw, err := p.rawChunk(ctx, i)
	if err != nil {
		return nil, err
	}
	rows := buildCSVRows(raw, p.header, p.schema, colTypes)
	p.mu.Lock()
	p.raw[i] = nil // built chunks never re-vote; adoption re-parses
	p.mu.Unlock()
	return rows, nil
}

// Finish records the tail state: the header, the merged types with their
// voted flags, and the whole input as the consumed high-water mark.
func (p *csvPlan) Finish([][]types.Value) ([]bool, error) {
	if p.header == nil { // blank input: nothing to continue a tail from
		p.s.mu.Lock()
		p.s.state = nil
		p.s.mu.Unlock()
		return nil, nil
	}
	p.mu.Lock()
	colTypes, voted := p.colTypes, p.voted
	p.mu.Unlock()
	if colTypes == nil {
		if len(p.chunks) > 0 {
			return nil, fmt.Errorf("source: csv: finish before type votes merged")
		}
		// Header-only input: no chunks voted, so no vote round ran; default
		// every column exactly as inference over zero chunks would.
		colTypes, voted = data.InferColumnTypesSeen(nil, len(p.header))
	}
	p.s.mu.Lock()
	p.s.state = &csvState{
		header:   p.header,
		schema:   p.schema,
		colTypes: colTypes,
		voted:    voted,
		consumed: int64(len(p.buf)),
	}
	p.s.mu.Unlock()
	return nil, nil
}

// rawChunk parses chunk i's raw cells, caching them for the build round.
// Parse errors are rebased from chunk-relative to absolute file line numbers,
// matching what the sequential reader reports for the same input.
func (p *csvPlan) rawChunk(ctx context.Context, i int) ([][]string, error) {
	p.mu.Lock()
	rows := p.raw[i]
	p.mu.Unlock()
	if rows != nil {
		return rows, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := parseCSVChunk(p.chunks[i], p.headerLines+p.baseLines[i])
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.raw[i] = rows
	p.mu.Unlock()
	return rows, nil
}

// ---- JSON ----

// jsonPlan chunks the input at line boundaries; lines are independent, so
// the chunks parse with no round before them, sharing one concurrency-safe
// schema cache that preserves the sequential reader's schema sharing.
type jsonPlan struct {
	s          *JSON
	buf        []byte
	chunks     [][]byte
	firstLines []int
	cache      *data.SchemaCache
}

// PlanScan implements PartitionedScanner.
func (s *JSON) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	buf, err := s.src.bytes()
	if err != nil {
		return nil, err
	}
	chunks, firstLines := splitLines(buf, parts)
	return &jsonPlan{s: s, buf: buf, chunks: chunks, firstLines: firstLines, cache: data.NewSchemaCache()}, nil
}

func (p *jsonPlan) Chunks() int                   { return len(p.chunks) }
func (p *jsonPlan) ChunkBytes(i int) int64        { return int64(len(p.chunks[i])) }
func (p *jsonPlan) NeedsVote() bool               { return false }
func (p *jsonPlan) SetTypes([]data.ColVote) error { return nil }

func (p *jsonPlan) Vote(context.Context, int) ([]data.ColVote, error) {
	return nil, fmt.Errorf("source: json: scans do not vote")
}

func (p *jsonPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return data.ReadJSONChunk(p.chunks[i], p.firstLines[i], p.cache)
}

// Finish records the tail state and drops the partitions blank lines left
// empty, so partition counts reflect data, not whitespace.
func (p *jsonPlan) Finish(full [][]types.Value) ([]bool, error) {
	p.s.mu.Lock()
	p.s.state = &jsonState{cache: p.cache, consumed: int64(len(p.buf)), lines: bytes.Count(p.buf, []byte{'\n'})}
	p.s.mu.Unlock()
	drop := make([]bool, len(full))
	for i, part := range full {
		drop[i] = len(part) == 0
	}
	return drop, nil
}

// ---- colbin ----

// colbinPlan reads only the header up front (row count and column names come
// from a bounded prefix), then decodes the columns — concurrently, once — on
// the first Build and assembles each chunk's row range from them. A member
// owning no chunk of a colbin source therefore loads O(header) bytes, and
// ChunkBytes charges each row range its proportional share of the file.
type colbinPlan struct {
	s    *Colbin
	rows int
	size int64
	per  int
	n    int

	once   sync.Once
	schema *types.Schema
	cols   [][]types.Value
	err    error
}

// PlanScan implements PartitionedScanner.
func (s *Colbin) PlanScan(ctx context.Context, parts int) (ScanPlan, error) {
	_, rows64, err := s.header()
	if err != nil {
		return nil, err
	}
	p := &colbinPlan{s: s, rows: int(rows64), size: s.src.sizeBytes()}
	p.per, p.n = rowRanges(p.rows, parts)
	return p, nil
}

func (p *colbinPlan) Chunks() int { return p.n }

// ChunkBytes telescopes, so the chunks' shares sum to the file size exactly.
func (p *colbinPlan) ChunkBytes(i int) int64 {
	lo, hi := p.span(i)
	rows := int64(p.rows)
	return p.size*int64(hi)/rows - p.size*int64(lo)/rows
}

func (p *colbinPlan) span(i int) (lo, hi int) {
	lo = i * p.per
	hi = lo + p.per
	if hi > p.rows {
		hi = p.rows
	}
	return lo, hi
}

func (p *colbinPlan) NeedsVote() bool               { return false }
func (p *colbinPlan) SetTypes([]data.ColVote) error { return nil }

func (p *colbinPlan) Vote(context.Context, int) ([]data.ColVote, error) {
	return nil, fmt.Errorf("source: colbin: scans do not vote")
}

func (p *colbinPlan) Build(ctx context.Context, i int) ([]types.Value, error) {
	if err := p.decode(ctx); err != nil {
		return nil, err
	}
	lo, hi := p.span(i)
	vals := make([]types.Value, hi-lo)
	ncols := len(p.cols)
	for r := lo; r < hi; r++ {
		fields := make([]types.Value, ncols)
		for c := range p.cols {
			fields[c] = p.cols[c][r]
		}
		vals[r-lo] = types.NewRecord(p.schema, fields)
	}
	return vals, nil
}

// decode indexes the file and decodes every column, once. Columns span all
// rows, so dividing a colbin scan divides row assembly and lets chunk-less
// members skip the body entirely, but an owner of any chunk decodes whole
// columns.
func (p *colbinPlan) decode(ctx context.Context) error {
	p.once.Do(func() {
		info, err := p.s.index()
		if err == nil && info.Rows != p.rows {
			err = fmt.Errorf("source: colbin: %d rows indexed, header promised %d", info.Rows, p.rows)
		}
		if err != nil {
			p.err = err
			return
		}
		ncols := len(info.Names)
		cols := make([][]types.Value, ncols)
		p.err = runParallel(ctx, ncols, p.n, func(c int) error {
			vals, err := info.DecodeColumn(c)
			if err != nil {
				return err
			}
			cols[c] = vals
			return nil
		})
		if p.err == nil {
			p.schema = types.NewSchema(info.Names...)
			p.cols = cols
		}
	})
	return p.err
}

func (p *colbinPlan) Finish([][]types.Value) ([]bool, error) { return nil, nil }
