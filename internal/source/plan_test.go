package source

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// splitHub is an in-memory barrier exchange for two members that each drive
// their own plan instance over the same bytes. owner says who builds a slot:
// member 0, member 1, or 2 — a third member that died, whose slots the barrier
// hands to member 0 as extras on its first gather of the stage. Slot outputs
// cross the hub as wire frames, so what a member gathers shares nothing with
// what its peer built.
type splitHub struct {
	owner func(stage string, i, n int) int

	mu      sync.Mutex
	cond    *sync.Cond
	frames  map[string]map[int][]byte
	adopted map[string]bool
	err     error
}

func newSplitHub(owner func(stage string, i, n int) int) *splitHub {
	h := &splitHub{owner: owner, frames: map[string]map[int][]byte{}, adopted: map[string]bool{}}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// abort wakes the other member when one fails, so a broken plan fails the
// test instead of hanging it.
func (h *splitHub) abort(err error) {
	h.mu.Lock()
	h.err = err
	h.mu.Unlock()
	h.cond.Broadcast()
}

type splitSeat struct {
	hub  *splitHub
	self int
}

func (x splitSeat) Mask(stage string, n int) []int {
	var mine []int
	for i := 0; i < n; i++ {
		if x.hub.owner(stage, i, n) == x.self {
			mine = append(mine, i)
		}
	}
	return mine
}

func (x splitSeat) Gather(stage string, n int, local map[int][]types.Value) ([][]types.Value, []int, error) {
	h := x.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frames[stage] == nil {
		h.frames[stage] = map[int][]byte{}
	}
	for i, rows := range local {
		h.frames[stage][i] = data.EncodeRowsFrame(rows)
	}
	h.cond.Broadcast()
	if x.self == 0 && !h.adopted[stage] {
		h.adopted[stage] = true
		var extra []int
		for i := 0; i < n; i++ {
			if h.owner(stage, i, n) == 2 {
				extra = append(extra, i)
			}
		}
		if len(extra) > 0 {
			return nil, extra, nil
		}
	}
	for len(h.frames[stage]) < n && h.err == nil {
		h.cond.Wait()
	}
	if h.err != nil {
		return nil, nil, h.err
	}
	full := make([][]types.Value, n)
	for i := range full {
		if rows, ok := local[i]; ok {
			full[i] = rows
			continue
		}
		rows, err := data.DecodeRowsFrame(h.frames[stage][i], nil)
		if err != nil {
			return nil, nil, err
		}
		full[i] = rows
	}
	return full, nil, nil
}

// scanSplit runs two members' ScanMasked concurrently through a splitHub and
// returns both partition vectors.
func scanSplit(t *testing.T, mk func() PartitionedScanner, parts int, owner func(stage string, i, n int) int) (out [2][][]types.Value, gathered [2]Gathered) {
	t.Helper()
	hub := newSplitHub(owner)
	var errs [2]error
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			out[m], gathered[m], errs[m] = ScanMasked(context.Background(), mk(), parts, splitSeat{hub, m}, "t")
			if errs[m] != nil {
				hub.abort(errs[m])
			}
		}(m)
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			t.Fatalf("parts=%d member %d: %v", parts, m, err)
		}
	}
	return out, gathered
}

// wantSameParts asserts partition-vector equality: same partition count, same
// rows per partition, element-wise identical values.
func wantSameParts(t *testing.T, got, want [][]types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition count = %d, want %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d: %d rows, want %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if !types.Equal(got[p][i], want[p][i]) {
				t.Fatalf("partition %d row %d = %v, want %v", p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestCustodyPlanMatchesScan is the source-layer half of the partitioned
// custody equivalence proof, anchored on the sequential readers: for every
// plan-driven format, two members that each build an arbitrary share of the
// chunks — with different shares in the vote and build rounds, and a dead
// third member's chunks adopted mid-stage — both end with the rows
// data.Read* produces, in the same partitions.
func TestCustodyPlanMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var blankJSON strings.Builder
	for i := 0; i < 150; i++ {
		if i%5 == 2 || i/20 == 3 { // scattered blanks plus one all-blank stretch
			blankJSON.WriteString("  \n")
			continue
		}
		blankJSON.WriteString(`{"id":` + strings.Repeat("1", 1+i%3) + `,"tag":"t"}` + "\n")
	}
	var lateCell strings.Builder // column b's only non-empty cell is in the last chunk
	lateCell.WriteString("a,b\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&lateCell, "row %d,\n", i)
	}
	lateCell.WriteString("last,7\n")

	// scattered spreads slots over both members and the dead one, differently
	// per stage, so chunks are built by members that never voted on them.
	scattered := func(stage string, i, _ int) int { return (i*7 + len(stage)) % 3 }
	csvRef := func(in []byte) ([]types.Value, error) { return data.ReadCSV(bytes.NewReader(in)) }
	jsonRef := func(in []byte) ([]types.Value, error) { return data.ReadJSON(bytes.NewReader(in)) }
	colbinRef := func(in []byte) ([]types.Value, error) { return data.ReadColbin(bytes.NewReader(in)) }
	csvSrc := func(in []byte) PartitionedScanner { return CSVBytes(in) }
	jsonSrc := func(in []byte) PartitionedScanner { return JSONBytes(in) }
	colbinSrc := func(in []byte) PartitionedScanner { return ColbinBytes(in) }

	cases := []struct {
		name  string
		in    []byte
		src   func([]byte) PartitionedScanner
		ref   func([]byte) ([]types.Value, error)
		owner func(stage string, i, n int) int
	}{
		{"csv", []byte(genCSV(rng, 120)), csvSrc, csvRef, scattered},
		{"csv-empty", nil, csvSrc, csvRef, scattered},
		{"csv-header-only", []byte("a,b,c\n"), csvSrc, csvRef, scattered},
		{"csv-crlf", []byte("a,b\r\n1,x\r\n2,y\r\n3.5,z\r\n4,w\r\n"), csvSrc, csvRef, scattered},
		{"csv-quoted-newline", []byte("id,note\n1,\"two\nlines\"\n2,\"esc\"\"aped\"\n3,\"a\n\nb\"\n4,plain\n"), csvSrc, csvRef, scattered},
		// Member 0 owns everything but the last chunk, in both rounds.
		{"csv-peer-only-vote", []byte(lateCell.String()), csvSrc, csvRef,
			func(_ string, i, n int) int {
				if i == n-1 {
					return 1
				}
				return 0
			}},
		{"json-blank-lines", []byte(blankJSON.String()), jsonSrc, jsonRef, scattered},
		{"json-empty", nil, jsonSrc, jsonRef, scattered},
		{"colbin", colbinSample(t, 200), colbinSrc, colbinRef, scattered},
		{"colbin-zero-rows", colbinSample(t, 0), colbinSrc, colbinRef, scattered},
	}
	for _, tc := range cases {
		want, err := tc.ref(tc.in)
		if err != nil {
			t.Fatalf("%s: reference reader: %v", tc.name, err)
		}
		for _, parts := range []int{1, 3, 8, len(want) + 5} {
			t.Run(fmt.Sprintf("%s/parts=%d", tc.name, parts), func(t *testing.T) {
				out, _ := scanSplit(t, func() PartitionedScanner { return tc.src(tc.in) }, parts, tc.owner)
				if len(out[0]) > parts {
					t.Fatalf("%d partitions for parts=%d", len(out[0]), parts)
				}
				wantSameRows(t, flatten(out[0]), want)
				wantSameParts(t, out[1], out[0])
			})
		}
	}
}

// TestCustodyPlanChunkBytes pins the byte accounting the cluster's
// memory-scaling claim rests on: per-chunk costs are positive and sum to
// (roughly, exactly for CSV) the whole input, so owning 1/N of the chunks
// means parsing ~1/N of the bytes.
func TestCustodyPlanChunkBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	csvText := genCSV(rng, 200)
	src := CSVBytes([]byte(csvText))
	plan, err := src.PlanScan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < plan.Chunks(); i++ {
		b := plan.ChunkBytes(i)
		if b <= 0 {
			t.Fatalf("chunk %d: ChunkBytes = %d", i, b)
		}
		sum += b
	}
	if sum != int64(len(csvText)) {
		t.Fatalf("CSV chunk bytes sum to %d, input is %d", sum, len(csvText))
	}

	colbinBuf := colbinSample(t, 100)
	cp, err := ColbinBytes(colbinBuf).PlanScan(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var csum int64
	for i := 0; i < cp.Chunks(); i++ {
		csum += cp.ChunkBytes(i)
	}
	if csum <= 0 || csum > int64(len(colbinBuf)) {
		t.Fatalf("colbin chunk bytes sum to %d, file is %d", csum, len(colbinBuf))
	}
}

// TestCustodyPlanBuildBeforeVotes: a CSV Build without SetTypes must error —
// the custody driver sequences the vote barrier first, and the plan enforces
// it rather than silently producing wrongly-typed rows.
func TestCustodyPlanBuildBeforeVotes(t *testing.T) {
	plan, err := CSVBytes([]byte("a,b\n1,2\n")).PlanScan(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Build(context.Background(), 0); err == nil {
		t.Fatal("Build before SetTypes succeeded")
	}
	if _, err := plan.Finish(make([][]types.Value, plan.Chunks())); err == nil {
		t.Fatal("Finish before SetTypes succeeded")
	}
}

// TestCustodyPlanAdoptionReparse: Build after an earlier Build of the same
// chunk (the adoption path re-parses chunks whose vote-round cache was
// dropped) returns identical rows.
func TestCustodyPlanAdoptionReparse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	plan, err := CSVBytes([]byte(genCSV(rng, 60))).PlanScan(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Chunks()
	votes := make([][]data.ColVote, n)
	for i := 0; i < n; i++ {
		if votes[i], err = plan.Vote(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	ts, voted := data.MergeColVotes(votes, len(votes[0]))
	if err := plan.SetTypes(data.ColVotes(ts, voted)); err != nil {
		t.Fatal(err)
	}
	first, err := plan.Build(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := plan.Build(context.Background(), 1) // cache dropped by the first Build
	if err != nil {
		t.Fatal(err)
	}
	wantSameRows(t, again, first)
}

// TestGatheredCountsSurvivingChunks: a JSONL chunk of blank lines that a peer
// owns is gathered and then dropped by Finish; it is no partition of the
// result, so it must not count as a gathered one. On both members, the
// partitions parsed here plus the partitions gathered are the partitions
// returned.
func TestGatheredCountsSurvivingChunks(t *testing.T) {
	var recs strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&recs, "{\"k\":%d}\n", i)
	}
	third := recs.String()
	in := []byte(third + strings.Repeat("\n", len(third)) + third)
	// Chunks 0 and 2 hold the records, chunk 1 the blank lines; member 1 owns
	// the blank chunk and the last one.
	owner := func(_ string, i, _ int) int { return min(i, 1) }
	out, gathered := scanSplit(t, func() PartitionedScanner { return JSONBytes(in) }, 3, owner)
	wantOwned := [2]int{1, 1}
	for m := range out {
		if len(out[m]) != 2 {
			t.Fatalf("member %d: %d partitions, want 2 (the blank chunk dropped)", m, len(out[m]))
		}
		if owned := len(out[m]) - gathered[m].Chunks; owned != wantOwned[m] || gathered[m].Chunks != 1 {
			t.Fatalf("member %d: owned %d + gathered %d of %d partitions, want %d + 1",
				m, owned, gathered[m].Chunks, len(out[m]), wantOwned[m])
		}
	}
	if gathered[0].Bytes != int64(2*len(third)) || gathered[1].Bytes != int64(len(third)) {
		t.Fatalf("gathered bytes = %d, %d; want %d, %d", gathered[0].Bytes, gathered[1].Bytes, 2*len(third), len(third))
	}
}
