package source

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"cleandb/internal/data"
	"cleandb/internal/types"
)

// FuzzCSVParallelMatchesSequential is the equivalence oracle for the
// chunk-parallel CSV loader: whenever the seed sequential reader accepts an
// input, every parallelism degree must accept it too and produce the same
// rows in the same order. (When the sequential reader rejects an input the
// chunked one is allowed to fail with a different message — both paths see
// the same malformed bytes, just split differently.)
// FuzzAppendCSVRows is the equivalence oracle for the CSV tail scan: cut a
// file at a line boundary, Scan the prefix, grow the buffer to the full
// input and TailScan — whenever the tail path accepts without demanding a
// reset, base rows + tail rows must equal a cold Scan of the whole input.
// The merged type commitment (base types lattice-joined with the tail's
// votes, resetting on any widening of a voted column) is exactly what makes
// this hold, so the fuzzer is hunting type-merge bugs.
func FuzzAppendCSVRows(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n3,z\n"), uint8(1))
	f.Add([]byte("a,b\n1,2\n3,4\n5.5,6\n"), uint8(0))
	f.Add([]byte("a,b\n,\n,\n1,x\n"), uint8(1))
	f.Add([]byte("id,name\n1,\"multi\nline\"\n2,\"esc\"\"aped\"\n"), uint8(2))
	f.Add([]byte("h\n1\n2\n"), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, splitHint uint8) {
		var nls []int
		for i, c := range in {
			if c == '\n' {
				nls = append(nls, i)
			}
		}
		if len(nls) == 0 {
			return
		}
		cut := nls[int(splitHint)%len(nls)] + 1
		src := CSVBytes(in[:cut])
		baseParts, err := src.Scan(context.Background(), 2)
		if err != nil {
			return
		}
		src.src.buf = in // the file grows past the scanned high-water mark
		tail, reset, err := src.TailScan(context.Background())
		if err != nil || reset {
			return // a rejected or resetting tail makes no equivalence claim
		}
		got := append(flatten(baseParts), tail...)

		coldParts, err := CSVBytes(in).Scan(context.Background(), 1)
		if err != nil {
			t.Fatalf("tail accepted but cold scan failed: %v", err)
		}
		want := flatten(coldParts)
		if len(got) != len(want) {
			t.Fatalf("base+tail %d rows, cold scan %d", len(got), len(want))
		}
		for i := range want {
			if !types.Equal(got[i], want[i]) {
				t.Fatalf("row %d: base+tail %v != cold %v", i, got[i], want[i])
			}
		}
	})
}

func FuzzCSVParallelMatchesSequential(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"))
	f.Add([]byte("id,name\n1,\"multi\nline\"\n2,\"esc\"\"aped\"\n"))
	f.Add([]byte("a,b,c\n1,,3\n,2,\n"))
	f.Add([]byte("h\n"))
	f.Add([]byte(""))
	f.Add([]byte("a,b\r\n1,2\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		want, err := data.ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, parts := range []int{1, 2, 3, 8} {
			got, err := CSVBytes(in).Scan(context.Background(), parts)
			if err != nil {
				t.Fatalf("parts=%d: sequential accepted but parallel failed: %v", parts, err)
			}
			flat := flatten(got)
			if len(flat) != len(want) {
				t.Fatalf("parts=%d: %d rows, want %d", parts, len(flat), len(want))
			}
			for i := range want {
				if !types.Equal(flat[i], want[i]) {
					t.Fatalf("parts=%d row %d: %v != %v", parts, i, flat[i], want[i])
				}
			}
		}
	})
}

// FuzzJSONLParallelMatchesSequential is the equivalence oracle for the
// line-chunked JSONL scan: for any partition count the plan-driven scan
// produces exactly data.ReadJSON's rows, or both reject the input — and then
// both name the same absolute line, however the bad lines fell into chunks.
func FuzzJSONLParallelMatchesSequential(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"a\":2}\n"), uint8(2))
	f.Add([]byte("{\"a\":1}\n\n  \n{\"b\":[1,2]}\n"), uint8(3))
	f.Add([]byte("{\"a\":1}\n{bad\n{\"a\":3}\n{worse\n"), uint8(8))
	f.Add([]byte("{\"a\":{\"b\":null}}\r\n{\"a\":1.5}"), uint8(200))
	f.Add([]byte(""), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, parts uint8) {
		want, werr := data.ReadJSON(bytes.NewReader(in))
		got, gerr := JSONBytes(in).Scan(context.Background(), int(parts))
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("parts=%d: sequential err %v, parallel err %v", parts, werr, gerr)
		}
		if werr != nil {
			if wl, gl := jsonErrLine(werr), jsonErrLine(gerr); wl != gl {
				t.Fatalf("parts=%d: sequential fails at line %d (%v), parallel at line %d (%v)", parts, wl, werr, gl, gerr)
			}
			return
		}
		flat := flatten(got)
		if len(flat) != len(want) {
			t.Fatalf("parts=%d: %d rows, want %d", parts, len(flat), len(want))
		}
		for i := range want {
			if !types.Equal(flat[i], want[i]) {
				t.Fatalf("parts=%d row %d: %v != %v", parts, i, flat[i], want[i])
			}
		}
	})
}

// jsonErrLine extracts N from a "json line N:" parse error, 0 when the error
// names no line.
func jsonErrLine(err error) int {
	_, rest, ok := strings.Cut(err.Error(), "json line ")
	if !ok {
		return 0
	}
	num, _, _ := strings.Cut(rest, ":")
	n, _ := strconv.Atoi(num)
	return n
}
