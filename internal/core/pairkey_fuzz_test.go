package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cleandb/internal/types"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it runs
// dry.
type fuzzBytes struct{ b []byte }

func (s *fuzzBytes) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// fuzzFloats are the floats whose key encodings are most likely to collide
// with, or extend, another key: the specials, both zeros, both encodings'
// boundary (1e15), exponent forms, and numbers that are prefixes of others.
var fuzzFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	1, 12, 123, 1.2, 1.25, -1, -12, 1e15, 1e16, 1e20, 1e-7, 1.5e-7, 1e21, 12e20,
}

// fuzzChars favours the bytes the key encoding gives meaning to.
const fuzzChars = "\"\\(),[]#∅ aZ09.-+e\x00\x7f\xff"

func fuzzValue(s *fuzzBytes, depth int) types.Value {
	kind := s.next() % 8
	if depth == 0 && kind >= 6 {
		kind -= 4
	}
	switch kind {
	case 0:
		return types.Null()
	case 1:
		return types.Bool(s.next()%2 == 0)
	case 2:
		return types.Int(int64(int8(s.next())))
	case 3:
		return types.Int(int64(s.next()) * 1_000_003)
	case 4:
		return types.Float(fuzzFloats[int(s.next())%len(fuzzFloats)])
	case 5:
		n := int(s.next() % 5)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = fuzzChars[int(s.next())%len(fuzzChars)]
		}
		return types.String(string(buf))
	case 6:
		vs := make([]types.Value, s.next()%4)
		for i := range vs {
			vs[i] = fuzzValue(s, depth-1)
		}
		return types.ListOf(vs)
	default:
		names := []string{"p", "q", "r"}[:s.next()%4]
		vs := make([]types.Value, len(names))
		for i := range vs {
			vs[i] = fuzzValue(s, depth-1)
		}
		return types.NewRecord(types.NewSchema(names...), vs)
	}
}

// FuzzPairKeyOrder pins the fact sortRowsByKey rests on: ordering pair rows
// by (Key(a), Key(b)) is ordering them by Key({a, b}), for any members —
// records, scalars, nested lists, strings full of the encoding's own
// delimiters, special floats. It holds because no complete key is a proper
// prefix of another key followed by a byte at or below ',', which is what
// would let the concatenated form and the pairwise form disagree.
func FuzzPairKeyOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 12, 2, 1, 2, 123, 2, 0, 2, 1, 2, 2})
	f.Add([]byte{4, 5, 4, 6, 4, 7, 4, 8, 4, 9, 4, 0, 4, 1, 4, 3, 4, 4})
	f.Add([]byte{5, 2, 0, 3, 5, 3, 0, 3, 4, 5, 1, 0, 7, 2, 5, 1, 3, 0})
	f.Add([]byte{6, 2, 2, 1, 2, 2, 7, 3, 0, 1, 0, 5, 1, 2, 6, 1, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzBytes{b: data}
		n := 2 + int(src.next()%14)
		rows := make([]types.Value, n)
		for i := range rows {
			rows[i] = types.NewRecord(pairSchema, []types.Value{fuzzValue(src, 2), fuzzValue(src, 2)})
		}

		want := make([]string, n)
		for i, r := range rows {
			want[i] = types.Key(r)
		}
		sort.Strings(want)

		keys := sortRowsByKey(types.NewTupleTable(), rows)
		for i, r := range rows {
			if got := types.Key(r); got != want[i] {
				t.Fatalf("row %d: pairwise order puts %s here, whole-row order %s", i, got, want[i])
			}
			a, b := keys.at(i)
			if k := "(" + a + "," + b + ")"; k != want[i] {
				t.Fatalf("row %d: returned key %s, row key %s", i, k, want[i])
			}
		}
		if !keys.sorted() {
			t.Fatalf("returned keys are not sorted: %v", keys)
		}

		// Two runs keyed by separate executions merge into the same order.
		a, b := append([]types.Value(nil), rows[:n/2]...), append([]types.Value(nil), rows[n/2:]...)
		slices.Reverse(b)
		tab := types.NewTupleTable()
		aKeys, bKeys := sortRowsByKey(types.NewTupleTable(), a), sortRowsByKey(tab, b)
		merged, mergedKeys := mergeSortedRuns(tab, a, aKeys, b, bKeys)
		if len(merged) != n || !mergedKeys.sorted() {
			t.Fatalf("merge of %d+%d rows gave %d, sorted=%v", len(a), len(b), len(merged), mergedKeys.sorted())
		}
		for i, r := range merged {
			ka, kb := mergedKeys.at(i)
			if k := "(" + ka + "," + kb + ")"; types.Key(r) != want[i] || k != want[i] {
				t.Fatalf("merged row %d: row %s, key %s, want %s", i, types.Key(r), k, want[i])
			}
		}
	})
}
