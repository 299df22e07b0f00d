package engine

import (
	"cmp"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"cleandb/internal/types"
)

var bandRowSchema = types.NewSchema("id", "b", "c", "d")

// bandValue decodes a fuzz byte into a band operand value: small numbers
// with duplicates (negative ones included), halves, and the values the band
// order cannot place — null, NaN, strings, bools.
func bandValue(x byte) types.Value {
	switch x % 16 {
	case 10:
		return types.Null()
	case 11:
		return types.Float(math.NaN())
	case 12:
		return types.String(string(rune('a' + x/16%3)))
	case 13:
		return types.Float(float64(x/16%7) - 3.5)
	case 14:
		return types.Bool(x/16%2 == 0)
	}
	return types.Int(int64(x%16) - 4)
}

// cmpOrd applies a comparison operator to a three-way comparison result.
func cmpOrd(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// FuzzBandJoinMaskLaw checks the band join family against the predicate it
// prunes for. Each row is three bytes: its band values b and c, and a flag
// byte (bit 0 fresh, bit 1 passes the left filter, the rest a tie-breaking
// attribute d). shape picks the op (bits 0–1), an asymmetric right operand
// c instead of b (bit 2), whether the left filter applies (bit 3) and
// whether the join has a band at all (bit 4 clear). The laws:
//
//   - masked ∪ (the masked stage over the old rows, all fresh) ≡ cartesian,
//     as multisets — an append's delta plus the view it extends is the cold
//     answer;
//   - the masked output order does not depend on the worker count;
//   - M-Bucket and min/max ≡ cartesian;
//   - the masked stage's comparisons are its candidate count — pairs with a
//     fresh member that the band rule cannot rule out — charged before the
//     first predicate call;
//   - a budget of 1 aborts it with ErrBudgetExceeded before any predicate
//     call.
func FuzzBandJoinMaskLaw(f *testing.F) {
	f.Add([]byte{1, 2, 1, 5, 5, 2, 10, 3, 3, 11, 7, 2, 12, 0, 0, 4, 9, 1, 13, 14, 3}, uint8(0))
	f.Add([]byte{0, 9, 3, 1, 8, 2, 2, 7, 1, 3, 6, 0, 4, 5, 3, 10, 10, 1}, uint8(5))
	f.Add([]byte{7, 7, 2, 7, 7, 3, 7, 7, 0, 26, 11, 1, 44, 12, 2}, uint8(14))
	f.Add([]byte{3, 1, 1, 2, 2, 0, 1, 3, 3}, uint8(16+3))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		var rows []types.Value
		var fresh, passes []bool
		for i := 0; i+2 < len(data) && len(rows) < 40; i += 3 {
			rows = append(rows, types.NewRecord(bandRowSchema, []types.Value{
				types.Int(int64(len(rows))), bandValue(data[i]), bandValue(data[i+1]), types.Int(int64(data[i+2] >> 2 % 4)),
			}))
			fresh = append(fresh, data[i+2]&1 == 1)
			passes = append(passes, shape&8 == 0 || data[i+2]&2 == 2)
		}
		op := [4]string{"<", "<=", ">", ">="}[shape&3]
		rattr := "b"
		if shape&4 != 0 {
			rattr = "c"
		}
		lop := func(v types.Value) types.Value { return v.Field("b") }
		rop := func(v types.Value) types.Value { return v.Field(rattr) }
		var band *Band
		if shape&16 == 0 {
			band = &Band{
				Left:  func(v types.Value) float64 { return BandKey(lop(v)) },
				Right: func(v types.Value) float64 { return BandKey(rop(v)) },
				Op:    op,
			}
		}
		id := func(v types.Value) int { return int(v.Field("id").Int()) }
		left := func(v types.Value) bool { return passes[id(v)] }
		pred := func(l, r types.Value) bool {
			return cmpOrd(op, types.Compare(lop(l), rop(r))) && l.Field("d").Int() >= r.Field("d").Int()
		}
		isFresh := func(i int, _ types.Value) bool { return fresh[i] }

		// The reference: every pair, in both the cartesian and the candidate
		// sense.
		var cartesian []types.Value
		var candidates int64
		for i, l := range rows {
			if !passes[i] {
				continue
			}
			for j, r := range rows {
				if pred(l, r) {
					cartesian = append(cartesian, PairCombine(l, r))
				}
				if !fresh[i] && !fresh[j] {
					continue
				}
				lk, rk := BandKey(lop(l)), BandKey(rop(r))
				if band == nil || lk != lk || rk != rk || cmpOrd(op, cmp.Compare(lk, rk)) {
					candidates++
				}
			}
		}

		var masked [][]string
		for _, workers := range []int{1, 3} {
			ctx := NewContext(workers)
			var first sync.Once
			var charged atomic.Int64 // comparisons charged when pred first ran
			counted := func(l, r types.Value) bool {
				first.Do(func() { charged.Store(ctx.Metrics().Comparisons()) })
				return pred(l, r)
			}
			out, err := FromValues(ctx, rows).MaskedSelfJoin("join", isFresh, left, band, counted, PairCombine)
			if err != nil {
				t.Fatal(err)
			}
			if got := ctx.Metrics().Comparisons(); got != candidates || charged.Load() != candidates {
				t.Fatalf("masked stage charged %d comparisons, %d before the first predicate call, want %d",
					got, charged.Load(), candidates)
			}
			masked = append(masked, keysInOrder(out.Collect()))

			if workers == 1 {
				var old []types.Value
				for i, r := range rows {
					if !fresh[i] {
						old = append(old, r)
					}
				}
				all := func(int, types.Value) bool { return true }
				prior, err := FromValues(NewContext(2), old).MaskedSelfJoin("join", all, left, band, pred, PairCombine)
				if err != nil {
					t.Fatal(err)
				}
				sameRecords(t, append(out.Collect(), prior.Collect()...), cartesian, "masked ∪ old-only vs cartesian")
			}
		}
		if len(masked[0]) != len(masked[1]) {
			t.Fatalf("masked output: %d rows on 1 worker, %d on 3", len(masked[0]), len(masked[1]))
		}
		for i := range masked[0] {
			if masked[0][i] != masked[1][i] {
				t.Fatalf("masked output row %d: %s on 1 worker, %s on 3", i, masked[0][i], masked[1][i])
			}
		}

		ctx := NewContext(3)
		all, filtered := FromValues(ctx, rows), FromValues(ctx, rows).Filter("filter", left)
		mbucket, err := filtered.ThetaJoin("t", all, ThetaJoinStats{Band: band}, pred, PairCombine)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, mbucket.Collect(), cartesian, "mbucket vs cartesian")
		minmax, err := filtered.MinMaxBlockJoin("m", all, band, pred, PairCombine)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, minmax.Collect(), cartesian, "minmax vs cartesian")

		if candidates > 1 {
			ctx := NewContext(2)
			ctx.CompBudget = 1
			var called atomic.Bool
			never := func(types.Value, types.Value) bool {
				called.Store(true)
				return false
			}
			_, err := FromValues(ctx, rows).MaskedSelfJoin("join", isFresh, left, band, never, PairCombine)
			if !errors.Is(err, ErrBudgetExceeded) || called.Load() {
				t.Fatalf("budget 1 over %d candidates returned %v (predicate called: %v)", candidates, err, called.Load())
			}
		}
	})
}

// keysInOrder renders records to their canonical keys, keeping order.
func keysInOrder(vs []types.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = types.Key(v)
	}
	return out
}
