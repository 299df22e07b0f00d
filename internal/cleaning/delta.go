package cleaning

import (
	"sort"

	"cleandb/internal/engine"
	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

// This file is the delta side of denial-constraint detection: given a
// dataset in which only some rows are "fresh" (appended tuples, or tuples a
// repair round rewrote), the violating pairs that involve a fresh row are
// exactly the pairs a full re-check could report beyond those already known.
// Enumerating only fresh×all plus old×fresh bounds the work by the delta
// instead of the dataset, which is what makes both incremental query
// execution and the repair fixpoint's later rounds cheap.
//
// The enumeration reuses the band structure the theta-join strategies prune
// on: rows are sorted by the band attribute once, and each outer row only
// scans the band range its BandOp admits, so candidate counts shrink the
// same way the full join's bucket pruning shrinks them.

// bandRow pairs a row's global index with its band value for the sorted
// candidate views.
type bandRow struct {
	idx  int
	band float64
}

// sortByBand returns rows[idx] for idx in ids, ordered by band value (ties
// by global index, so the view is deterministic).
func sortByBand(ids []int, band []float64) []bandRow {
	out := make([]bandRow, len(ids))
	for i, id := range ids {
		out[i] = bandRow{idx: id, band: band[id]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].band != out[j].band {
			return out[i].band < out[j].band
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// bandRange returns the half-open index range of view whose band values can
// satisfy `x op band` (the candidates for a fixed left value x). An unknown
// op admits everything.
func bandRange(view []bandRow, x float64, op string) (int, int) {
	firstGE := func() int {
		return sort.Search(len(view), func(i int) bool { return view[i].band >= x })
	}
	firstGT := func() int {
		return sort.Search(len(view), func(i int) bool { return view[i].band > x })
	}
	switch op {
	case "<":
		return firstGT(), len(view)
	case "<=":
		return firstGE(), len(view)
	case ">":
		return 0, firstGE()
	case ">=":
		return 0, firstGT()
	default:
		return 0, len(view)
	}
}

// DeltaDCPairs enumerates the violating pairs of cfg that touch at least one
// fresh row: fresh t1 against every row (fresh×fresh included, self-pairs
// included, exactly as the self-join enumerates them), plus old t1 against
// fresh t2. Rows are taken in the dataset's global order, so together with a
// prior run's pairs over the old rows this reproduces the full check's pair
// multiset.
//
// Every candidate admitted by the band range is charged one comparison, the
// same accounting rule the join strategies apply to their unpruned cells; the
// context's comparison budget aborts the enumeration with ErrBudgetExceeded.
func DeltaDCPairs(ds *engine.Dataset, fresh func(i int, v types.Value) bool, cfg DCConfig) ([][2]types.Value, error) {
	ctx := ds.Context()
	rows := ds.Collect()
	n := len(rows)

	freshMask := make([]bool, n)
	var freshIdx []int
	for i, r := range rows {
		if fresh(i, r) {
			freshMask[i] = true
			freshIdx = append(freshIdx, i)
		}
	}
	if len(freshIdx) == 0 {
		return nil, nil
	}
	// Record the pass in the strategy ledger alongside the join strategies it
	// substitutes for, so /metrics strategy counts cover delta-served
	// executions too.
	if cfg.Band != nil {
		ctx.Metrics().NoteStrategy("join:delta-band")
	} else {
		ctx.Metrics().NoteStrategy("join:delta-scan")
	}

	passesLeft := func(v types.Value) bool {
		return cfg.LeftFilter == nil || cfg.LeftFilter(v)
	}

	// Old left-side rows: the t1 candidates of the old×fresh half.
	var oldLeft []int
	for i, r := range rows {
		if !freshMask[i] && passesLeft(r) {
			oldLeft = append(oldLeft, i)
		}
	}

	pruned := cfg.Band != nil
	var band []float64
	var allView, oldLeftView []bandRow
	if pruned {
		band = make([]float64, n)
		for i, r := range rows {
			band[i] = cfg.Band(r)
		}
		allIdx := make([]int, n)
		for i := range allIdx {
			allIdx[i] = i
		}
		allView = sortByBand(allIdx, band)
		oldLeftView = sortByBand(oldLeft, band)
	}

	var out [][2]types.Value
	emit := func(t1, t2 types.Value) error {
		if err := ctx.ChargeComparisons(1); err != nil {
			return err
		}
		if cfg.Pred(t1, t2) {
			out = append(out, [2]types.Value{t1, t2})
		}
		return nil
	}

	// Fresh t1 × every t2 (the new×new and new×old halves).
	for _, i := range freshIdx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t1 := rows[i]
		if !passesLeft(t1) {
			continue
		}
		if pruned {
			lo, hi := bandRange(allView, band[i], cfg.BandOp)
			for _, c := range allView[lo:hi] {
				if err := emit(t1, rows[c.idx]); err != nil {
					return nil, err
				}
			}
		} else {
			for _, t2 := range rows {
				if err := emit(t1, t2); err != nil {
					return nil, err
				}
			}
		}
	}

	// Old t1 × fresh t2 (the old×new half; old t1 keeps the two loops
	// disjoint, so no pair is enumerated twice).
	for _, j := range freshIdx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t2 := rows[j]
		if pruned {
			lo, hi := bandRange(oldLeftView, band[j], monoid.MirrorOp(cfg.BandOp))
			for _, c := range oldLeftView[lo:hi] {
				if err := emit(rows[c.idx], t2); err != nil {
					return nil, err
				}
			}
		} else {
			for _, i := range oldLeft {
				if err := emit(rows[i], t2); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}
