package engine

import (
	"cmp"
	"math"
	"sort"

	"cleandb/internal/types"
)

// CombineFunc merges a left and right record into one output record.
type CombineFunc func(l, r types.Value) types.Value

// cancelCheckEvery amortizes cancellation polling in join inner loops:
// Context.Err locks the Go context's mutex, so workers consult it only once
// per this many candidate comparisons — cheap enough to vanish in the
// predicate cost, frequent enough that cancellation still lands in
// milliseconds.
const cancelCheckEvery = 1 << 16

// PairSchema is the default output schema of joins: {left, right}.
var PairSchema = types.NewSchema("left", "right")

// PairCombine builds a {left, right} record; the right side may be null for
// outer joins.
func PairCombine(l, r types.Value) types.Value {
	return types.NewRecord(PairSchema, []types.Value{l, r})
}

// HashJoin performs an equi-join: both sides are hash-partitioned on their
// key, then each partition builds a table on the right side and probes with
// the left. Matches the paper's Table 2 mapping of the equi-join operator.
func (d *Dataset) HashJoin(name string, right *Dataset, lkey, rkey KeyFunc, combine CombineFunc) *Dataset {
	return d.hashJoin(name, right, lkey, rkey, combine, false)
}

// LeftOuterHashJoin is HashJoin but emits combine(l, Null) for unmatched left
// rows — the paper's outer-join operator used to assemble violation reports.
func (d *Dataset) LeftOuterHashJoin(name string, right *Dataset, lkey, rkey KeyFunc, combine CombineFunc) *Dataset {
	return d.hashJoin(name, right, lkey, rkey, combine, true)
}

func (d *Dataset) hashJoin(name string, right *Dataset, lkey, rkey KeyFunc, combine CombineFunc, outer bool) *Dataset {
	w := d.ctx.Workers
	lb := make([][]types.Value, w)
	rb := make([][]types.Value, w)
	var shuffled, bytes int64
	route := func(parts [][]types.Value, key KeyFunc, buckets [][]types.Value) {
		for _, p := range parts {
			for _, v := range p {
				b := int(types.Hash(key(v)) % uint64(w))
				buckets[b] = append(buckets[b], v)
				shuffled++
				bytes += int64(types.SizeBytes(v))
			}
		}
	}
	route(d.rows(), lkey, lb)
	route(right.rows(), rkey, rb)

	// Per-slot costs depend only on bucket sizes, never on execution, so a
	// distributed run charges identical stage stats on every node even though
	// each node probes only the buckets it owns.
	costs := make([]int64, w)
	for b := 0; b < w; b++ {
		costs[b] = int64(len(lb[b]) + len(rb[b]))
	}
	out, err := d.ctx.maskedRun(name+":hashjoin", w, func(b int) []types.Value {
		table := make(map[string][]types.Value, len(rb[b]))
		for _, rv := range rb[b] {
			ks := types.Key(rkey(rv))
			table[ks] = append(table[ks], rv)
		}
		var res []types.Value
		for _, lv := range lb[b] {
			ks := types.Key(lkey(lv))
			matches := table[ks]
			if len(matches) == 0 {
				if outer {
					res = append(res, combine(lv, types.Null()))
				}
				continue
			}
			for _, rv := range matches {
				res = append(res, combine(lv, rv))
			}
		}
		return res
	})
	if err != nil {
		// hashJoin has no error return; the poisoned/cancelled job surfaces
		// the failure at the end of the query via Context.Err.
		out = make([][]types.Value, w)
	}
	d.ctx.metrics.logStage(StageStats{
		Name: name + ":hashjoin", WorkerCosts: costs,
		ShuffledRecords: shuffled, ShuffledBytes: bytes,
	})
	return &Dataset{ctx: d.ctx, parts: out}
}

// BroadcastJoin ships the (small) right side to every worker and probes it
// with the left side in place — the plan CleanDB uses for dictionary lookups
// in term validation.
func (d *Dataset) BroadcastJoin(name string, right []types.Value, rkey func(types.Value) types.Value, lkey KeyFunc, combine CombineFunc) *Dataset {
	table := make(map[string][]types.Value, len(right))
	for _, rv := range right {
		ks := types.Key(rkey(rv))
		table[ks] = append(table[ks], rv)
	}
	bcastBytes := int64(0)
	for _, rv := range right {
		bcastBytes += int64(types.SizeBytes(rv))
	}
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		var res []types.Value
		for _, lv := range parts[i] {
			for _, rv := range table[types.Key(lkey(lv))] {
				res = append(res, combine(lv, rv))
			}
		}
		out[i] = res
		costs[i] = int64(len(parts[i]))
	})
	d.ctx.metrics.logStage(StageStats{
		Name: name + ":broadcast", WorkerCosts: costs,
		ShuffledRecords: int64(len(right)) * int64(d.ctx.Workers),
		ShuffledBytes:   bcastBytes * int64(d.ctx.Workers),
	})
	return &Dataset{ctx: d.ctx, parts: out}
}

// CartesianFilter computes the full cross product of d and right, keeping
// pairs that satisfy pred. This is the plan Spark SQL falls back to for theta
// joins (paper §6); it charges one comparison per candidate pair and aborts
// with ErrBudgetExceeded when the context budget is spent — the experiments
// report that as DNF.
func (d *Dataset) CartesianFilter(name string, right *Dataset, pred func(l, r types.Value) bool, combine CombineFunc) (*Dataset, error) {
	rall := right.Collect()
	m := int64(len(rall))
	if err := d.ctx.ChargeComparisons(d.Count() * m); err != nil {
		return nil, err
	}
	var shuffled int64 = m * int64(d.ctx.Workers) // right side replicated everywhere
	parts := d.rows()
	slots := make([][]cell, len(parts))
	costs := make([]int64, len(parts))
	for i := range parts {
		costs[i] = int64(len(parts[i])) * m
		slots[i] = []cell{{li: i, cost: costs[i]}}
	}
	out, err := d.runCells(name+":cartesian", slots, parts, [][]types.Value{rall}, pred, combine)
	if err != nil {
		return nil, err
	}
	d.ctx.metrics.logStage(StageStats{
		Name: name + ":cartesian", WorkerCosts: costs,
		ShuffledRecords: shuffled,
	})
	return &Dataset{ctx: d.ctx, parts: out}, nil
}

// Band is a band conjunct of a theta predicate — `l Op r` with Op one of
// < <= > >= under types.Compare, a condition every matching pair meets —
// which the theta joins sort and prune on. Left and Right return a row's
// band key on their side of the join (BandKey of that side's operand), so
// each side is sorted and pruned on its own operand.
type Band struct {
	Left, Right func(types.Value) float64
	Op          string
}

// BandKey is a band operand's key: the value itself when it has a place in
// types.Compare's numeric order, NaN otherwise. A NaN key marks its row
// unordered — null, NaN, strings, bools, anything non-numeric. No band
// comparison rules an unordered row out: it is a candidate for every partner,
// and a bucket or block holding one is never pruned.
func BandKey(v types.Value) float64 {
	if !v.IsNumeric() {
		return math.NaN()
	}
	return v.Float()
}

// bandRule is the one reading of a band comparison `l op r`, the only place
// that knows what a band lets a join skip. up: r must lie above l ("<",
// "<="); strict: l == r fails. The zero rule (any other op) skips nothing.
type bandRule struct{ ok, up, strict bool }

// bandRules reads each band op; bandRules[op] of any other op is the zero
// rule.
var bandRules = map[string]bandRule{
	"<":  {ok: true, up: true, strict: true},
	"<=": {ok: true, up: true},
	">":  {ok: true, strict: true},
	">=": {ok: true},
}

// mirror reads the rule from the right side: `l op r` holds iff
// `r mirror(op) l`.
func (b bandRule) mirror() bandRule {
	b.up = !b.up
	return b
}

// span returns the range [lo, hi) of the ascending ordered keys whose r can
// satisfy `x op r` — exactly those: the masked stage's candidates for an
// outer key x. An unordered x, or a rule that is not a band, spans them all.
func (b bandRule) span(keys []float64, x float64) (lo, hi int) {
	if !b.ok || x != x {
		return 0, len(keys)
	}
	// The cut is the first key above x for "<" and ">=", the first at or
	// above x for "<=" and ">".
	above := b.up == b.strict
	cut := sort.Search(len(keys), func(i int) bool { return keys[i] > x || (!above && keys[i] == x) })
	if b.up {
		return cut, len(keys)
	}
	return 0, cut
}

// prune reports whether no l in [lmin, lmax] and r in [rmin, rmax] can
// satisfy the band: ThetaJoin's bucket-pair prune and, negated,
// MinMaxBlockJoin's block overlap. It keeps boundary ties even under a
// strict op — the reading the cold joins' candidate counts are defined by.
func (b bandRule) prune(lmin, lmax, rmin, rmax float64) bool {
	switch {
	case !b.ok:
		return false
	case b.up:
		return lmin > rmax
	}
	return lmax < rmin
}

// bucketRanges returns the [min, max] band statistics of each of the n
// buckets splitBuckets cuts keys into. A bucket holding an unordered key
// spans (−Inf, +Inf): that row may pair with anything, so no band prunes it.
func bucketRanges(keys []float64, n int) [][2]float64 {
	buckets := splitBuckets(keys, n)
	out := make([][2]float64, len(buckets))
	for i, ks := range buckets {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, k := range ks {
			if k != k {
				lo, hi = math.Inf(-1), math.Inf(1)
				break
			}
			lo, hi = min(lo, k), max(hi, k)
		}
		out[i] = [2]float64{lo, hi}
	}
	return out
}

// ThetaJoinStats configures the statistics-aware theta join.
type ThetaJoinStats struct {
	// Band, when non-nil, is the predicate's band conjunct: each side is
	// sorted on its own operand and bucket pairs are pruned by the band
	// rule. SortKey and Prune are then ignored.
	Band *Band
	// SortKey orders both sides' records for histogram construction; bucket
	// min/max statistics are computed on it. For band predicates (price
	// inequality joins) this enables bucket-pair pruning.
	SortKey func(types.Value) float64
	// Prune, when non-nil, returns true when a bucket pair (given left
	// bucket [lmin,lmax] and right bucket [rmin,rmax] on SortKey) cannot
	// contain any satisfying pair and may be skipped.
	Prune func(lmin, lmax, rmin, rmax float64) bool
	// Buckets is the histogram resolution per side (default 4×workers).
	Buckets int
}

// ThetaJoin implements CleanDB's statistics-aware theta join (paper §6,
// following Okcan & Riedewald's matrix partitioning): it computes equi-depth
// histograms on both inputs, prunes impossible bucket pairs using min/max
// statistics, and assigns the surviving cells of the comparison matrix to
// workers so that each owns a near-equal share of the candidate comparisons.
func (d *Dataset) ThetaJoin(name string, right *Dataset, stats ThetaJoinStats, pred func(l, r types.Value) bool, combine CombineFunc) (*Dataset, error) {
	lkey, rkey, prune := stats.SortKey, stats.SortKey, stats.Prune
	if b := stats.Band; b != nil {
		lkey, rkey, prune = b.Left, b.Right, bandRules[b.Op].prune
	}
	lall, rall := d.Collect(), right.Collect()
	var lkeys, rkeys []float64
	if lkey != nil && rkey != nil {
		lkeys, rkeys = keysOf(lall, lkey), keysOf(rall, rkey)
		sort.Stable(bandOrder[types.Value]{lkeys, lall})
		sort.Stable(bandOrder[types.Value]{rkeys, rall})
	} else {
		prune = nil
	}
	nb := stats.Buckets
	if nb <= 0 {
		nb = 4 * d.ctx.Workers
	}
	lb, lr := splitBuckets(lall, nb), bucketRanges(lkeys, nb)
	rb, rr := splitBuckets(rall, nb), bucketRanges(rkeys, nb)

	cells, candidate := matrix(lb, rb, lr, rr, prune)
	if err := d.ctx.ChargeComparisons(candidate); err != nil {
		return nil, err
	}

	// Longest-processing-time assignment of cells to workers for balance.
	sort.Slice(cells, func(i, j int) bool { return cells[i].cost > cells[j].cost })
	w := d.ctx.Workers
	assign := make([][]cell, w)
	loads := make([]int64, w)
	//lint:ignore ctxcancel LPT assignment is O(cells·workers) bookkeeping, no per-row work
	for _, c := range cells {
		best := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		assign[best] = append(assign[best], c)
		loads[best] += c.cost
	}

	out, err := d.runCells(name+":thetajoin", assign, lb, rb, pred, combine)
	if err != nil {
		return nil, err
	}
	// Each row is shipped to the workers owning its row/column of the matrix;
	// with balanced rectangles that is ~sqrt(W) copies (Okcan & Riedewald).
	repl := int64(intSqrt(w))
	if repl < 1 {
		repl = 1
	}
	d.ctx.metrics.logStage(StageStats{
		Name: name + ":thetajoin", WorkerCosts: loads,
		ShuffledRecords: (int64(len(lall)) + int64(len(rall))) * repl,
	})
	return &Dataset{ctx: d.ctx, parts: out}, nil
}

// MinMaxBlockJoin models BigDansing's inequality-join strategy (paper §8.3):
// the inputs are split into blocks in arrival order, per-block min/max
// statistics on the band (each side on its own operand) are computed, and
// only block pairs whose ranges overlap under the band rule are compared; a
// nil band compares every block pair. When the data is not pre-ordered on
// the predicate attribute, nearly every pair of ranges overlaps, pruning is
// ineffective, and the job exceeds its budget — reproducing the paper's
// observation that BigDansing is non-responsive on rule ψ.
func (d *Dataset) MinMaxBlockJoin(name string, right *Dataset, band *Band, pred func(l, r types.Value) bool, combine CombineFunc) (*Dataset, error) {
	lall := d.Collect()
	rall := right.Collect()
	var lkeys, rkeys []float64
	var prune func(lmin, lmax, rmin, rmax float64) bool
	if band != nil {
		lkeys, rkeys, prune = keysOf(lall, band.Left), keysOf(rall, band.Right), bandRules[band.Op].prune
	}
	nb := 4 * d.ctx.Workers
	lb, lr := splitBuckets(lall, nb), bucketRanges(lkeys, nb)
	rb, rr := splitBuckets(rall, nb), bucketRanges(rkeys, nb)
	cells, candidate := matrix(lb, rb, lr, rr, prune)
	if err := d.ctx.ChargeComparisons(candidate); err != nil {
		return nil, err
	}
	// BigDansing deals the surviving block pairs round-robin and shuffles
	// every one across the cluster.
	w := d.ctx.Workers
	assign := make([][]cell, w)
	loads := make([]int64, w)
	for i, c := range cells {
		assign[i%w] = append(assign[i%w], c)
		loads[i%w] += c.cost
	}
	out, err := d.runCells(name+":minmaxjoin", assign, lb, rb, pred, combine)
	if err != nil {
		return nil, err
	}
	d.ctx.metrics.logStage(StageStats{
		Name: name + ":minmaxjoin", WorkerCosts: loads,
		ShuffledRecords: int64(len(cells)) * 2,
	})
	return &Dataset{ctx: d.ctx, parts: out}, nil
}

// cell is one block pair of a join's comparison matrix: every row of left
// block li against every row of right block ri, cost candidate pairs.
type cell struct {
	li, ri int
	cost   int64
}

// matrix returns the cells of lb × rb, row by row, that are not empty and
// that prune (over the blocks' band ranges lr, rr; nil prunes nothing)
// cannot rule out, and their candidate count. The enumeration is O(blocks²)
// with constant work per cell.
func matrix(lb, rb [][]types.Value, lr, rr [][2]float64, prune func(lmin, lmax, rmin, rmax float64) bool) (cells []cell, candidate int64) {
	for li, L := range lb {
		for ri, R := range rb {
			if len(L) == 0 || len(R) == 0 || (prune != nil && prune(lr[li][0], lr[li][1], rr[ri][0], rr[ri][1])) {
				continue
			}
			c := int64(len(L)) * int64(len(R))
			cells = append(cells, cell{li, ri, c})
			candidate += c
		}
	}
	return cells, candidate
}

// runCells runs a join's slots as the masked stage name: slot i tests, cell
// by cell, every row of its left block against every row of its right block,
// emitting combine(l, r) for the pairs pred accepts. Cancellation is polled
// once per cancelCheckEvery candidates.
func (d *Dataset) runCells(name string, slots [][]cell, lb, rb [][]types.Value, pred func(l, r types.Value) bool, combine CombineFunc) ([][]types.Value, error) {
	return d.ctx.maskedRun(name, len(slots), func(i int) []types.Value {
		var res []types.Value
		since := 0
		for _, c := range slots[i] {
			for _, lv := range lb[c.li] {
				if since += len(rb[c.ri]); since >= cancelCheckEvery {
					since = 0
					if d.ctx.Err() != nil {
						return res
					}
				}
				for _, rv := range rb[c.ri] {
					if pred(lv, rv) {
						res = append(res, combine(lv, rv))
					}
				}
			}
		}
		return res
	})
}

// MaskedSelfJoin is ThetaJoin's fresh-side variant: the theta self-join of d
// restricted to the pairs with a fresh member, fresh marking the rows (by
// global index and value) new since an earlier enumeration of the same join.
// It emits combine(t1, t2) for every pair with t1 passing left (nil passes
// all) and pred(t1, t2): fresh t1 against every t2, self-pairs included,
// then old t1 against fresh t2 — with the earlier enumeration over the old
// rows, the whole self-join, pair for pair.
//
// With a band, an outer row's candidates are exactly the rows the band rule
// admits: the partner side's unordered rows, then the outer key's span of
// its ordered rows, that side sorted on its own operand, ties by global
// index; without one, every row in index order. All candidates are charged
// through ChargeComparisons before pred first runs. The outer rows are cut
// into Workers contiguous slots of near-equal candidate count, run on the
// worker pool — node-local: a delta pass never runs distributed, and a
// REPAIR re-check replays on every member like the narrow stages — and
// joined in slot order: the output order does not depend on the worker
// count. The stage logs, and notes in the strategy ledger, name+":delta-band"
// (":delta-scan" without a band); cancelled, it still logs its whole cost.
func (d *Dataset) MaskedSelfJoin(name string, fresh func(i int, v types.Value) bool, left func(types.Value) bool, band *Band, pred func(l, r types.Value) bool, combine CombineFunc) (*Dataset, error) {
	ctx := d.ctx
	rows := d.Collect()
	stage, rule := name+":delta-scan", bandRule{}
	zero := func(types.Value) float64 { return 0 }
	lkey, rkey := zero, zero
	if band != nil {
		stage, rule, lkey, rkey = name+":delta-band", bandRules[band.Op], band.Left, band.Right
	}
	ctx.metrics.NoteStrategy(stage)

	all := make([]int, len(rows))
	var freshRows, oldLeft []int
	for i, r := range rows {
		all[i] = i
		switch {
		case fresh(i, r):
			freshRows = append(freshRows, i)
		case left == nil || left(r):
			oldLeft = append(oldLeft, i)
		}
	}
	// view sorts one side's rows (ascending indexes) on their keys for band
	// lookups and returns their candidates for an outer key x under a rule:
	// the unordered rows, then x's span of the ordered ones.
	view := func(idx []int, key func(types.Value) float64) func(rule bandRule, x float64) [2][]int {
		keys := make([]float64, len(idx))
		for j, i := range idx {
			keys[j] = key(rows[i])
		}
		sort.Stable(bandOrder[int]{keys, idx})
		u := sort.Search(len(keys), func(i int) bool { return keys[i] == keys[i] })
		return func(rule bandRule, x float64) [2][]int {
			lo, hi := rule.span(keys[u:], x)
			return [2][]int{idx[:u], idx[u+lo : u+hi]}
		}
	}
	t2s := view(all, rkey)     // every row, as t2
	t1s := view(oldLeft, lkey) // the old t1 rows, for the old×fresh half

	// One probe per outer row, in emission order, and its candidate count.
	type probe struct {
		outer     int
		outerIsT2 bool
		partners  [2][]int // unordered rows, then the span
	}
	var probes []probe
	var counts []int64
	add := func(outer int, outerIsT2 bool, partners [2][]int) {
		probes = append(probes, probe{outer, outerIsT2, partners})
		counts = append(counts, int64(len(partners[0])+len(partners[1])))
	}
	for _, i := range freshRows {
		if left == nil || left(rows[i]) {
			add(i, false, t2s(rule, lkey(rows[i])))
		}
	}
	for _, j := range freshRows {
		add(j, true, t1s(rule.mirror(), rkey(rows[j])))
	}
	bounds, costs := contiguousRuns(counts, ctx.Workers)
	if err := ctx.ChargeComparisons(sumCosts(costs)); err != nil {
		return nil, err
	}

	out := make([][]types.Value, len(costs))
	ctx.runParallel(len(costs), func(s int) {
		var res []types.Value
		since := 0
		for k := bounds[s]; k < bounds[s+1]; k++ {
			p := probes[k]
			if since += int(counts[k]); since >= cancelCheckEvery {
				since = 0
				if ctx.Err() != nil {
					return // cancelled mid-slot: the job's error is reported below
				}
			}
			o := rows[p.outer]
			for _, part := range p.partners {
				for _, c := range part {
					t1, t2 := o, rows[c]
					if p.outerIsT2 {
						t1, t2 = t2, t1
					}
					if pred(t1, t2) {
						res = append(res, combine(t1, t2))
					}
				}
			}
		}
		out[s] = res
	})
	ctx.metrics.logStage(StageStats{Name: stage, WorkerCosts: costs})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Dataset{ctx: ctx, parts: out}, nil
}

// contiguousRuns cuts counts into at most w contiguous runs of near-equal
// sum — run k ends at the first item where the running sum reaches k/w of
// the total — and returns the run boundaries and sums.
func contiguousRuns(counts []int64, w int) (bounds []int, sums []int64) {
	total := sumCosts(counts)
	bounds = []int{0}
	var acc, run int64
	for i, c := range counts {
		acc, run = acc+c, run+c
		if k := int64(len(sums) + 1); k < int64(w) && acc*int64(w) >= total*k {
			bounds, sums = append(bounds, i+1), append(sums, run)
			run = 0
		}
	}
	return append(bounds, len(counts)), append(sums, run)
}

// chargeBudgetOverflow accounts the unspent remainder of the comparison
// budget when a join aborts with ErrBudgetExceeded, saturating the counter at
// the budget. The counter may already sit past the budget — a prior stage of
// the same job overspent it — and the delta is then negative; it clamps at
// zero so an aborted join never rolls the cumulative metrics back.
func chargeBudgetOverflow(m *Metrics, budget int64) {
	if left := budget - m.comparisons.Load(); left > 0 {
		m.AddComparisons(left)
	}
}

// keysOf evaluates key over vs.
func keysOf(vs []types.Value, key func(types.Value) float64) []float64 {
	keys := make([]float64, len(vs))
	for i, v := range vs {
		keys[i] = key(v)
	}
	return keys
}

// bandOrder sorts keys ascending in cmp.Compare's order — the unordered
// (NaN) keys first — moving items along with them.
type bandOrder[T any] struct {
	keys  []float64
	items []T
}

func (o bandOrder[T]) Len() int           { return len(o.keys) }
func (o bandOrder[T]) Less(i, j int) bool { return cmp.Less(o.keys[i], o.keys[j]) }
func (o bandOrder[T]) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.items[i], o.items[j] = o.items[j], o.items[i]
}

// splitBuckets cuts vs into n (at least one) contiguous chunks of
// ⌈len/n⌉ elements, preserving order; the last chunks may be short or empty.
func splitBuckets[T any](vs []T, n int) [][]T {
	if n < 1 {
		n = 1
	}
	out := make([][]T, n)
	per := (len(vs) + n - 1) / n
	if per == 0 {
		per = 1
	}
	for i := 0; i < n; i++ {
		lo := i * per
		if lo > len(vs) {
			lo = len(vs)
		}
		hi := lo + per
		if hi > len(vs) {
			hi = len(vs)
		}
		out[i] = vs[lo:hi]
	}
	return out
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
