package engine

import (
	"slices"
	"sort"
	"strings"

	"cleandb/internal/types"
)

// Map applies f to every record, producing a new dataset with the same
// partitioning. This is a narrow (shuffle-free) operator.
func (d *Dataset) Map(name string, f func(types.Value) types.Value) *Dataset {
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		in := parts[i]
		res := make([]types.Value, len(in))
		for j, v := range in {
			res[j] = f(v)
		}
		out[i] = res
		costs[i] = int64(len(in))
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}
}

// Filter keeps the records for which pred returns true.
func (d *Dataset) Filter(name string, pred func(types.Value) bool) *Dataset {
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		in := parts[i]
		res := make([]types.Value, 0, len(in)/2)
		for _, v := range in {
			if pred(v) {
				res = append(res, v)
			}
		}
		out[i] = res
		costs[i] = int64(len(in))
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}
}

// FlatMap applies f to every record and concatenates the results. It is how
// the physical level implements the Unnest operator (paper Table 2).
func (d *Dataset) FlatMap(name string, f func(types.Value) []types.Value) *Dataset {
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		in := parts[i]
		var res []types.Value
		for _, v := range in {
			res = append(res, f(v)...)
		}
		out[i] = res
		costs[i] = int64(len(in)) + int64(len(res))/4
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}
}

// FlatMapW is FlatMap with an explicit per-record cost model: the stage's
// worker cost is the sum of weight(v) over the partition's records. Pairwise
// comparison stages (dedup within blocks) use it so that a worker holding a
// popular block is correctly modeled as the straggler.
func (d *Dataset) FlatMapW(name string, f func(types.Value) []types.Value, weight func(types.Value) int64) *Dataset {
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		in := parts[i]
		var res []types.Value
		var cost int64
		for _, v := range in {
			res = append(res, f(v)...)
			cost += weight(v)
		}
		out[i] = res
		costs[i] = cost
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}
}

// SelfPairs is the fused form of FlatMap∘FlatMap∘Filter for a self-pair
// enumeration. Every input is an environment record holding one list,
// members(v); for each ordered pair (a, b) of its elements with
// types.Key(a) < types.Key(b) for which keep holds, the stage emits v
// extended with a and b under schema. Emission follows the unfused nest — a
// outer, b inner, both in list order — so the output is, element for element,
// what flatMap(a) → flatMap(b) → filter(Key(a) < Key(b) ∧ keep) produces,
// without the n² candidate records: each element's key is built once per
// list, elements are ranked on it (equal keys share a rank and never pair;
// each still pairs with every other element, so multiplicity is preserved),
// candidates are tested in one reused field buffer, and only survivors are
// boxed.
//
// keep sees the candidate's fields — v's, then a, then b — in a buffer the
// next candidate overwrites; it must not retain it.
//
// fresh, when non-nil, is the delta mask: a test on an element's types.Key
// that says the element is new since some earlier enumeration of the same
// lists. Only candidate pairs with at least one fresh element are tested —
// the rest is what that earlier enumeration already covered — in the order
// the unmasked stage emits them; a list without a fresh element is skipped
// whole. A nil fresh tests every candidate.
//
// A list of n elements, o of them not fresh, holds n(n−1)/2 − o(o−1)/2
// candidate pairs. That is the record's stage cost (the quadratic model of
// dedup:compare, so the worker owning a popular block is the straggler) and
// its comparison charge; the whole stage is charged through
// ChargeComparisons before a pair is tested, so a job past its budget aborts
// with ErrBudgetExceeded as the joins do.
func (d *Dataset) SelfPairs(name string, schema *types.Schema, members func(types.Value) []types.Value, fresh func(key string) bool, keep func(fields []types.Value) bool) (*Dataset, error) {
	parts := d.rows()
	lists := make([][][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		lists[i] = make([][]types.Value, len(parts[i]))
		for j, v := range parts[i] {
			list := members(v)
			n, old := int64(len(list)), int64(0)
			if fresh != nil {
				for _, el := range list {
					if !fresh(types.Key(el)) {
						old++
					}
				}
			}
			if old < n {
				lists[i][j] = list
				costs[i] += n*(n-1)/2 - old*(old-1)/2
			}
		}
	})
	if err := d.ctx.ChargeComparisons(sumCosts(costs)); err != nil {
		return nil, err
	}
	out := make([][]types.Value, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		var (
			res       []types.Value
			keys      []string
			order     []int
			rank      []int
			onlyFresh []int
			buf       []types.Value
		)
		for j, list := range lists[i] {
			if len(list) < 2 {
				continue
			}
			keys = keys[:0]
			for _, el := range list {
				keys = append(keys, types.Key(el))
			}
			order, rank = rankKeys(keys, order, rank)
			// onlyFresh is rank with the elements that are not fresh ranked
			// below everything: an old a walks it, and so pairs with no old b.
			if fresh == nil {
				onlyFresh = rank
			} else {
				onlyFresh = append(onlyFresh[:0], rank...)
				for k, key := range keys {
					if !fresh(key) {
						onlyFresh[k] = -1
					}
				}
			}
			buf = append(buf[:0], parts[i][j].Record().Fields...)
			ai := len(buf)
			buf = append(buf, types.Null(), types.Null())
			for a, ea := range list {
				if d.ctx.Err() != nil {
					return // cancelled mid-list: the driver discards partial output
				}
				buf[ai] = ea
				rb := rank
				if onlyFresh[a] < 0 {
					rb = onlyFresh
				}
				for b, eb := range list {
					if rank[a] >= rb[b] {
						continue
					}
					buf[ai+1] = eb
					if keep(buf) {
						res = append(res, types.NewRecord(schema, slices.Clone(buf)))
					}
				}
			}
		}
		out[i] = res
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}, nil
}

// rankKeys returns, in rank, the dense rank of every key (equal keys share
// one), reusing the two scratch slices it is handed.
func rankKeys(keys []string, order, rank []int) (_, _ []int) {
	order, rank = order[:0], rank[:0]
	for i := range keys {
		order = append(order, i)
		rank = append(rank, 0)
	}
	slices.SortFunc(order, func(x, y int) int { return strings.Compare(keys[x], keys[y]) })
	r := 0
	for k, i := range order {
		if k > 0 && keys[i] != keys[order[k-1]] {
			r++
		}
		rank[i] = r
	}
	return order, rank
}

// MapPartitions applies f to each whole partition. The paper's Nest operator
// lowers to aggregateByKey followed by mapPartitions (Table 2).
func (d *Dataset) MapPartitions(name string, f func(int, []types.Value) []types.Value) *Dataset {
	parts := d.rows()
	out := make([][]types.Value, len(parts))
	costs := make([]int64, len(parts))
	d.ctx.runParallel(len(parts), func(i int) {
		out[i] = f(i, parts[i])
		costs[i] = int64(len(parts[i]))
	})
	d.finishNarrow(name, costs)
	return &Dataset{ctx: d.ctx, parts: out}
}

// Union appends other's partitions to d's (no shuffle).
func (d *Dataset) Union(other *Dataset) *Dataset {
	dp, op := d.rows(), other.rows()
	parts := make([][]types.Value, 0, len(dp)+len(op))
	parts = append(parts, dp...)
	parts = append(parts, op...)
	return &Dataset{ctx: d.ctx, parts: parts}
}

// Repartition redistributes records into n contiguous chunks, modeling an
// explicit exchange: all records count as shuffled.
func (d *Dataset) Repartition(n int) *Dataset {
	if d.parts == nil && d.batches != nil {
		if out := d.repartitionBatches(n); out != nil {
			return out
		}
	}
	all := d.Collect()
	var bytes int64
	for _, v := range all {
		bytes += int64(types.SizeBytes(v))
	}
	d.ctx.metrics.logStage(StageStats{
		Name:            "repartition",
		WorkerCosts:     partitionCosts(d),
		ShuffledRecords: int64(len(all)),
		ShuffledBytes:   bytes,
	})
	return FromValuesN(d.ctx, all, n)
}

// SortBy globally sorts the dataset with the given less function. Used by
// tests and by the Spark SQL baseline's sort-based operators.
func (d *Dataset) SortBy(name string, less func(a, b types.Value) bool) *Dataset {
	all := d.Collect()
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	n := int64(len(all))
	cost := n
	if n > 1 {
		cost = n * int64(bitLen(n))
	}
	d.ctx.metrics.logStage(StageStats{
		Name:            name,
		WorkerCosts:     []int64{cost},
		ShuffledRecords: n,
	})
	return FromValuesN(d.ctx, all, d.ctx.Workers)
}

// Sample returns every k-th record (k>=1), used to build statistics.
func (d *Dataset) Sample(k int) []types.Value {
	if k < 1 {
		k = 1
	}
	var out []types.Value
	i := 0
	for _, p := range d.rows() {
		if d.ctx.Err() != nil {
			break // partial sample: the cancelled query never uses it
		}
		for _, v := range p {
			if i%k == 0 {
				out = append(out, v)
			}
			i++
		}
	}
	return out
}

func (d *Dataset) finishNarrow(name string, costs []int64) {
	var total int64
	for _, c := range costs {
		total += c
	}
	d.ctx.metrics.recordsProcessed.Add(total)
	d.ctx.metrics.logStage(StageStats{Name: name, WorkerCosts: costs})
}

func partitionCosts(d *Dataset) []int64 {
	parts := d.rows()
	costs := make([]int64, len(parts))
	for i, p := range parts {
		costs[i] = int64(len(p))
	}
	return costs
}

func bitLen(n int64) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}
