package cleaning

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"cleandb/internal/engine"
	"cleandb/internal/types"
)

// This file grows DC checking into a repair subsystem: violations detected by
// DCCheck are *healed* by relaxing the violated inequality predicate, after
// "Cleaning Denial Constraint Violations through Relaxation" (Giannakopoulou
// et al., 2020). The constraint template is the paper's rule ψ shape:
//
//	¬( filter(t1) ∧ t1.order OP_band t2.order ∧ t1.repair OP_rep t2.repair )
//
// The order attribute (e.g. price) is held fixed; the repair attribute (e.g.
// discount) is relaxed. Violations that share a tuple interact — repairing
// one pair can re-violate another — so the subsystem clusters violating pairs
// by transitive closure (the same union-find machinery duplicate clustering
// uses), derives per-tuple repair intervals from the partners' values, and
// solves each cluster independently, in parallel on the engine worker pool,
// for the value assignment with minimum total L1 displacement.
//
// The relaxation algorithm is stated over tuple ids and per-tuple intervals,
// and so is this code: tuples are interned in a types.TupleTable (shared with
// the statement execution that seeds the loop, see RepairDCIn) and everything
// after that — pairs, clusters, intervals, the solver, the fixpoint's dirty
// and touched sets — is keyed by dense id.

// DCRepairConfig parameterizes denial-constraint repair. Check describes the
// detection side (DCCheck); the remaining fields give repair the declarative
// structure a black-box Pred cannot: which attribute is relaxed and which
// comparison between t1 and t2 is the violated one.
type DCRepairConfig struct {
	// Check detects violating pairs. Check.Band doubles as the order
	// attribute that repair holds fixed, and Check.BandOp as its direction.
	Check DCConfig
	// RepairAttr reads the numeric attribute being relaxed.
	RepairAttr func(types.Value) float64
	// RepairCol is the column rewritten with repaired values.
	RepairCol string
	// RepairOp is the violated comparison t1.repair OP t2.repair: one of
	// "<", "<=", ">", ">=". Repair enforces its complement on every pair.
	RepairOp string
	// MinGap separates repaired values when the complement is strict
	// (RepairOp ">=" or "<="); ignored otherwise. Default 1e-9.
	MinGap float64
	// MaxRounds bounds the repair→re-check fixpoint loop; repairing one
	// cluster can surface new violations against previously clean tuples,
	// which the next round absorbs into larger clusters. Default 8.
	MaxRounds int
	// InitialPairs optionally seeds round 1 with violations already computed
	// elsewhere (e.g. by an executed query plan), skipping the first DCCheck.
	InitialPairs [][2]types.Value
}

// RepairEntry reports one repaired value.
type RepairEntry struct {
	// Key is the tuple's canonical key before repair: the string the tuple
	// table built with types.Key when it first interned the tuple, shared by
	// every entry, interval and sort that names the tuple — not an encoding
	// made for this entry.
	Key string
	// Old and New are the repair attribute's values before and after.
	Old, New float64
	// Lo and Hi bound the tuple's repair interval: the value range that
	// would satisfy every one of its violated pairs if only this tuple
	// moved (±Inf when unbounded on that side). The chosen New may fall
	// outside the interval when the cluster solve moves partners too.
	Lo, Hi float64
	// Round is the fixpoint round (1-based) that produced the repair.
	Round int
}

// RepairResult is a completed denial-constraint repair.
type RepairResult struct {
	// Repaired is the healed dataset.
	Repaired *engine.Dataset
	// Rounds is the number of repair rounds executed.
	Rounds int
	// Violations counts the violating pairs found in round 1.
	Violations int64
	// Changed counts values rewritten across all rounds.
	Changed int64
	// Clusters counts the violation clusters solved across all rounds.
	Clusters int
	// Remaining counts violating pairs left after the final round (0 on a
	// converged repair).
	Remaining int64
	// Entries lists every value change, in deterministic order.
	Entries []RepairEntry
}

// RepairDC heals the denial constraint by relaxation: detect violating pairs,
// cluster interacting violations, solve each cluster for minimum-displacement
// repair values, rewrite the repair column, and iterate until a re-check
// finds nothing (or MaxRounds is hit). It propagates ErrBudgetExceeded from
// the detection joins.
func RepairDC(ds *engine.Dataset, cfg DCRepairConfig) (*RepairResult, error) {
	return RepairDCIn(types.NewTupleTable(), ds, cfg)
}

// RepairDCIn is RepairDC over a caller-owned tuple table: tuples the caller
// already interned (a statement execution interns every pair member when it
// puts the pairs in canonical order) are not encoded again, and the tuples
// the loop meets are added to it.
func RepairDCIn(tab *types.TupleTable, ds *engine.Dataset, cfg DCRepairConfig) (*RepairResult, error) {
	if err := validateRepairCfg(&cfg); err != nil {
		return nil, err
	}
	rt := &repairTuples{tab: tab, cfg: &cfg}
	res := &RepairResult{Repaired: ds}
	var pairs [][2]int32
	var dirty, touched idSet
	for round := 1; round <= cfg.MaxRounds; round++ {
		if err := ds.Context().Err(); err != nil {
			return nil, err
		}
		var err error
		if round == 1 {
			pairs, err = rt.violatingPairs(res.Repaired)
		} else {
			// A pair's violation status depends only on its members' values,
			// so pairs untouched by the previous round's rewrites carry over
			// verbatim and only pairs involving a rewritten row need
			// re-detection — the re-check costs O(delta), not O(n²).
			pairs, err = recheckPairs(res.Repaired, pairs, dirty, touched, rt)
		}
		if err != nil {
			return nil, err
		}
		if round == 1 {
			res.Violations = int64(len(pairs))
		}
		if len(pairs) == 0 {
			res.Remaining = 0
			return res, nil
		}
		res.Rounds = round
		repaired, entries, oldIDs, newIDs, clusters := repairRound(res.Repaired, pairs, rt, round)
		res.Repaired = repaired
		res.Entries = append(res.Entries, entries...)
		res.Changed += int64(len(entries))
		res.Clusters += clusters
		if len(entries) == 0 {
			// The solver could not move anything (e.g. an unsatisfiable
			// constraint on order ties); report the leftovers instead of
			// spinning until MaxRounds.
			res.Remaining = int64(len(pairs))
			return res, nil
		}
		dirty = newIDSet(tab.Len(), oldIDs, newIDs)
		touched = newIDSet(tab.Len(), newIDs)
	}
	leftover, err := DCCheck(res.Repaired, cfg.Check)
	if err != nil {
		return nil, err
	}
	res.Remaining = leftover.Count()
	return res, nil
}

func validateRepairCfg(cfg *DCRepairConfig) error {
	if cfg.RepairAttr == nil {
		return fmt.Errorf("cleaning: repair requires RepairAttr")
	}
	if cfg.RepairCol == "" {
		return fmt.Errorf("cleaning: repair requires RepairCol")
	}
	switch cfg.RepairOp {
	case "<", "<=", ">", ">=":
	default:
		return fmt.Errorf("cleaning: bad RepairOp %q", cfg.RepairOp)
	}
	if cfg.Check.Band == nil {
		return fmt.Errorf("cleaning: repair requires Check.Band as the order attribute")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 8
	}
	if cfg.MinGap <= 0 {
		cfg.MinGap = 1e-9
	}
	return nil
}

// repairTuples is the repair loop's view of the execution's tuple table: the
// table's dense ids, plus the band (order) and repair-attribute values of
// every id, evaluated once when the id is first met. The loop works on ids
// and these floats; a tuple's key string is read off the table only to break
// order ties and to label a RepairEntry.
type repairTuples struct {
	tab    *types.TupleTable
	cfg    *DCRepairConfig
	band   []float64
	repair []float64
}

// sync evaluates the band and repair attributes of ids interned since the
// last call.
func (rt *repairTuples) sync() {
	for id := len(rt.band); id < rt.tab.Len(); id++ {
		v := rt.tab.Value(int32(id))
		rt.band = append(rt.band, rt.cfg.Check.Band(v))
		rt.repair = append(rt.repair, rt.cfg.RepairAttr(v))
	}
}

// intern maps value pairs to id pairs, encoding only tuples the table has
// not seen.
func (rt *repairTuples) intern(pairs [][2]types.Value) [][2]int32 {
	out := make([][2]int32, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int32{rt.tab.Intern(p[0]), rt.tab.Intern(p[1])}
	}
	rt.sync()
	return out
}

// internJoined is intern over a self-join's output: engine.PairCombine
// records, {left: t1, right: t2}.
func (rt *repairTuples) internJoined(ds *engine.Dataset) [][2]int32 {
	rows := ds.Collect()
	out := make([][2]int32, len(rows))
	for i, r := range rows {
		f := r.Record().Fields
		out[i] = [2]int32{rt.tab.Intern(f[0]), rt.tab.Intern(f[1])}
	}
	rt.sync()
	return out
}

// idSet is a set of tuple ids. Ids interned after the set was sized are not
// members.
type idSet []bool

func newIDSet(n int, idLists ...[]int32) idSet {
	s := make(idSet, n)
	for _, ids := range idLists {
		for _, id := range ids {
			s[id] = true
		}
	}
	return s
}

func (s idSet) has(id int32) bool { return int(id) < len(s) && s[id] }

func (s idSet) ids() []int32 {
	var out []int32
	for id, in := range s {
		if in {
			out = append(out, int32(id))
		}
	}
	return out
}

// probe rules dataset rows out of an id set without encoding them: it maps
// the repair-attribute value of each tuple in the set to the band values seen
// with it. A row whose (band, repair) pair is absent cannot be value-identical
// to any tuple in the set.
type probe map[uint64][]uint64

// floatBits is the probe's exact-match key for a float: every value the
// canonical key encoding cannot tell apart (the two zeros, all NaNs) maps to
// one key.
func floatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

func (rt *repairTuples) probeOf(ids []int32) probe {
	p := make(probe, len(ids))
	for _, id := range ids {
		r, b := floatBits(rt.repair[id]), floatBits(rt.band[id])
		if !slices.Contains(p[r], b) {
			p[r] = append(p[r], b)
		}
	}
	return p
}

// find resolves a dataset row to its tuple id if that tuple is in set (p is
// set's probe). Rows the table knows by pointer answer from the id; any other
// row is encoded only after its band and repair values match a member of the
// set exactly, so a row that is not in the set — nearly every row of the
// dataset, every round — costs two float reads. Read-only: safe from the
// engine's parallel stages.
func (rt *repairTuples) find(v types.Value, set idSet, p probe) (int32, bool) {
	if id, ok := rt.tab.ByRecord(v); ok {
		return id, set.has(id)
	}
	bands, ok := p[floatBits(rt.cfg.RepairAttr(v))]
	if !ok || !slices.Contains(bands, floatBits(rt.cfg.Check.Band(v))) {
		return 0, false
	}
	id, ok := rt.tab.ByKey(types.Key(v))
	return id, ok && set.has(id)
}

// violatingPairs returns round 1's violations: the seeded InitialPairs, or
// a DCCheck's.
func (rt *repairTuples) violatingPairs(ds *engine.Dataset) ([][2]int32, error) {
	if rt.cfg.InitialPairs != nil {
		return rt.intern(rt.cfg.InitialPairs), nil
	}
	found, err := DCCheck(ds, rt.cfg.Check)
	if err != nil {
		return nil, err
	}
	return rt.internJoined(found), nil
}

// recheckPairs computes the next round's violating pairs from the previous
// round's: pairs whose members were both untouched by the round's rewrites
// keep their violation status, so only pairs involving a rewritten row
// (touched: the rewritten rows' new tuples) are freshly enumerated against the
// whole dataset — the check's own self-join under the touched-tuples mask.
// dirty holds both the old and new tuples of rewritten rows; the apply step
// rewrites every instance of an old tuple, so a previous pair with neither
// member dirty is guaranteed to pair two unchanged rows. prev is filtered in
// place.
func recheckPairs(ds *engine.Dataset, prev [][2]int32, dirty, touched idSet, rt *repairTuples) ([][2]int32, error) {
	carried := prev[:0]
	for _, p := range prev {
		if !dirty.has(p[0]) && !dirty.has(p[1]) {
			carried = append(carried, p)
		}
	}
	p := rt.probeOf(touched.ids())
	check := rt.cfg.Check
	fresh, err := ds.MaskedSelfJoin("join", func(_ int, v types.Value) bool {
		_, ok := rt.find(v, touched, p)
		return ok
	}, check.LeftFilter, check.JoinBand(), check.Pred, engine.PairCombine)
	if err != nil {
		return nil, err
	}
	return append(carried, rt.internJoined(fresh)...), nil
}

// repairRound clusters the violating pairs, solves every cluster in parallel
// on the engine worker pool, and applies the resulting value repairs. Besides
// the entries it returns, aligned with them, the ids of the rewritten tuples
// before and after the rewrite — the new ones are the fresh set the next
// round's delta re-check enumerates against.
func repairRound(ds *engine.Dataset, pairs [][2]int32, rt *repairTuples, round int) (*engine.Dataset, []RepairEntry, []int32, []int32, int) {
	cfg, tab := rt.cfg, rt.tab
	intervals := repairIntervals(pairs, rt)
	uf := NewUnionFind()
	active := make(idSet, tab.Len())
	for _, p := range pairs {
		uf.Union(p[0], p[1])
		active[p[0]], active[p[1]] = true, true
	}
	ids := active.ids()
	// Key order fixes everything downstream that must not depend on the order
	// pairs arrived in: members within a cluster, clusters within the stage,
	// entries within the round.
	tab.SortByKey(ids)
	groups := uf.Groups(ids)

	// One record per cluster, naming it by index. Solving runs as an engine
	// stage so cluster skew (one giant cluster) is charged to SimTicks like
	// any other straggler. Clusters are disjoint, so each solve writes its own
	// members' slots of fits.
	ctx := ds.Context()
	fits := append([]float64(nil), rt.repair...)
	clusterRows := make([]types.Value, len(groups))
	for i := range groups {
		clusterRows[i] = types.Int(int64(i))
	}
	engine.FromValues(ctx, clusterRows).FlatMapW("dcrepair:solve", func(cluster types.Value) []types.Value {
		members := groups[cluster.Int()]
		for i, fit := range solveCluster(members, rt, intervals) {
			fits[members[i]] = fit
		}
		ctx.Metrics().AddComparisons(solveCost(len(members)))
		return nil
	}, func(cluster types.Value) int64 {
		return solveCost(len(groups[cluster.Int()]))
	})

	var entries []RepairEntry
	var oldIDs, newIDs []int32
	for _, id := range ids {
		if fits[id] == rt.repair[id] {
			continue
		}
		entries = append(entries, RepairEntry{
			Key: tab.Key(id),
			Old: rt.repair[id], New: fits[id],
			Lo: intervals[id].lo, Hi: intervals[id].hi,
			Round: round,
		})
		w, _ := rewriteValueCol(tab.Value(id), cfg.RepairCol, fits[id])
		oldIDs, newIDs = append(oldIDs, id), append(newIDs, tab.Intern(w))
	}
	rt.sync()

	changed := newIDSet(tab.Len(), oldIDs)
	p := rt.probeOf(oldIDs)
	repaired, _ := ApplyValueRepairs(ds, cfg.RepairCol, func(v types.Value) (float64, bool) {
		id, ok := rt.find(v, changed, p)
		if !ok {
			return 0, false
		}
		return fits[id], true
	})
	return repaired, entries, oldIDs, newIDs, len(groups)
}

// solveCost models the per-cluster solver work (sort + pool passes): n·log n.
func solveCost(n int) int64 {
	m := int64(n)
	if m <= 1 {
		return 1
	}
	cost := m
	for b := m; b > 1; b >>= 1 {
		cost += m
	}
	return cost
}

// interval is a per-tuple repair interval in original value space.
type interval struct{ lo, hi float64 }

// repairIntervals derives, for every tuple in a violating pair, the value
// range that would satisfy all of its violated pairs if only that tuple were
// repaired — the relaxation intervals the cluster solver refines. The result
// is indexed by tuple id; ids in no pair keep (−Inf, +Inf).
func repairIntervals(pairs [][2]int32, rt *repairTuples) []interval {
	out := make([]interval, rt.tab.Len())
	for i := range out {
		out[i] = interval{lo: math.Inf(-1), hi: math.Inf(1)}
	}
	_, gap := repairDirection(rt.cfg)
	for _, p := range pairs {
		r1, r2 := rt.repair[p[0]], rt.repair[p[1]]
		iv1, iv2 := out[p[0]], out[p[1]]
		switch rt.cfg.RepairOp {
		case ">", ">=": // complement: r1 ≤ r2 (− gap when strict)
			iv1.hi = math.Min(iv1.hi, r2-gap)
			iv2.lo = math.Max(iv2.lo, r1+gap)
		default: // "<", "<=": complement: r1 ≥ r2 (+ gap when strict)
			iv1.lo = math.Max(iv1.lo, r2+gap)
			iv2.hi = math.Min(iv2.hi, r1-gap)
		}
		out[p[0]], out[p[1]] = iv1, iv2
	}
	return out
}

// solveCluster assigns repaired values to the cluster members, picking the
// lower-displacement of two relaxations:
//
//   - chain fit: members ordered by the fixed order attribute, repair values
//     made monotone along the chain with an L1-optimal isotonic fit
//     (pool-adjacent-violators with median blocks). Monotonicity implies the
//     complement of RepairOp for every ordered pair, so no intra-cluster
//     violation survives — but pairs the DC left free get constrained too.
//   - clamp fit: only the tuples that appear in the t1 role move, each
//     clamped into its repair interval (and below any later clamped value).
//     This is the cheap repair for star-shaped clusters — a few filtered
//     tuples violating against many partners — where pooling the whole
//     chain would rewrite thousands of values.
//
// members are tuple ids; the fits come back aligned with them.
func solveCluster(members []int32, rt *repairTuples, intervals []interval) []float64 {
	idx := orderedIdx(members, rt)
	chain := chainFit(members, idx, rt)
	clamp := clampFit(members, idx, rt, intervals)
	if clamp == nil || displacement(members, rt, chain) <= displacement(members, rt, clamp) {
		return chain
	}
	return clamp
}

// displacement sums |fit − old| over the cluster.
func displacement(members []int32, rt *repairTuples, fits []float64) float64 {
	var d float64
	for i, m := range members {
		d += math.Abs(fits[i] - rt.repair[m])
	}
	return d
}

// orderedIdx returns member indices sorted so the t1 role (the side the
// band predicate puts first) comes first, ties broken by canonical key.
// Band keys compare in cmp.Compare's order, so the unordered (NaN) ones sort
// together, below every number, instead of breaking the sort.
func orderedIdx(members []int32, rt *repairTuples) []int {
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ma, mb := members[idx[a]], members[idx[b]]
		if c := cmp.Compare(rt.band[ma], rt.band[mb]); c != 0 {
			return c < 0
		}
		return rt.tab.Key(ma) < rt.tab.Key(mb)
	})
	if op := rt.cfg.Check.BandOp; op == ">" || op == ">=" {
		slices.Reverse(idx)
	}
	return idx
}

// repairDirection normalizes the repair comparison: after multiplying values
// by sign, the requirement is always non-decreasing along the chain, with
// gap-separation when the complement is strict.
func repairDirection(cfg *DCRepairConfig) (sign, gap float64) {
	sign = 1.0
	if cfg.RepairOp == "<" || cfg.RepairOp == "<=" {
		sign = -1.0
	}
	if cfg.RepairOp == ">=" || cfg.RepairOp == "<=" {
		gap = cfg.MinGap
	}
	return sign, gap
}

// chainFit is the isotonic-chain relaxation (see solveCluster) along idx,
// the members' orderedIdx.
func chainFit(members []int32, idx []int, rt *repairTuples) []float64 {
	sign, gap := repairDirection(rt.cfg)

	// Points along the chain. A non-strict band op ("<=") lets order-ties
	// violate in both directions, so ties must repair to one shared value:
	// they are pooled into a single weighted point.
	poolTies := rt.cfg.Check.BandOp == "<=" || rt.cfg.Check.BandOp == ">="
	type point struct {
		members []int // indices into members
		vals    []float64
	}
	var points []point
	for _, mi := range idx {
		o := rt.band[members[mi]]
		v := sign * rt.repair[members[mi]]
		if poolTies && len(points) > 0 {
			last := points[len(points)-1].members[0]
			if rt.band[members[last]] == o {
				p := &points[len(points)-1]
				p.members = append(p.members, mi)
				p.vals = append(p.vals, v)
				continue
			}
		}
		points = append(points, point{members: []int{mi}, vals: []float64{v}})
	}

	// PAVA with median blocks over the sheared values.
	type block struct {
		vals     []float64
		fit      float64
		from, to int // point index range [from, to)
	}
	var stack []block
	for i, p := range points {
		vals := make([]float64, len(p.vals))
		for j, v := range p.vals {
			vals[j] = v - gap*float64(i)
		}
		b := block{vals: vals, fit: lowerMedian(vals), from: i, to: i + 1}
		for len(stack) > 0 && stack[len(stack)-1].fit > b.fit {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b.vals = append(top.vals, b.vals...)
			b.fit = lowerMedian(b.vals)
			b.from = top.from
		}
		stack = append(stack, b)
	}

	out := make([]float64, len(members))
	for _, b := range stack {
		for pi := b.from; pi < b.to; pi++ {
			fit := b.fit + gap*float64(pi)
			for _, mi := range points[pi].members {
				out[mi] = sign * fit
			}
		}
	}
	return out
}

// clampFit is the one-sided relaxation (see solveCluster): only tuples with
// a finite repair interval on the constrained side (the t1 roles) move, each
// clamped into its interval and kept consistent with later clamped tuples by
// a running minimum. Returns nil when the shape does not apply (non-strict
// band ops let order-ties violate both ways, which clamping cannot fix).
func clampFit(members []int32, idx []int, rt *repairTuples, intervals []interval) []float64 {
	if rt.cfg.Check.BandOp != "<" && rt.cfg.Check.BandOp != ">" {
		return nil
	}
	sign, gap := repairDirection(rt.cfg)

	out := make([]float64, len(members))
	runmin := math.Inf(1)
	for i := len(idx) - 1; i >= 0; i-- {
		mi := idx[i]
		m := members[mi]
		old := sign * rt.repair[m]
		// The constrained-side bound in transformed space: hi for the
		// ascending direction, −lo for the descending one.
		cap := intervals[m].hi
		if sign < 0 {
			cap = -intervals[m].lo
		}
		if math.IsInf(cap, 1) {
			// Pure t2 role: untouched, and not a bound for earlier tuples
			// (their intervals already account for its original value).
			out[mi] = sign * old
			continue
		}
		fit := math.Min(old, math.Min(cap, runmin-gap))
		runmin = math.Min(runmin, fit)
		out[mi] = sign * fit
	}
	return out
}

// lowerMedian returns the lower median of vs — an L1-optimal block value
// that is always one of the original data values.
func lowerMedian(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ApplyValueRepairs rewrites the named numeric column of every row repl
// accepts with the value it returns, and reports the repaired dataset and the
// number of records changed. It is the numeric sibling of ApplyRepairs. repl
// runs on the engine's workers and must be safe for concurrent use.
func ApplyValueRepairs(ds *engine.Dataset, col string, repl func(types.Value) (float64, bool)) (*engine.Dataset, int64) {
	var changed atomic.Int64
	out := ds.MapPartitions("dcrepair:apply:"+col, func(_ int, part []types.Value) []types.Value {
		res := make([]types.Value, len(part))
		var local int64
		for i, v := range part {
			to, ok := repl(v)
			if !ok {
				res[i] = v
				continue
			}
			w, rewritten := rewriteValueCol(v, col, to)
			res[i] = w
			if rewritten {
				local++
			}
		}
		changed.Add(local)
		return res
	})
	return out, changed.Load()
}

// rewriteValueCol returns v with the named numeric column replaced — the
// single rewrite rule ApplyValueRepairs applies and repairRound's new-tuple
// computation must mirror exactly. Non-records and records without the
// column come back unchanged (rewritten=false).
func rewriteValueCol(v types.Value, col string, repl float64) (types.Value, bool) {
	rec := v.Record()
	if rec == nil {
		return v, false
	}
	idx, ok := rec.Schema.Index(col)
	if !ok {
		return v, false
	}
	fields := append([]types.Value(nil), rec.Fields...)
	fields[idx] = types.Float(repl)
	return types.NewRecord(rec.Schema, fields), true
}
