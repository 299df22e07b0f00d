// Package physical implements CleanM's third abstraction level: lowering
// algebraic plans onto the engine's operators, following Table 2 of the
// paper (Select→filter, Reduce→map+filter, Unnest→flatMap, Nest→
// aggregateByKey+mapPartitions, equi-Join→hash join, theta-Join→custom
// statistics-aware theta join), plus one fused lowering the table does not
// name: Select[reckey(a) < reckey(b) ∧ φ] over Unnest[P as b] over
// Unnest[P as a] — DEDUP's pair enumeration inside a block — runs as the
// engine's single self-pair stage instead of flatMap→flatMap→filter.
//
// The two physical-level concerns the paper calls out are explicit here:
//
//   - data skew: Nest defaults to local pre-aggregation (aggregateByKey);
//     the Spark SQL and BigDansing baselines select sort- and hash-shuffle
//     strategies instead via Config;
//   - theta joins: inequality predicates are detected in the plan and
//     executed with the histogram-partitioned ThetaJoin instead of a
//     cartesian product; min/max bucket statistics prune impossible bucket
//     pairs for band predicates.
//
// Shared plan nodes (produced by the algebraic rewriter) are executed once
// and memoized, realizing the shared-scan / coalesced-nest DAG of Figure 1.
package physical

import (
	"fmt"

	"cleandb/internal/algebra"
	"cleandb/internal/data"
	"cleandb/internal/engine"
	"cleandb/internal/monoid"
	"cleandb/internal/types"
)

// GroupStrategy selects how Nest shuffles groups.
type GroupStrategy int

// Grouping strategies.
const (
	// GroupAggregate is CleanDB's default: local combine, then merge.
	GroupAggregate GroupStrategy = iota
	// GroupSort models Spark SQL's sort-based aggregation.
	GroupSort
	// GroupHash models BigDansing's hash-based shuffle.
	GroupHash
)

// ThetaStrategy selects how non-equi joins execute.
type ThetaStrategy int

// Theta-join strategies.
const (
	// ThetaMBucket is CleanDB's statistics-aware matrix partitioning.
	ThetaMBucket ThetaStrategy = iota
	// ThetaCartesian is Spark SQL's cartesian-product-plus-filter fallback.
	ThetaCartesian
	// ThetaMinMax is BigDansing's arrival-order block pruning.
	ThetaMinMax
)

// String names the strategy in the strategy ledger: "mbucket",
// "cartesian" or "minmax".
func (s ThetaStrategy) String() string {
	switch s {
	case ThetaCartesian:
		return "cartesian"
	case ThetaMinMax:
		return "minmax"
	}
	return "mbucket"
}

// ThetaJoin runs the theta join of left and right under strategy s: the one
// place a ThetaStrategy becomes an engine join, for the plan executor and
// cleaning.DCCheck alike. band, when non-nil, is a band conjunct of pred;
// every strategy keeps exactly the pairs pred accepts, and the band decides
// only how many candidates each one tests. Stages are named name+":cartesian",
// ":minmaxjoin" or ":thetajoin".
func ThetaJoin(s ThetaStrategy, name string, left, right *engine.Dataset, band *engine.Band, pred func(l, r types.Value) bool, combine engine.CombineFunc) (*engine.Dataset, error) {
	switch s {
	case ThetaCartesian:
		return left.CartesianFilter(name, right, pred, combine)
	case ThetaMinMax:
		return left.MinMaxBlockJoin(name, right, band, pred, combine)
	default:
		return left.ThetaJoin(name, right, engine.ThetaJoinStats{Band: band}, pred, combine)
	}
}

// Config selects the physical strategies for one executor.
type Config struct {
	Group GroupStrategy
	Theta ThetaStrategy
	// Auto derives the strategy per operator from source statistics — row
	// counts, band-predicate presence, dictionary distinct-value estimates —
	// instead of the fixed Group/Theta configuration. Decisions are recorded
	// in the metrics' strategy counters.
	Auto bool
}

// Executor runs algebra plans against a catalog of datasets.
type Executor struct {
	Ctx     *engine.Context
	Catalog map[string]*engine.Dataset
	Config  Config

	compiler *monoid.Compiler
	memo     map[algebra.Plan]*engine.Dataset
	fresh    func(key string) bool
}

// NewExecutor returns an executor over the catalog with CleanDB defaults.
func NewExecutor(ctx *engine.Context, catalog map[string]*engine.Dataset) *Executor {
	return &Executor{
		Ctx:      ctx,
		Catalog:  catalog,
		compiler: monoid.NewCompiler(),
		memo:     map[algebra.Plan]*engine.Dataset{},
	}
}

// AddBuiltin registers a query-specific builtin (e.g. a fitted blocking
// function) visible to every expression compiled by this executor.
func (ex *Executor) AddBuiltin(name string, fn monoid.Builtin) {
	ex.compiler.Builtins[name] = fn
}

// SetParams binds the statement's parameter placeholders for this execution.
// Expressions are compiled per execution, so concurrent executions of one
// prepared plan with different bindings never observe each other.
func (ex *Executor) SetParams(params map[string]types.Value) {
	ex.compiler.Params = params
}

// SetFreshMask makes this execution a delta pass: fresh tests a source
// record's types.Key and holds for the records appended since the execution
// whose cached output the caller merges this one's into. The self-pair stage
// then enumerates only the pairs with a fresh member (engine.SelfPairs);
// every other stage runs as in a cold execution.
func (ex *Executor) SetFreshMask(fresh func(key string) bool) {
	ex.fresh = fresh
}

// Exec executes the plan DAG, memoizing shared nodes. It checks the engine
// context's cancellation state before every node, so a cancelled query stops
// between operators as well as inside the long-running join loops.
func (ex *Executor) Exec(p algebra.Plan) (*engine.Dataset, error) {
	if err := ex.Ctx.Err(); err != nil {
		return nil, err
	}
	if ex.memo == nil {
		ex.memo = map[algebra.Plan]*engine.Dataset{}
	}
	if d, ok := ex.memo[p]; ok {
		return d, nil
	}
	d, err := ex.exec(p)
	if err != nil {
		return nil, err
	}
	if err := ex.Ctx.Err(); err != nil {
		return nil, err
	}
	ex.memo[p] = d
	return d, nil
}

// envSchema returns the environment-record schema for a plan's bindings.
func envSchema(p algebra.Plan) *types.Schema { return types.NewSchema(p.Binds()...) }

// slots maps each binding to its position, for expression compilation.
func slots(binds []string) map[string]int {
	m := make(map[string]int, len(binds))
	for i, b := range binds {
		m[b] = i
	}
	return m
}

// compile compiles e against the bindings of child plan p.
func (ex *Executor) compile(e monoid.Expr, p algebra.Plan) (monoid.CompiledExpr, error) {
	return ex.compiler.Compile(e, slots(p.Binds()))
}

// evalEnv runs a compiled expression over an environment record.
func evalEnv(ce monoid.CompiledExpr, env types.Value) types.Value {
	rec := env.Record()
	if rec == nil {
		return types.Null()
	}
	v, err := ce(rec.Fields)
	if err != nil {
		return types.Null()
	}
	return v
}

func (ex *Executor) exec(p algebra.Plan) (*engine.Dataset, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		return ex.execScan(n)
	case *algebra.Select:
		return ex.execSelect(n)
	case *algebra.Extend:
		return ex.execExtend(n)
	case *algebra.Unnest:
		return ex.execUnnest(n)
	case *algebra.Join:
		return ex.execJoin(n)
	case *algebra.Reduce:
		return ex.execReduce(n)
	case *algebra.Nest:
		return ex.execNest(n)
	case *algebra.CombineAll:
		return ex.execCombine(n)
	default:
		return nil, fmt.Errorf("physical: unsupported plan node %T", p)
	}
}

func (ex *Executor) execScan(n *algebra.Scan) (*engine.Dataset, error) {
	if n.Source == algebra.UnitSource {
		schema := envSchema(n)
		one := types.NewRecord(schema, []types.Value{types.Null()})
		return engine.FromValues(ex.Ctx, []types.Value{one}), nil
	}
	src, ok := ex.Catalog[n.Source]
	if !ok {
		return nil, fmt.Errorf("physical: unknown source %q", n.Source)
	}
	schema := envSchema(n)
	// Rebase the shared catalog dataset onto this executor's (job) context:
	// downstream operators then charge this query's metrics and observe its
	// cancellation, not the instance-wide context the data was loaded under.
	rebased := src.WithContext(ex.Ctx)
	if rebased.Batches() != nil {
		// Columnar source: keep the vectors and defer the env wrapping to
		// row materialization. The stage logs the same cost the Map would.
		return rebased.WrapRecords("scan:"+n.Source, schema), nil
	}
	return rebased.Map("scan:"+n.Source, func(v types.Value) types.Value {
		return types.NewRecord(schema, []types.Value{v})
	}), nil
}

func (ex *Executor) execSelect(n *algebra.Select) (*engine.Dataset, error) {
	if sp, ok := matchSelfPairs(n); ok {
		return ex.execSelfPairs(sp)
	}
	child, err := ex.Exec(n.Child)
	if err != nil {
		return nil, err
	}
	pred, err := ex.compile(n.Pred, n.Child)
	if err != nil {
		return nil, err
	}
	if binds := n.Child.Binds(); len(binds) == 1 && child.Batches() != nil && child.WrapSchema() != nil {
		if kernel := ex.compileBatchKernel(n.Pred, binds[0]); kernel != nil {
			return child.FilterBatches("select", kernel), nil
		}
	}
	return child.Filter("select", func(v types.Value) bool {
		return evalEnv(pred, v).Bool()
	}), nil
}

// selfPairs is the plan shape Select[reckey(a) < reckey(b) ∧ φ] over
// Unnest[P as b] over Unnest[P as a] with one path P: the enumeration of the
// unordered pairs of one list, written as a filtered cross product.
type selfPairs struct {
	outer, inner *algebra.Unnest // bind a and b
	rest         monoid.Expr     // φ; nil when the order conjunct stands alone
}

// matchSelfPairs detects the self-pair shape in the plan, the way execJoin
// detects band conjuncts. The order conjunct may sit anywhere in the
// conjunction; the remaining conjuncts keep their order as φ.
func matchSelfPairs(n *algebra.Select) (selfPairs, bool) {
	inner, ok := n.Child.(*algebra.Unnest)
	if !ok || inner.Outer {
		return selfPairs{}, false
	}
	outer, ok := inner.Child.(*algebra.Unnest)
	if !ok || outer.Outer || outer.As == inner.As || !algebra.ExprEqual(outer.Path, inner.Path) {
		return selfPairs{}, false
	}
	if monoid.Mentions(inner.Path, outer.As) {
		return selfPairs{}, false // b's list depends on a: not one list
	}
	sp := selfPairs{outer: outer, inner: inner}
	found := false
	var rest []monoid.Expr
	for _, c := range monoid.Conjuncts(n.Pred) {
		if !found && isKeyOrder(c, outer.As, inner.As) {
			found = true
			continue
		}
		rest = append(rest, c)
	}
	sp.rest = monoid.AndAll(rest)
	return sp, found
}

// isKeyOrder reports whether e is reckey(a) < reckey(b).
func isKeyOrder(e monoid.Expr, a, b string) bool {
	bo, ok := e.(*monoid.BinOp)
	return ok && bo.Op == "<" && isRecKeyOf(bo.L, a) && isRecKeyOf(bo.R, b)
}

func isRecKeyOf(e monoid.Expr, name string) bool {
	c, ok := e.(*monoid.Call)
	if !ok || c.Fn != "reckey" || len(c.Args) != 1 {
		return false
	}
	v, ok := c.Args[0].(*monoid.Var)
	return ok && v.Name == name
}

// execSelfPairs lowers the self-pair shape onto engine.SelfPairs: P is
// evaluated once per input record, φ per candidate pair over the same
// bindings the Select would have seen, and the output records are the ones
// the two Unnests and the Select would have produced, in their order.
func (ex *Executor) execSelfPairs(sp selfPairs) (*engine.Dataset, error) {
	child, err := ex.Exec(sp.outer.Child)
	if err != nil {
		return nil, err
	}
	path, err := ex.compile(sp.outer.Path, sp.outer.Child)
	if err != nil {
		return nil, err
	}
	keep := func([]types.Value) bool { return true }
	if sp.rest != nil {
		rest, err := ex.compile(sp.rest, sp.inner)
		if err != nil {
			return nil, err
		}
		keep = func(fields []types.Value) bool {
			v, err := rest(fields)
			return err == nil && v.Bool()
		}
	}
	ex.Ctx.Metrics().NoteStrategy("pairs:self")
	return child.SelfPairs("pairs:self", envSchema(sp.inner),
		func(v types.Value) []types.Value { return evalEnv(path, v).List() }, ex.fresh, keep)
}

func (ex *Executor) execExtend(n *algebra.Extend) (*engine.Dataset, error) {
	child, err := ex.Exec(n.Child)
	if err != nil {
		return nil, err
	}
	e, err := ex.compile(n.E, n.Child)
	if err != nil {
		return nil, err
	}
	schema := envSchema(n)
	return child.Map("extend:"+n.Var, func(v types.Value) types.Value {
		fields := append(append([]types.Value{}, v.Record().Fields...), evalEnv(e, v))
		return types.NewRecord(schema, fields)
	}), nil
}

func (ex *Executor) execUnnest(n *algebra.Unnest) (*engine.Dataset, error) {
	child, err := ex.Exec(n.Child)
	if err != nil {
		return nil, err
	}
	path, err := ex.compile(n.Path, n.Child)
	if err != nil {
		return nil, err
	}
	schema := envSchema(n)
	outer := n.Outer
	return child.FlatMap("unnest:"+n.As, func(v types.Value) []types.Value {
		list := evalEnv(path, v).List()
		if len(list) == 0 {
			if !outer {
				return nil
			}
			fields := append(append([]types.Value{}, v.Record().Fields...), types.Null())
			return []types.Value{types.NewRecord(schema, fields)}
		}
		out := make([]types.Value, len(list))
		base := v.Record().Fields
		for i, el := range list {
			fields := append(append(make([]types.Value, 0, len(base)+1), base...), el)
			out[i] = types.NewRecord(schema, fields)
		}
		return out
	}), nil
}

func (ex *Executor) execReduce(n *algebra.Reduce) (*engine.Dataset, error) {
	child, err := ex.Exec(n.Child)
	if err != nil {
		return nil, err
	}
	head, err := ex.compile(n.Head, n.Child)
	if err != nil {
		return nil, err
	}
	schema := envSchema(n)
	if n.M.Collection() {
		// Table 2: ∆ → map→filter. A collection reduce is a projection of
		// the head per surviving record.
		if v, ok := n.Head.(*monoid.Var); ok {
			if binds := n.Child.Binds(); len(binds) == 1 && v.Name == binds[0] &&
				child.Batches() != nil && child.WrapSchema() != nil {
				// SELECT-* head over a columnar child: the output records are
				// the scanned records under a new env wrapper — rewrap the
				// vectors instead of boxing a projection per row.
				mapped := child.WrapBare("reduce:"+n.M.Name(), schema)
				if n.M.Name() == "set" {
					return distinct(mapped, "reduce:set", schema), nil
				}
				return mapped, nil
			}
		}
		mapped := child.Map("reduce:"+n.M.Name(), func(v types.Value) types.Value {
			return types.NewRecord(schema, []types.Value{evalEnv(head, v)})
		})
		if n.M.Name() == "set" {
			return distinct(mapped, "reduce:set", schema), nil
		}
		return mapped, nil
	}
	// Primitive monoid: fold partitions locally, then merge partials.
	m := n.M
	partials := child.MapPartitions("reduce:"+m.Name()+":partial", func(_ int, part []types.Value) []types.Value {
		acc := m.Zero()
		for _, v := range part {
			acc = m.Merge(acc, m.Unit(evalEnv(head, v)))
		}
		return []types.Value{acc}
	})
	all := partials.Collect()
	acc := m.Zero()
	for _, v := range all {
		acc = m.Merge(acc, v)
	}
	return engine.FromValues(ex.Ctx, []types.Value{types.NewRecord(schema, []types.Value{acc})}), nil
}

// distinct deduplicates a dataset of env records via an aggregate shuffle.
func distinct(d *engine.Dataset, name string, schema *types.Schema) *engine.Dataset {
	agg := engine.GroupAgg{Finish: func(key types.Value, group []types.Value) types.Value {
		return group[0]
	}}
	return d.AggregateByKey(name, func(v types.Value) types.Value { return v }, agg)
}

// nestAgg adapts a Nest node's aggregate list to the engine's Aggregator.
type nestAgg struct {
	monoids []monoid.Monoid
	vals    []monoid.CompiledExpr
	schema  *types.Schema // {key, name1, name2, ...}
	outer   *types.Schema // {As}
	having  monoid.CompiledExpr
}

func (na *nestAgg) Zero() interface{} {
	accs := make([]types.Value, len(na.monoids))
	for i, m := range na.monoids {
		accs[i] = m.Zero()
	}
	return accs
}

func (na *nestAgg) Add(acc interface{}, v types.Value) interface{} {
	accs := acc.([]types.Value)
	for i, m := range na.monoids {
		accs[i] = m.Merge(accs[i], m.Unit(evalEnv(na.vals[i], v)))
	}
	return accs
}

func (na *nestAgg) Merge(a, b interface{}) interface{} {
	as, bs := a.([]types.Value), b.([]types.Value)
	for i, m := range na.monoids {
		as[i] = m.Merge(as[i], bs[i])
	}
	return as
}

func (na *nestAgg) Result(key types.Value, acc interface{}) types.Value {
	accs := acc.([]types.Value)
	fields := append(make([]types.Value, 0, len(accs)+1), key)
	fields = append(fields, accs...)
	groupRec := types.NewRecord(na.schema, fields)
	if na.having != nil {
		ok, err := na.having([]types.Value{groupRec})
		if err != nil || !ok.Bool() {
			return types.Null() // dropped by the engine
		}
	}
	return types.NewRecord(na.outer, []types.Value{groupRec})
}

func (na *nestAgg) AccSize(acc interface{}) int64 {
	accs := acc.([]types.Value)
	var n int64 = 1
	for i, m := range na.monoids {
		if m.Collection() {
			n += int64(len(accs[i].List()))
		}
	}
	return n
}

func (ex *Executor) execNest(n *algebra.Nest) (*engine.Dataset, error) {
	child, err := ex.Exec(n.Child)
	if err != nil {
		return nil, err
	}
	keyExprs := make([]monoid.CompiledExpr, len(n.Keys))
	for i, k := range n.Keys {
		ce, err := ex.compile(k, n.Child)
		if err != nil {
			return nil, err
		}
		keyExprs[i] = ce
	}
	names := make([]string, 0, len(n.Aggs)+1)
	names = append(names, "key")
	na := &nestAgg{outer: envSchema(n)}
	for _, a := range n.Aggs {
		ce, err := ex.compile(a.Val, n.Child)
		if err != nil {
			return nil, err
		}
		na.vals = append(na.vals, ce)
		na.monoids = append(na.monoids, a.M)
		names = append(names, a.Name)
	}
	na.schema = types.NewSchema(names...)
	if n.Having != nil {
		hv, err := ex.compiler.Compile(n.Having, map[string]int{n.As: 0})
		if err != nil {
			return nil, err
		}
		na.having = hv
	}
	keyFn := func(v types.Value) types.Value {
		if len(keyExprs) == 1 {
			return evalEnv(keyExprs[0], v)
		}
		parts := make([]types.Value, len(keyExprs))
		for i, ke := range keyExprs {
			parts[i] = evalEnv(ke, v)
		}
		return types.ListOf(parts)
	}
	strat := ex.Config.Group
	if ex.Config.Auto {
		strat = ex.chooseGroup(n, child)
	}
	switch strat {
	case GroupSort:
		ex.Ctx.Metrics().NoteStrategy("nest:sort")
		return child.SortShuffleGroup("nest", keyFn, na), nil
	case GroupHash:
		ex.Ctx.Metrics().NoteStrategy("nest:hash")
		return child.HashShuffleGroup("nest", keyFn, na), nil
	default:
		ex.Ctx.Metrics().NoteStrategy("nest:aggregate")
		return child.AggregateByKey("nest", keyFn, na), nil
	}
}

// Stats-driven strategy selection thresholds.
const (
	// statsSampleCap bounds the rows a distinct-value probe examines.
	statsSampleCap = 1 << 14
	// hashGroupKeyRatio: above this distinct/sampled ratio, map-side
	// combining stops reducing shuffle volume and the hash shuffle wins.
	hashGroupKeyRatio = 0.5
	// smallCrossThreshold: below this candidate-pair count, the cartesian
	// filter beats the partitioned theta machinery.
	smallCrossThreshold = 1 << 14
)

// chooseGroup picks the grouping shuffle from a dictionary-based distinct-key
// estimate: grouping a batch-backed scan on a dictionary-encoded column, the
// distinct-code bitset over a bounded sample tells whether keys repeat. When
// nearly every row has its own key, local pre-aggregation buffers the input
// for no volume reduction, so the hash shuffle is chosen; repetitive keys
// keep the default combine-then-merge.
func (ex *Executor) chooseGroup(n *algebra.Nest, child *engine.Dataset) GroupStrategy {
	binds := n.Child.Binds()
	if len(n.Keys) != 1 || len(binds) != 1 {
		return GroupAggregate
	}
	f, ok := n.Keys[0].(*monoid.Field)
	if !ok {
		return GroupAggregate
	}
	v, ok := f.Rec.(*monoid.Var)
	if !ok || v.Name != binds[0] {
		return GroupAggregate
	}
	batches := child.Batches()
	if batches == nil || child.WrapSchema() == nil {
		return GroupAggregate
	}
	col := -1
	for _, b := range batches {
		if b != nil && b.N > 0 {
			col = b.Col(f.Name)
			break
		}
	}
	if col < 0 {
		return GroupAggregate
	}
	distinct, sampled, ok := data.DistinctCodes(batches, col, statsSampleCap)
	if !ok || sampled == 0 {
		return GroupAggregate
	}
	if float64(distinct) > hashGroupKeyRatio*float64(sampled) {
		return GroupHash
	}
	return GroupAggregate
}

// chooseTheta picks the theta strategy from the sides' row counts: tiny
// cross products run the cartesian filter directly (the partitioned matrix
// machinery costs more than it saves); everything else uses the
// statistics-aware mbucket join, which sorts and prunes when a band conjunct
// exists and still balances buckets by LPT when none does.
func (ex *Executor) chooseTheta(left, right *engine.Dataset) ThetaStrategy {
	lc, rc := left.Count(), right.Count()
	if lc*rc <= smallCrossThreshold {
		return ThetaCartesian
	}
	return ThetaMBucket
}

func (ex *Executor) execJoin(n *algebra.Join) (*engine.Dataset, error) {
	left, err := ex.Exec(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.Exec(n.Right)
	if err != nil {
		return nil, err
	}
	schema := envSchema(n)
	nRight := len(n.Right.Binds())
	combine := func(l, r types.Value) types.Value {
		lf := l.Record().Fields
		fields := append(make([]types.Value, 0, len(lf)+nRight), lf...)
		if rr := r.Record(); rr != nil {
			fields = append(fields, rr.Fields...)
		} else {
			for i := 0; i < nRight; i++ {
				fields = append(fields, types.Null())
			}
		}
		return types.NewRecord(schema, fields)
	}

	if len(n.LeftKeys) > 0 {
		lk, err := ex.compileKeys(n.LeftKeys, n.Left)
		if err != nil {
			return nil, err
		}
		rk, err := ex.compileKeys(n.RightKeys, n.Right)
		if err != nil {
			return nil, err
		}
		ex.Ctx.Metrics().NoteStrategy("join:hash")
		var joined *engine.Dataset
		if n.Outer {
			joined = left.LeftOuterHashJoin("join", right, lk, rk, combine)
		} else {
			joined = left.HashJoin("join", right, lk, rk, combine)
		}
		if n.Residual != nil {
			res, err := ex.compile(n.Residual, n)
			if err != nil {
				return nil, err
			}
			joined = joined.Filter("join:residual", func(v types.Value) bool {
				return evalEnv(res, v).Bool()
			})
		}
		return joined, nil
	}

	// Theta or cross join. The pair predicate is the innermost loop of the
	// engine: monoid.CompilePair specializes it over the two env records (no
	// per-pair argument slice, no compiled-tree walk) where the shape allows.
	pred := func(l, r types.Value) bool { return true }
	if n.Theta != nil {
		binds := map[string]monoid.PairBinding{}
		for i, b := range n.Left.Binds() {
			binds[b] = monoid.PairBinding{Slot: i}
		}
		for i, b := range n.Right.Binds() {
			binds[b] = monoid.PairBinding{Right: true, Slot: i}
		}
		if pred, err = ex.compiler.CompilePair(n.Theta, binds); err != nil {
			return nil, err
		}
	}

	// Every branch notes its choice in the Metrics strategy ledger. The
	// names here ("join:hash", "join:cartesian", "join:minmax",
	// "join:mbucket", plus the "nest:*" family and "pairs:self" — the fused
	// self-pair stage — above) share a namespace with the masked DENIAL
	// stage the engine notes itself ("join:delta-band", "join:delta-scan":
	// engine.MaskedSelfJoin, run by the append delta in core and the REPAIR
	// re-check in cleaning). A delta-served DENIAL is the same core execution
	// with that stage producing the pair rows instead of the join run here —
	// its pair predicate is the one CompilePair above builds, bound to whole
	// tuples, and it prunes by the same engine band rule — so the ledger
	// shows which machinery actually ran. A delta-served DEDUP has no name of
	// its own: it is this executor running the statement's plan under a fresh
	// mask (SetFreshMask), and logs the "nest:*" and "pairs:self" a cold run
	// logs.
	strat := ex.Config.Theta
	if ex.Config.Auto {
		strat = ex.chooseTheta(left, right)
	}
	ex.Ctx.Metrics().NoteStrategy("join:" + strat.String())
	return ThetaJoin(strat, "join", left, right, ex.deriveBand(n), pred, combine)
}

// deriveBand inspects the theta predicate for a band conjunct — the first
// left OP right inequality (OP one of < <= > >=) whose operands each read
// one side only — and returns it with each operand compiled against its own
// side: the statistics CleanDB's theta join exploits (paper §6). nil when
// there is none.
func (ex *Executor) deriveBand(n *algebra.Join) *engine.Band {
	if n.Theta == nil {
		return nil
	}
	for _, c := range monoid.Conjuncts(n.Theta) {
		lExpr, rExpr, op, ok := monoid.CrossInequality(c, n.Left.Binds(), n.Right.Binds())
		if !ok {
			continue
		}
		lc, err1 := ex.compile(lExpr, n.Left)
		rc, err2 := ex.compile(rExpr, n.Right)
		if err1 != nil || err2 != nil {
			continue
		}
		return &engine.Band{
			Left:  func(v types.Value) float64 { return engine.BandKey(evalEnv(lc, v)) },
			Right: func(v types.Value) float64 { return engine.BandKey(evalEnv(rc, v)) },
			Op:    op,
		}
	}
	return nil
}

func (ex *Executor) compileKeys(keys []monoid.Expr, child algebra.Plan) (engine.KeyFunc, error) {
	compiled := make([]monoid.CompiledExpr, len(keys))
	for i, k := range keys {
		ce, err := ex.compile(k, child)
		if err != nil {
			return nil, err
		}
		compiled[i] = ce
	}
	if len(compiled) == 1 {
		ce := compiled[0]
		return func(v types.Value) types.Value { return evalEnv(ce, v) }, nil
	}
	return func(v types.Value) types.Value {
		parts := make([]types.Value, len(compiled))
		for i, ce := range compiled {
			parts[i] = evalEnv(ce, v)
		}
		return types.ListOf(parts)
	}, nil
}

func (ex *Executor) execCombine(n *algebra.CombineAll) (*engine.Dataset, error) {
	// Tag every input's records with the input index, union, and group by
	// the entity key — a scale-out full outer join across all inputs.
	tagSchema := types.NewSchema("key", "tag", "rec")
	var union *engine.Dataset
	for i, in := range n.Inputs {
		d, err := ex.Exec(in)
		if err != nil {
			return nil, err
		}
		ke, err := ex.compile(n.Keys[i], in)
		if err != nil {
			return nil, err
		}
		idx := int64(i)
		unwrap := len(in.Binds()) == 1 && in.Binds()[0] == "$out"
		tagged := d.Map(fmt.Sprintf("combine:tag:%s", n.Names[i]), func(v types.Value) types.Value {
			rec := v
			if unwrap {
				// Violation outputs are {$out: value} environments; store
				// the bare value in the combined report.
				rec = v.Field("$out")
			}
			return types.NewRecord(tagSchema, []types.Value{evalEnv(ke, v), types.Int(idx), rec})
		})
		if union == nil {
			union = tagged
		} else {
			union = union.Union(tagged)
		}
	}
	if union == nil {
		return engine.FromValues(ex.Ctx, nil), nil
	}
	outSchema := types.NewSchema(append([]string{"entity"}, n.Names...)...)
	k := len(n.Inputs)
	agg := combineAgg{k: k, schema: outSchema}
	return union.AggregateByKey("combine", func(v types.Value) types.Value {
		return v.Field("key")
	}, agg), nil
}

// combineAgg groups tagged violation records per entity key.
type combineAgg struct {
	k      int
	schema *types.Schema
}

func (c combineAgg) Zero() interface{} { return make([][]types.Value, c.k) }

func (c combineAgg) Add(acc interface{}, v types.Value) interface{} {
	lists := acc.([][]types.Value)
	tag := int(v.Field("tag").Int())
	if tag >= 0 && tag < c.k {
		lists[tag] = append(lists[tag], v.Field("rec"))
	}
	return lists
}

func (c combineAgg) Merge(a, b interface{}) interface{} {
	as, bs := a.([][]types.Value), b.([][]types.Value)
	for i := range as {
		as[i] = append(as[i], bs[i]...)
	}
	return as
}

func (c combineAgg) Result(key types.Value, acc interface{}) types.Value {
	lists := acc.([][]types.Value)
	fields := make([]types.Value, 0, c.k+1)
	fields = append(fields, key)
	for _, l := range lists {
		fields = append(fields, types.ListOf(l))
	}
	return types.NewRecord(c.schema, fields)
}

func (c combineAgg) AccSize(acc interface{}) int64 {
	lists := acc.([][]types.Value)
	var n int64 = 1
	for _, l := range lists {
		n += int64(len(l))
	}
	return n
}

// CollectSorted executes the plan and returns its records sorted by their
// canonical key — a convenience for tests and deterministic output.
func (ex *Executor) CollectSorted(p algebra.Plan) ([]types.Value, error) {
	d, err := ex.Exec(p)
	if err != nil {
		return nil, err
	}
	out := d.Collect()
	types.SortByKey(out)
	return out, nil
}
