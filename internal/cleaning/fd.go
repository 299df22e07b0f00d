// Package cleaning provides CleanDB's high-level cleaning operations as a
// programmatic library: functional-dependency checks, general denial
// constraints, duplicate elimination, term validation and syntactic
// transformations, plus precision/recall scoring against ground truth.
//
// Each operation is parameterized by the physical strategies of the paper's
// §6 (grouping shuffle, theta-join algorithm), which is how the Spark SQL
// and BigDansing baselines reuse the same operation logic while exhibiting
// their published performance behaviour.
//
// Operations that ask "is this the same tuple?" many times — duplicate
// clustering and denial-constraint repair — go through a types.TupleTable:
// tuples are interned to dense ids once, and the union-find, the repair
// intervals and the fixpoint's dirty sets are indexed by id. No loop in this
// package re-encodes a record to compare it.
package cleaning

import (
	"cleandb/internal/engine"
	"cleandb/internal/physical"
	"cleandb/internal/types"
)

// Extract computes a grouping or projection key from a record.
type Extract func(types.Value) types.Value

// FieldExtract extracts a named field.
func FieldExtract(name string) Extract {
	return func(v types.Value) types.Value { return v.Field(name) }
}

// FieldsExtract extracts several fields as a composite key.
func FieldsExtract(names ...string) Extract {
	if len(names) == 1 {
		return FieldExtract(names[0])
	}
	return func(v types.Value) types.Value {
		return types.CompositeKey(types.FieldsOf(v, names))
	}
}

// FDViolationSchema describes FD violation records: the violating LHS key,
// the distinct RHS values observed, and the offending group members.
var FDViolationSchema = types.NewSchema("key", "values", "group")

// FDCheck detects functional-dependency violations: the dataset is grouped
// by the LHS key and groups associating more than one distinct RHS value are
// reported. The strategy selects the shuffle (paper §6): CleanDB uses
// GroupAggregate; the baselines use sort/hash shuffles.
func FDCheck(ds *engine.Dataset, lhs, rhs Extract, strategy physical.GroupStrategy) *engine.Dataset {
	agg := fdAgg{rhs: rhs}
	switch strategy {
	case physical.GroupSort:
		return ds.SortShuffleGroup("fd", engine.KeyFunc(lhs), agg)
	case physical.GroupHash:
		return ds.HashShuffleGroup("fd", engine.KeyFunc(lhs), agg)
	default:
		return ds.AggregateByKey("fd", engine.KeyFunc(lhs), agg)
	}
}

// fdAgg accumulates (distinct RHS values, group members) per LHS key and
// emits a violation record when more than one RHS value was seen. Keeping
// the distinct set small during local combination is exactly why the
// aggregate strategy shuffles little data for FD checks.
type fdAgg struct {
	rhs Extract
}

type fdAcc struct {
	rhsSeen map[string]types.Value
	group   []types.Value
}

func (f fdAgg) Zero() interface{} {
	return &fdAcc{rhsSeen: map[string]types.Value{}}
}

func (f fdAgg) Add(acc interface{}, v types.Value) interface{} {
	a := acc.(*fdAcc)
	rv := f.rhs(v)
	a.rhsSeen[types.Key(rv)] = rv
	a.group = append(a.group, v)
	return a
}

func (f fdAgg) Merge(x, y interface{}) interface{} {
	a, b := x.(*fdAcc), y.(*fdAcc)
	for k, v := range b.rhsSeen {
		a.rhsSeen[k] = v
	}
	a.group = append(a.group, b.group...)
	return a
}

func (f fdAgg) Result(key types.Value, acc interface{}) types.Value {
	a := acc.(*fdAcc)
	if len(a.rhsSeen) <= 1 {
		return types.Null()
	}
	vals := make([]types.Value, 0, len(a.rhsSeen))
	for _, v := range a.rhsSeen {
		vals = append(vals, v)
	}
	types.SortValues(vals)
	return types.NewRecord(FDViolationSchema, []types.Value{
		key, types.ListOf(vals), types.ListOf(a.group),
	})
}

func (f fdAgg) AccSize(acc interface{}) int64 {
	a := acc.(*fdAcc)
	return int64(len(a.group)) + int64(len(a.rhsSeen))
}
