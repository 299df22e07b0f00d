package types

import (
	"slices"
	"strings"
)

// TupleTable interns values to dense int32 ids, paying one Key encoding per
// distinct value. It exists for code that must answer "is this the same
// tuple?" many times over a few distinct tuples — pair outputs, violation
// clusters, repair fixpoints — where re-encoding a record per question is the
// dominant cost. Lookup goes by record pointer first; a record seen under a
// new pointer is encoded once, merged onto the id of its value-identical
// twin, and bound, so value-identical records are one tuple.
//
// Intern mutates the table and must not run concurrently with any other
// method; every other method is read-only, so any number of goroutines may
// use them between Interns.
type TupleTable struct {
	byRec map[*Record]int32
	byKey map[string]int32
	keys  []string
	vals  []Value
}

// NewTupleTable returns an empty table.
func NewTupleTable() *TupleTable {
	return &TupleTable{byRec: map[*Record]int32{}, byKey: map[string]int32{}}
}

// Intern returns v's id, assigning the next dense id to a value not seen
// before. The first value interned under an id stays its representative.
func (t *TupleTable) Intern(v Value) int32 {
	rec := v.Record()
	if rec != nil {
		if id, ok := t.byRec[rec]; ok {
			return id
		}
	}
	k := Key(v)
	id, ok := t.byKey[k]
	if !ok {
		id = int32(len(t.keys))
		t.byKey[k] = id
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, v)
	}
	if rec != nil {
		t.byRec[rec] = id
	}
	return id
}

// ByRecord resolves v by record pointer alone: no encoding, and a miss says
// only that this pointer was never interned, not that the value is unknown.
func (t *TupleTable) ByRecord(v Value) (int32, bool) {
	rec := v.Record()
	if rec == nil {
		return 0, false
	}
	id, ok := t.byRec[rec]
	return id, ok
}

// ByKey resolves a canonical key string to its id.
func (t *TupleTable) ByKey(k string) (int32, bool) {
	id, ok := t.byKey[k]
	return id, ok
}

// Key returns the canonical key string of id, built when id was assigned.
func (t *TupleTable) Key(id int32) string { return t.keys[id] }

// Value returns the representative value of id.
func (t *TupleTable) Value(id int32) Value { return t.vals[id] }

// Len returns the number of ids assigned; ids are 0..Len()-1.
func (t *TupleTable) Len() int { return len(t.keys) }

// SortByKey orders ids by their stored key strings.
func (t *TupleTable) SortByKey(ids []int32) {
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(t.keys[a], t.keys[b]) })
}

// IDsByKey returns every id, ordered by key string.
func (t *TupleTable) IDsByKey() []int32 {
	ids := make([]int32, len(t.keys))
	for i := range ids {
		ids[i] = int32(i)
	}
	t.SortByKey(ids)
	return ids
}
