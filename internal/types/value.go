// Package types defines the dynamic value model shared by every layer of
// CleanDB: the monoid calculus, the nested relational algebra, the physical
// engine and the data-format readers. Values are self-describing and support
// arbitrary nesting (lists of records, records of lists), which is what lets
// CleanM clean hierarchical data (JSON/XML) without flattening it first.
package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
	KindRecord
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindList:
		return "list"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed datum. The zero Value is Null.
//
// Values are small struct copies; lists and records share underlying storage,
// so callers must not mutate a Value obtained from a Dataset.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	l    []Value
	r    *Record
}

// Record is an ordered collection of named fields. The schema is shared by
// all records produced by the same scan, keeping per-row memory low.
type Record struct {
	Schema *Schema
	Fields []Value
}

// Schema maps field names to positions. Build one with NewSchema and share it.
type Schema struct {
	Names []string
	index map[string]int
}

// NewSchema builds a schema for the given field names.
func NewSchema(names ...string) *Schema {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return &Schema{Names: names, index: idx}
}

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Has reports whether the schema contains the named field.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Extend returns a new schema with extra field names appended.
func (s *Schema) Extend(extra ...string) *Schema {
	names := make([]string, 0, len(s.Names)+len(extra))
	names = append(names, s.Names...)
	names = append(names, extra...)
	return NewSchema(names...)
}

// Null is the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// List wraps a slice of values. The slice is not copied.
func List(vs ...Value) Value { return Value{kind: KindList, l: vs} }

// ListOf wraps an existing slice without copying.
func ListOf(vs []Value) Value { return Value{kind: KindList, l: vs} }

// NewRecord builds a record value over schema with the given fields.
// len(fields) must equal len(schema.Names).
func NewRecord(schema *Schema, fields []Value) Value {
	if len(fields) != len(schema.Names) {
		panic(fmt.Sprintf("types: record arity %d does not match schema arity %d", len(fields), len(schema.Names)))
	}
	return Value{kind: KindRecord, r: &Record{Schema: schema, Fields: fields}}
}

// Kind returns the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; false for non-bool values.
func (v Value) Bool() bool { return v.kind == KindBool && v.b }

// Int returns the integer payload, converting from float if needed.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Float returns the numeric payload as float64.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		return 0
	}
}

// Str returns the string payload; empty for non-strings.
func (v Value) Str() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// List returns the list payload; nil for non-lists.
func (v Value) List() []Value {
	if v.kind == KindList {
		return v.l
	}
	return nil
}

// Record returns the record payload; nil for non-records.
func (v Value) Record() *Record {
	if v.kind == KindRecord {
		return v.r
	}
	return nil
}

// Field returns the named field of a record value. Missing fields and
// non-record receivers yield Null, which mirrors SQL semantics for
// projections over dirty data.
func (v Value) Field(name string) Value {
	if v.kind != KindRecord {
		return Null()
	}
	if i, ok := v.r.Schema.Index(name); ok {
		return v.r.Fields[i]
	}
	return Null()
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Truthy reports whether the value counts as true in a filter position:
// booleans use their payload, everything else is false except non-null
// presence checks are left to the caller.
func (v Value) Truthy() bool { return v.kind == KindBool && v.b }

// Equal reports deep equality. Numeric int/float compare by value.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Compare orders two values. Nulls sort first; numeric kinds compare by
// value; mismatched non-numeric kinds compare by kind tag; lists and records
// compare lexicographically.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindList:
		n := len(a.l)
		if len(b.l) < n {
			n = len(b.l)
		}
		for i := 0; i < n; i++ {
			if c := Compare(a.l[i], b.l[i]); c != 0 {
				return c
			}
		}
		return len(a.l) - len(b.l)
	case KindRecord:
		ar, br := a.r, b.r
		n := len(ar.Fields)
		if len(br.Fields) < n {
			n = len(br.Fields)
		}
		for i := 0; i < n; i++ {
			if c := Compare(ar.Fields[i], br.Fields[i]); c != 0 {
				return c
			}
		}
		return len(ar.Fields) - len(br.Fields)
	default:
		return 0
	}
}

// Hash returns a stable FNV-1a hash of the value, suitable for partitioning
// and hash joins. Equal values hash equally (ints and equal floats included).
func Hash(v Value) uint64 {
	h := fnv.New64a()
	hashInto(h, v)
	return h.Sum64()
}

type hasher interface {
	Write(p []byte) (int, error)
}

func hashInto(h hasher, v Value) {
	var tag [1]byte
	switch v.kind {
	case KindNull:
		tag[0] = 0
		h.Write(tag[:])
	case KindBool:
		tag[0] = 1
		if v.b {
			tag[0] = 2
		}
		h.Write(tag[:])
	case KindInt, KindFloat:
		// Hash numerics through float64 bits so Int(3) and Float(3.0)
		// land in the same bucket, matching Compare.
		tag[0] = 3
		h.Write(tag[:])
		bits := math.Float64bits(v.Float())
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	case KindString:
		tag[0] = 4
		h.Write(tag[:])
		h.Write([]byte(v.s))
	case KindList:
		tag[0] = 5
		h.Write(tag[:])
		for _, e := range v.l {
			hashInto(h, e)
		}
	case KindRecord:
		tag[0] = 6
		h.Write(tag[:])
		for _, e := range v.r.Fields {
			hashInto(h, e)
		}
	}
}

// Key renders a canonical string key for grouping. Unlike String it is
// unambiguous (strings are quoted) so distinct values yield distinct keys.
//
// Key is an O(size of v) encoding that allocates its result: it is meant for
// keying a value once — a map insert, a decorate step before a sort, a
// TupleTable intern. It is never for a comparator or a per-pair loop, where
// one value is re-encoded per comparison or per pair it appears in; sort with
// SortByKey, and identify repeated tuples through a TupleTable. cleanlint's
// keysort analyzer rejects Key inside a sort comparator.
func Key(v Value) string {
	var sb strings.Builder
	keyInto(&sb, v)
	return sb.String()
}

func keyInto(sb *strings.Builder, v Value) {
	switch v.kind {
	case KindNull:
		sb.WriteString("∅")
	case KindBool:
		if v.b {
			sb.WriteString("#t")
		} else {
			sb.WriteString("#f")
		}
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			sb.WriteString(strconv.FormatInt(int64(v.f), 10))
		} else {
			sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
		}
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.l {
			if i > 0 {
				sb.WriteByte(',')
			}
			keyInto(sb, e)
		}
		sb.WriteByte(']')
	case KindRecord:
		sb.WriteByte('(')
		for i, e := range v.r.Fields {
			if i > 0 {
				sb.WriteByte(',')
			}
			keyInto(sb, e)
		}
		sb.WriteByte(')')
	}
}

// String renders the value for humans.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindList:
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindRecord:
		parts := make([]string, len(v.r.Fields))
		for i, e := range v.r.Fields {
			parts[i] = v.r.Schema.Names[i] + ": " + e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}

// SizeBytes estimates the in-memory footprint of the value; the engine cost
// model uses it to account for shuffle volume.
func SizeBytes(v Value) int {
	switch v.kind {
	case KindNull, KindBool:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return 16 + len(v.s)
	case KindList:
		n := 24
		for _, e := range v.l {
			n += SizeBytes(e)
		}
		return n
	case KindRecord:
		n := 24
		for _, e := range v.r.Fields {
			n += SizeBytes(e)
		}
		return n
	default:
		return 1
	}
}

// SortValues sorts a slice of values in Compare order, in place.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
}

// SortByKey sorts a slice of values by canonical key, in place: decorate,
// sort, undecorate, so each value is encoded once rather than twice per
// comparison. Equal keys mean equal values, so the order is total.
func SortByKey(vs []Value) {
	type keyed struct {
		key string
		v   Value
	}
	ks := make([]keyed, len(vs))
	for i, v := range vs {
		ks[i] = keyed{Key(v), v}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		vs[i] = ks[i].v
	}
}

// FieldsOf extracts the named fields from a record value, in order.
func FieldsOf(v Value, names []string) []Value {
	out := make([]Value, len(names))
	for i, n := range names {
		out[i] = v.Field(n)
	}
	return out
}

// CompositeKey builds a grouping key value from several field values: the
// single value itself when len==1, else a list.
func CompositeKey(vs []Value) Value {
	if len(vs) == 1 {
		return vs[0]
	}
	return ListOf(vs)
}
