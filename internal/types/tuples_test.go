package types

import "testing"

func TestTupleTableInternsByPointerThenValue(t *testing.T) {
	s := NewSchema("id", "v")
	a := NewRecord(s, []Value{Int(1), Float(0.5)})
	twin := NewRecord(s, []Value{Int(1), Float(0.5)}) // same value, other pointer
	b := NewRecord(s, []Value{Int(2), Float(0.5)})

	tab := NewTupleTable()
	ia, ib := tab.Intern(a), tab.Intern(b)
	if ia == ib || tab.Len() != 2 {
		t.Fatalf("distinct tuples share an id: %d %d (len %d)", ia, ib, tab.Len())
	}
	if _, ok := tab.ByRecord(twin); ok {
		t.Fatal("ByRecord resolved a pointer that was never interned")
	}
	if got := tab.Intern(twin); got != ia || tab.Len() != 2 {
		t.Fatalf("value-identical record got id %d, want %d (len %d)", got, ia, tab.Len())
	}
	if id, ok := tab.ByRecord(twin); !ok || id != ia {
		t.Fatalf("twin not bound after Intern: %d %v", id, ok)
	}
	if tab.Key(ia) != Key(a) || !Equal(tab.Value(ia), a) {
		t.Fatalf("id %d stores %q / %v", ia, tab.Key(ia), tab.Value(ia))
	}
	if id, ok := tab.ByKey(Key(b)); !ok || id != ib {
		t.Fatalf("ByKey(b) = %d %v", id, ok)
	}
	// Scalars have no pointer; they intern by value every time.
	if x, y := tab.Intern(String("k")), tab.Intern(String("k")); x != y {
		t.Fatalf("scalar interned twice: %d %d", x, y)
	}

	ids := []int32{ib, ia}
	tab.SortByKey(ids)
	if ids[0] != ia || ids[1] != ib {
		t.Fatalf("SortByKey = %v", ids)
	}
}

func TestSortByKeyMatchesKeyOrder(t *testing.T) {
	vs := []Value{String("b"), Int(10), Null(), Float(2.5), String("a"), Int(9)}
	SortByKey(vs)
	for i := 1; i < len(vs); i++ {
		if Key(vs[i-1]) > Key(vs[i]) {
			t.Fatalf("out of order at %d: %v", i, vs)
		}
	}
}
