package relation

import "testing"

// Relations must not build key strings on the tuple hot path:
// Add and Count on an unindexed relation hash the tuple's canonical
// encoding in a stack buffer and touch only column vectors. These tests
// pin that property so a regression (an escaping buffer, a closure that
// heap-allocates, a map key materialization) fails loudly.

func TestAddZeroAllocs(t *testing.T) {
	r := New(MustSchema("Z", []Attribute{
		{"a", KindInt}, {"b", KindString}, {"c", KindInt},
	}), Bag)
	tp := T(7, "hot-path", 9)
	r.Add(tp, 1) // warm: column growth, interning, table sizing

	if allocs := testing.AllocsPerRun(200, func() {
		r.Add(tp, 1)
	}); allocs != 0 {
		t.Errorf("Add on existing tuple: %v allocs/op, want 0", allocs)
	}
}

func TestCountZeroAllocs(t *testing.T) {
	r := New(MustSchema("Z", []Attribute{
		{"a", KindInt}, {"b", KindString}, {"c", KindInt},
	}), Bag)
	present := T(7, "hot-path", 9)
	absent := T(8, "missing", 1)
	r.Add(present, 3)

	if allocs := testing.AllocsPerRun(200, func() {
		if r.Count(present) != 3 {
			t.Fatal("wrong count")
		}
	}); allocs != 0 {
		t.Errorf("Count hit: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if r.Count(absent) != 0 {
			t.Fatal("phantom tuple")
		}
	}); allocs != 0 {
		t.Errorf("Count miss: %v allocs/op, want 0", allocs)
	}
}

// Insert/Delete churn over an existing slot population also stays
// allocation-free once the free list and table have warmed up.
func TestChurnZeroAllocs(t *testing.T) {
	r := New(MustSchema("Z", []Attribute{{"a", KindInt}}), Bag)
	tp := T(1)
	r.Add(tp, 1)
	r.Add(tp, -1) // warm the free list
	r.Add(tp, 1)
	r.Add(tp, -1)

	if allocs := testing.AllocsPerRun(200, func() {
		r.Add(tp, 1)
		r.Add(tp, -1)
	}); allocs != 0 {
		t.Errorf("insert/delete churn: %v allocs/op, want 0", allocs)
	}
}
