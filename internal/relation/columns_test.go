package relation

import (
	"fmt"
	"testing"
	"unsafe"
)

// specRow is one row of the specialization fixture: an int, a float, a
// string, a bool, and an int column whose first value is NULL.
func specRow(i int) Tuple {
	nullable := Int(int64(i))
	if i == 0 {
		nullable = Null()
	}
	return Tuple{Int(int64(i)), Float(float64(i) + 0.5), Str(fmt.Sprintf("s%d", i)), Bool(i%2 == 0), nullable}
}

var specWant = []uint8{colInt, colFloat, colGeneric, colGeneric, colGeneric}

func colTags(m *TupleMap) []uint8 {
	tags := make([]uint8, len(m.cols))
	for c := range m.cols {
		tags[c] = m.cols[c].tag
	}
	return tags
}

// checkSpec requires m's columns in the given representations and every
// fixture row 0..n-1 present exactly once.
func checkSpec(t *testing.T, path string, m *TupleMap, want []uint8, n int, row func(int) Tuple) {
	t.Helper()
	if got := colTags(m); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: column representations %v, want %v", path, got, want)
	}
	if m.Len() != n {
		t.Errorf("%s: %d rows, want %d", path, m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := m.Get(row(i)); got != 1 {
			t.Errorf("%s: row %s has count %d", path, row(i), got)
		}
	}
}

// TestColumnsSpecialize holds every path that writes a TupleMap to the
// representation rule: the first value stored picks unboxed int64/float64
// for ints/floats, anything else (strings, bools, a NULL first) is boxed,
// and a later mismatching value demotes the column without losing data.
func TestColumnsSpecialize(t *testing.T) {
	const n = 64
	src := NewTupleMap(5)
	for i := 0; i < n; i++ {
		src.Add(specRow(i), 1, ModeBag)
	}
	checkSpec(t, "Add", src, specWant, n, specRow)

	viaFrom := NewTupleMap(5)
	src.EachSlot(func(s int32, c int64) bool {
		viaFrom.AddFrom(src, s, c, ModeBag)
		return true
	})
	checkSpec(t, "AddFrom", viaFrom, specWant, n, specRow)

	perm := []int{4, 3, 2, 1, 0}
	permRow := func(i int) Tuple { return specRow(i).Project(perm) }
	viaProj := NewTupleMap(5)
	src.EachSlot(func(s int32, c int64) bool {
		viaProj.AddFromProjected(src, s, perm, c, ModeBag)
		return true
	})
	checkSpec(t, "AddFromProjected", viaProj, []uint8{colGeneric, colGeneric, colGeneric, colFloat, colInt}, n, permRow)

	// AddSlot is the per-atom primitive RelDelta.ApplyTo runs.
	schema := MustSchema("X", []Attribute{{"i", KindInt}, {"f", KindFloat}, {"s", KindString}, {"b", KindBool}, {"n", KindInt}})
	applied := New(schema, Bag)
	src.EachSlot(func(s int32, c int64) bool {
		applied.AddSlot(src, s, c)
		return true
	})
	checkSpec(t, "AddSlot", applied.Blockmap(), specWant, n, specRow)

	clone := src.Clone()
	checkSpec(t, "Clone", clone, specWant, n, specRow)

	// Free-slot reuse: deleted slots are recycled by later inserts.
	reuse := src.Clone()
	for i := 0; i < n/2; i++ {
		reuse.Add(specRow(i), -1, ModeBag)
	}
	shifted := func(i int) Tuple { return specRow(i + n/2) }
	for i := n; i < n+n/2; i++ {
		reuse.Add(specRow(i), 1, ModeBag)
	}
	if reuse.Slots() != n {
		t.Errorf("free-slot reuse: %d slots, want %d", reuse.Slots(), n)
	}
	checkSpec(t, "free-slot reuse", reuse, specWant, n, shifted)

	// Clear forgets the representation; the next value picks it again.
	cleared := src.Clone()
	cleared.Add(Tuple{Str("x"), Float(0), Str("y"), Bool(true), Int(1)}, 1, ModeBag)
	cleared.Clear()
	if got := colTags(cleared); fmt.Sprint(got) != fmt.Sprint([]uint8{colEmpty, colEmpty, colEmpty, colEmpty, colEmpty}) {
		t.Errorf("Clear: column representations %v, want all empty", got)
	}
	nonNull := func(i int) Tuple { return specRow(i + 1) }
	for i := 0; i < n; i++ {
		cleared.Add(nonNull(i), 1, ModeBag)
	}
	checkSpec(t, "Clear", cleared, []uint8{colInt, colFloat, colGeneric, colGeneric, colInt}, n, nonNull)

	// An int column that receives a float demotes and still answers,
	// including for the int whose float spelling shares its key.
	demoted := NewTupleMap(1)
	for i := 0; i < 10; i++ {
		demoted.Add(Tuple{Int(int64(i))}, 1, ModeBag)
	}
	demoted.Add(Tuple{Float(2.5)}, 1, ModeBag)
	demoted.Add(Tuple{Float(3)}, 1, ModeBag)
	if demoted.cols[0].tag != colGeneric {
		t.Errorf("demotion: tag %d after a float arrived, want generic", demoted.cols[0].tag)
	}
	for i := 0; i < 10; i++ {
		want := int64(1)
		if i == 3 {
			want = 2
		}
		if got := demoted.Get(Tuple{Int(int64(i))}); got != want {
			t.Errorf("demotion: Int(%d) count %d, want %d", i, got, want)
		}
	}
	if demoted.Get(Tuple{Float(2.5)}) != 1 || demoted.Len() != 11 {
		t.Errorf("demotion: Float(2.5) count %d, len %d", demoted.Get(Tuple{Float(2.5)}), demoted.Len())
	}

	// The point of it all: a 20k-row map of four int columns holds 8 B of
	// column payload per value (a boxed Value is 40).
	const rows = 20000
	wide := NewTupleMap(4)
	for i := 0; i < rows; i++ {
		wide.Add(T(i, i%97, i*3, 100), 1, ModeSet)
	}
	bytes := 0
	for c := range wide.cols {
		col := &wide.cols[c]
		bytes += len(col.ints)*8 + len(col.floats)*8 + len(col.vals)*int(unsafe.Sizeof(Value{}))
	}
	if per := float64(bytes) / (rows * 4); per > 8 {
		t.Errorf("column payload %.1f B per value, want ≤ 8 (tags %v)", per, colTags(wide))
	}
}
