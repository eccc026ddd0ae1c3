package relation

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("R",
		[]Attribute{{"r1", KindInt}, {"r2", KindString}, {"r3", KindInt}}, "r1")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Name() != "R" || s.Arity() != 3 {
		t.Fatalf("basic accessors: %s %d", s.Name(), s.Arity())
	}
	if got := s.AttrNames(); strings.Join(got, ",") != "r1,r2,r3" {
		t.Errorf("AttrNames = %v", got)
	}
	if i, ok := s.AttrIndex("r2"); !ok || i != 1 {
		t.Errorf("AttrIndex(r2) = %d,%v", i, ok)
	}
	if _, ok := s.AttrIndex("zz"); ok {
		t.Errorf("AttrIndex(zz) should miss")
	}
	if k, ok := s.AttrType("r2"); !ok || k != KindString {
		t.Errorf("AttrType(r2) = %v,%v", k, ok)
	}
	if !s.HasKey() || strings.Join(s.KeyAttrs(), ",") != "r1" {
		t.Errorf("key = %v", s.KeyAttrs())
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("", []Attribute{{"a", KindInt}}); err == nil {
		t.Errorf("empty name should fail")
	}
	if _, err := NewSchema("R", nil); err == nil {
		t.Errorf("no attributes should fail")
	}
	if _, err := NewSchema("R", []Attribute{{"a", KindInt}, {"a", KindInt}}); err == nil {
		t.Errorf("duplicate attribute should fail")
	}
	if _, err := NewSchema("R", []Attribute{{"a", KindInt}}, "b"); err == nil {
		t.Errorf("unknown key attribute should fail")
	}
	if _, err := NewSchema("R", []Attribute{{"", KindInt}}); err == nil {
		t.Errorf("unnamed attribute should fail")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project("P", []string{"r3", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.AttrNames(), ",") != "r3,r1" {
		t.Errorf("projected attrs = %v", p.AttrNames())
	}
	if !p.HasKey() {
		t.Errorf("key r1 survives projection containing r1")
	}
	q, err := s.Project("Q", []string{"r2"})
	if err != nil {
		t.Fatal(err)
	}
	if q.HasKey() {
		t.Errorf("key must be dropped when key attrs projected away")
	}
	if _, err := s.Project("X", []string{"nope"}); err == nil {
		t.Errorf("projecting unknown attribute should fail")
	}
}

func TestSchemaConcat(t *testing.T) {
	s := testSchema(t)
	o := MustSchema("S", []Attribute{{"s1", KindInt}}, "s1")
	c, err := s.Concat("RS", o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Arity() != 4 {
		t.Errorf("concat arity = %d", c.Arity())
	}
	// Overlapping names must fail.
	dup := MustSchema("S2", []Attribute{{"r1", KindInt}})
	if _, err := s.Concat("X", dup); err == nil {
		t.Errorf("concat with duplicate attr names should fail")
	}
}

func TestSetRelationBasics(t *testing.T) {
	r := NewSet(testSchema(t))
	if !r.Insert(T(1, "a", 10)) {
		t.Fatalf("first insert")
	}
	if r.Insert(T(1, "a", 10)) {
		t.Errorf("duplicate insert into set must be a no-op")
	}
	if r.Len() != 1 || r.Card() != 1 {
		t.Errorf("len=%d card=%d", r.Len(), r.Card())
	}
	if !r.Contains(T(1, "a", 10)) || r.Contains(T(2, "b", 20)) {
		t.Errorf("Contains wrong")
	}
	if !r.Delete(T(1, "a", 10)) {
		t.Errorf("delete existing")
	}
	if r.Delete(T(1, "a", 10)) {
		t.Errorf("delete absent must return false")
	}
	if r.Len() != 0 || r.Card() != 0 {
		t.Errorf("after delete: len=%d card=%d", r.Len(), r.Card())
	}
}

func TestBagRelationMultiplicity(t *testing.T) {
	r := NewBag(testSchema(t))
	tp := T(1, "a", 10)
	r.Insert(tp)
	r.Insert(tp)
	r.Insert(tp)
	if r.Count(tp) != 3 || r.Len() != 1 || r.Card() != 3 {
		t.Fatalf("count=%d len=%d card=%d", r.Count(tp), r.Len(), r.Card())
	}
	applied, n := r.Add(tp, -2)
	if applied != -2 || n != 1 {
		t.Errorf("Add(-2): applied=%d n=%d", applied, n)
	}
	applied, n = r.Add(tp, -5)
	if applied != -1 || n != 0 {
		t.Errorf("underflow must clamp: applied=%d n=%d", applied, n)
	}
	if r.Contains(tp) {
		t.Errorf("tuple should be gone")
	}
}

func TestSetCount(t *testing.T) {
	r := NewBag(testSchema(t))
	tp := T(5, "z", 1)
	r.SetCount(tp, 4)
	if r.Count(tp) != 4 {
		t.Errorf("SetCount up: %d", r.Count(tp))
	}
	r.SetCount(tp, 1)
	if r.Count(tp) != 1 {
		t.Errorf("SetCount down: %d", r.Count(tp))
	}
	r.SetCount(tp, 0)
	if r.Contains(tp) {
		t.Errorf("SetCount 0 should remove")
	}
}

func TestRelationEqualAndClone(t *testing.T) {
	a := NewBag(testSchema(t))
	a.Add(T(1, "a", 1), 2)
	a.Insert(T(2, "b", 2))
	b := a.Clone()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("clone must be equal")
	}
	b.Insert(T(2, "b", 2))
	if a.Equal(b) {
		t.Errorf("multiplicity difference must break Equal")
	}
	if !a.EqualAsSet(b) {
		t.Errorf("EqualAsSet ignores multiplicities")
	}
	b.Insert(T(3, "c", 3))
	if a.EqualAsSet(b) {
		t.Errorf("distinct tuple sets differ")
	}
}

func TestRelationRowsDeterministic(t *testing.T) {
	r := NewSet(testSchema(t))
	r.Insert(T(3, "c", 30))
	r.Insert(T(1, "a", 10))
	r.Insert(T(2, "b", 20))
	rows := r.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i+1 < len(rows); i++ {
		if rows[i].Tuple.Compare(rows[i+1].Tuple) >= 0 {
			t.Errorf("rows not sorted at %d", i)
		}
	}
}

// probeRows returns the rows of r whose attribute attr equals v, sorted:
// through the resident index when r has one there, otherwise through a
// transient index — the two forms every join chooses between.
func probeRows(t *testing.T, r *Relation, attr string, v Value) []Row {
	t.Helper()
	positions, err := r.Schema().Positions([]string{attr})
	if err != nil {
		t.Fatal(err)
	}
	ix := r.IndexOn(positions)
	if ix == nil {
		ix = NewJoinIndex(r, positions)
	}
	key := []Value{v}
	var out []Row
	for s := ix.First(key); s >= 0; s = ix.Next(s, key) {
		out = append(out, Row{Tuple: ix.Map().AppendTupleAt(nil, s), Count: int(ix.Map().CountAt(s))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

func TestIndexProbe(t *testing.T) {
	r := NewBag(testSchema(t))
	if err := r.EnsureIndex("r2"); err != nil {
		t.Fatal(err)
	}
	r.Insert(T(1, "a", 10))
	r.Insert(T(2, "a", 20))
	r.Insert(T(3, "b", 30))
	r.Add(T(2, "a", 20), 1)

	rows := probeRows(t, r, "r2", Str("a"))
	if len(rows) != 2 {
		t.Fatalf("probe a: %d rows", len(rows))
	}
	if rows[1].Count != 2 {
		t.Errorf("multiplicity through index: %d", rows[1].Count)
	}
	// Deleting updates the index.
	r.Add(T(1, "a", 10), -1)
	rows = probeRows(t, r, "r2", Str("a"))
	if len(rows) != 1 {
		t.Errorf("after delete: %d rows", len(rows))
	}
	// Probe without an index must agree.
	plain := NewBag(testSchema(t))
	plain.Insert(T(2, "a", 20))
	plain.Add(T(2, "a", 20), 1)
	rows2 := probeRows(t, plain, "r2", Str("a"))
	if len(rows2) != 1 || rows2[0].Count != 2 {
		t.Errorf("scan probe disagrees: %v", rows2)
	}
}

func TestIndexBuildOverExisting(t *testing.T) {
	r := NewSet(testSchema(t))
	r.Insert(T(1, "x", 1))
	r.Insert(T(2, "x", 2))
	if err := r.EnsureIndex("r2"); err != nil {
		t.Fatal(err)
	}
	if r.IndexOn([]int{1}) == nil || r.IndexOn([]int{0}) != nil {
		t.Errorf("IndexOn wrong")
	}
	rows := probeRows(t, r, "r2", Str("x"))
	if len(rows) != 2 {
		t.Errorf("index built over existing rows: %d", len(rows))
	}
	if err := r.EnsureIndex("nope"); err == nil {
		t.Errorf("index on unknown attribute should fail")
	}
}

func TestClear(t *testing.T) {
	r := NewSet(testSchema(t))
	r.EnsureIndex("r2")
	r.Insert(T(1, "a", 1))
	r.Clear()
	if r.Len() != 0 || r.Card() != 0 {
		t.Errorf("clear failed")
	}
	rows := probeRows(t, r, "r2", Str("a"))
	if len(rows) != 0 {
		t.Errorf("index not cleared")
	}
}

func TestDistinct(t *testing.T) {
	r := NewBag(testSchema(t))
	r.Add(T(1, "a", 1), 3)
	r.Add(T(2, "b", 2), 1)
	d := r.Distinct()
	if d.Semantics() != Set || d.Len() != 2 || d.Card() != 2 {
		t.Errorf("distinct: %v", d)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on arity mismatch")
		}
	}()
	NewSet(testSchema(t)).Insert(T(1, "a"))
}

// Property: for a bag relation, Card equals the sum of a shadow count map
// under random Add operations.
func TestBagCardProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewBag(testSchema(t))
		shadow := make(map[string]int)
		for i := 0; i < 200; i++ {
			tp := T(rng.Intn(10), "k", rng.Intn(3))
			n := rng.Intn(5) - 2
			r.Add(tp, n)
			c := shadow[tp.Key()] + n
			if c < 0 {
				c = 0
			}
			if c == 0 {
				delete(shadow, tp.Key())
			} else {
				shadow[tp.Key()] = c
			}
		}
		total := 0
		for _, c := range shadow {
			total += c
		}
		if r.Card() != total || r.Len() != len(shadow) {
			return false
		}
		for _, rw := range r.Rows() {
			if shadow[rw.Tuple.Key()] != rw.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: index probes agree with scan probes under random mutation.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		indexed := NewBag(testSchema(t))
		indexed.EnsureIndex("r3")
		plain := NewBag(testSchema(t))
		for i := 0; i < 150; i++ {
			tp := T(rng.Intn(8), "v", rng.Intn(4))
			n := rng.Intn(3) - 1
			indexed.Add(tp, n)
			plain.Add(tp, n)
		}
		for v := 0; v < 4; v++ {
			a := probeRows(t, indexed, "r3", Int(int64(v)))
			b := probeRows(t, plain, "r3", Int(int64(v)))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if !a[i].Tuple.Equal(b[i].Tuple) || a[i].Count != b[i].Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMemoryFootprintMonotone(t *testing.T) {
	r := NewSet(testSchema(t))
	before := r.MemoryFootprint()
	r.Insert(T(1, "abcdefg", 10))
	after := r.MemoryFootprint()
	if after <= before {
		t.Errorf("footprint should grow: %d -> %d", before, after)
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	got := s.String()
	if !strings.Contains(got, "*r1") || !strings.Contains(got, "r2 string") {
		t.Errorf("schema string: %s", got)
	}
}

func TestSameShape(t *testing.T) {
	a := MustSchema("A", []Attribute{{"x", KindInt}, {"y", KindString}})
	b := MustSchema("B", []Attribute{{"p", KindInt}, {"q", KindString}})
	c := MustSchema("C", []Attribute{{"p", KindString}, {"q", KindInt}})
	if !a.SameShape(b) {
		t.Errorf("same shapes should match")
	}
	if a.SameShape(c) {
		t.Errorf("different types should not match")
	}
}
