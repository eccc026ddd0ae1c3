package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// scanSlots is the brute-force oracle: the live slots of m whose cols
// equal key, by walking every slot.
func scanSlots(m *TupleMap, cols []int, key []Value) []int32 {
	var out []int32
	m.EachSlot(func(s int32, _ int64) bool {
		for i, c := range cols {
			if !m.cols[c].keyEqualAt(int(s), key[i]) {
				return true
			}
		}
		out = append(out, s)
		return true
	})
	return out
}

func probeSlots(ix *JoinIndex, key []Value) []int32 {
	var out []int32
	for s := ix.First(key); s >= 0; s = ix.Next(s, key) {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// assertIndexesMatchScan compares every resident index of m with the scan
// oracle over a key domain that covers hits, misses and mixed numerics.
func assertIndexesMatchScan(t *testing.T, m *TupleMap, domain []Value, ctx string) {
	t.Helper()
	for _, ix := range m.indexes {
		if ix.m != m {
			t.Fatalf("%s: index %v points at a foreign map", ctx, ix.cols)
		}
		if err := ix.check(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		key := make([]Value, len(ix.cols))
		var walk func(i int)
		walk = func(i int) {
			if i == len(key) {
				got, want := probeSlots(ix, key), scanSlots(m, ix.cols, key)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: index %v key %v: probe %v, scan %v", ctx, ix.cols, key, got, want)
				}
				return
			}
			for _, v := range domain {
				key[i] = v
				walk(i + 1)
			}
		}
		walk(0)
	}
}

// TestIndexLockstep drives random add / delete / tombstone-reuse / rehash
// / Clone / Clear streams through an indexed TupleMap and checks every
// index against the scan after each phase. The value mix forces column
// demotion (ints, then a float, a string and a null in an int column) and
// the population outgrows the initial table and bucket arrays several
// times. Clones are probed from other goroutines while the original keeps
// mutating, so -race sees any slice the two still share.
func TestIndexLockstep(t *testing.T) {
	domain := []Value{Int(0), Int(1), Int(2), Int(3), Float(2), Float(2.5), Str("x"), Null(), Int(99)}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewTupleMap(3)
		m.EnsureIndex([]int{1})
		m.EnsureIndex([]int{2, 1})
		randVal := func(wild bool) Value {
			if wild && rng.Intn(40) == 0 {
				return domain[4+rng.Intn(4)]
			}
			return Int(int64(rng.Intn(4)))
		}
		done := make(chan struct{})
		readers := 0
		for step := 0; step < 1500; step++ {
			wild := step > 500 // typed columns first, demotion later
			tp := Tuple{Int(int64(rng.Intn(300))), randVal(wild), randVal(wild)}
			switch op := rng.Intn(100); {
			case op < 55:
				m.Add(tp, int64(1+rng.Intn(2)), ModeBag)
			case op < 90:
				m.Add(tp, -int64(1+rng.Intn(3)), ModeBag) // frees slots for reuse
			case op < 94:
				m.Add(tp, int64(rng.Intn(2)), ModeAssign)
			case op < 97:
				frozen := m.Clone()
				assertIndexesMatchScan(t, frozen, domain, fmt.Sprintf("seed %d step %d clone", seed, step))
				readers++
				go func() {
					defer func() { done <- struct{}{} }()
					for _, ix := range frozen.indexes {
						if err := ix.check(); err != nil {
							t.Error(err)
						}
					}
				}()
				if rng.Intn(2) == 0 {
					m = m.Clone() // continue on the copy: the writer path of store.Builder.Mutable
				}
			case op < 98:
				m.Clear()
			default:
				m.EnsureIndex([]int{0}) // late declaration over existing rows; idempotent afterwards
			}
			if step%50 == 0 {
				assertIndexesMatchScan(t, m, domain, fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
		assertIndexesMatchScan(t, m, domain, fmt.Sprintf("seed %d end", seed))
		for ; readers > 0; readers-- {
			<-done
		}
	}
}

// TestIndexSurvivesRelationLifecycle pins the property the old index
// lacked: declarations and contents survive Clone and Clear, the
// and the vectorized AddSlot / CopyInto / ProjectSelectInto paths maintain
// them.
func TestIndexSurvivesRelationLifecycle(t *testing.T) {
	schema := MustSchema("R", []Attribute{{"k", KindInt}, {"j", KindInt}})
	r := New(schema, Bag)
	if err := r.EnsureIndex("j"); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureIndex("nope"); err == nil {
		t.Error("index on unknown attribute should fail")
	}
	src := New(schema, Bag)
	for i := 0; i < 100; i++ {
		src.Add(T(i, i%7), 1)
	}
	CopyInto(r, src)
	if err := ProjectSelectInto(r, src, []int{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	src.tm.EachSlot(func(s int32, _ int64) bool { r.AddSlot(src.tm, s, -1); return true })
	c := r.Clone()
	c.Add(T(1000, 3), 1)
	for name, rel := range map[string]*Relation{"original": r, "clone": c} {
		if got := fmt.Sprint(rel.IndexedAttrs()); got != "[[j]]" {
			t.Errorf("%s: indexed attrs %s", name, got)
		}
		if err := rel.CheckIndexes(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got, want := len(probeRows(t, c, "j", Int(3))), len(probeRows(t, r, "j", Int(3)))+1; got != want {
		t.Errorf("clone probe: %d rows, want %d", got, want)
	}
	c.Clear()
	c.Add(T(5, 3), 2)
	if rows := probeRows(t, c, "j", Int(3)); len(rows) != 1 || rows[0].Count != 2 || c.CheckIndexes() != nil {
		t.Errorf("after Clear: %v", rows)
	}
}

// The probe and the maintained vectorized add are on the per-atom path of
// every rule firing and every store apply: both must stay off the heap.
func TestIndexProbeZeroAllocs(t *testing.T) {
	m := NewTupleMap(2)
	m.EnsureIndex([]int{1})
	for i := 0; i < 1000; i++ {
		m.Add(T(i, i%50), 1, ModeBag)
	}
	ix := m.IndexOn([]int{1})
	key := []Value{Int(7)}
	if allocs := testing.AllocsPerRun(200, func() {
		n := 0
		for s := ix.First(key); s >= 0; s = ix.Next(s, key) {
			n++
		}
		if n != 20 {
			t.Fatalf("probe found %d rows", n)
		}
	}); allocs != 0 {
		t.Errorf("index probe: %v allocs/op, want 0", allocs)
	}
}

func TestIndexedAddFromZeroAllocs(t *testing.T) {
	dst := NewTupleMap(2)
	dst.EnsureIndex([]int{1})
	src := NewTupleMap(2)
	for i := 0; i < 64; i++ {
		src.Add(T(i, i%5), 1, ModeSigned)
	}
	churn := func() {
		src.EachSlot(func(s int32, _ int64) bool { dst.AddFrom(src, s, 1, ModeBag); return true })
		src.EachSlot(func(s int32, _ int64) bool { dst.AddFrom(src, s, -1, ModeBag); return true })
	}
	churn() // warm: column growth, free list, bucket array
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("indexed AddFrom insert/delete: %v allocs/op, want 0", allocs)
	}
}
