package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// modelRelation is the reference model a Relation is checked against: the
// row-oriented form the columnar store replaced, one entry per distinct
// tuple keyed by its canonical encoding (Tuple.Key), so Int and Float
// spellings of one number share an entry exactly as the columnar hash
// lookup must make them.
type modelRelation struct {
	sem  Semantics
	rows map[string]*Row
	card int
}

func newModelRelation(sem Semantics) *modelRelation {
	return &modelRelation{sem: sem, rows: make(map[string]*Row)}
}

// add is Relation.Add's contract: clamp the multiplicity at zero and, for
// sets, at one; return the applied change and the new multiplicity.
func (m *modelRelation) add(t Tuple, n int) (applied, count int) {
	key := t.Key()
	old := 0
	if r := m.rows[key]; r != nil {
		old = r.Count
	}
	target := max(old+n, 0)
	if m.sem == Set {
		target = min(target, 1)
	}
	switch {
	case target == 0:
		delete(m.rows, key)
	case old == 0:
		m.rows[key] = &Row{Tuple: t.Clone(), Count: target}
	default:
		m.rows[key].Count = target
	}
	m.card += target - old
	return target - old, target
}

// sorted returns the rows passing keep (nil keeps all) in Tuple.Compare
// order, with counts forced to 1 when distinct is set.
func (m *modelRelation) sorted(keep func(Tuple) bool, distinct bool) []Row {
	var out []Row
	for _, r := range m.rows {
		if keep == nil || keep(r.Tuple) {
			out = append(out, *r)
			if distinct {
				out[len(out)-1].Count = 1
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// render is Relation.String's format over the model's rows.
func (m *modelRelation) render(s *Schema, sem Semantics, rows []Row) string {
	var b strings.Builder
	card := 0
	for _, r := range rows {
		card += r.Count
	}
	fmt.Fprintf(&b, "%s [%s, %d distinct / %d total]\n", s, sem, len(rows), card)
	for _, r := range rows {
		b.WriteString("  " + r.Tuple.String())
		if r.Count != 1 {
			fmt.Fprintf(&b, " x%d", r.Count)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// footprint is the §5.3 accounting model MemoryFootprint implements,
// computed on the row form: per tuple its key length plus a 16-byte
// header, per value 24 bytes plus string bytes.
func (m *modelRelation) footprint() int {
	total := 0
	for key, r := range m.rows {
		total += len(key) + 16
		for _, v := range r.Tuple {
			total += 24
			if v.Kind() == KindString {
				total += len(v.AsString())
			}
		}
	}
	return total
}

// TestRelationMatchesModel drives a random operation stream into a
// Relation and the reference model and requires every observable to
// agree: each Add's applied change and new count, the deterministic
// render, cardinalities, footprint accounting, Equal/EqualAsSet, Count,
// clones, distinct, and probes through transient and resident join
// indexes against a filtered scan of the model.
func TestRelationMatchesModel(t *testing.T) {
	schema := MustSchema("X", []Attribute{
		{"a", KindInt}, {"b", KindString}, {"c", KindFloat},
	})
	for seed := int64(0); seed < 8; seed++ {
		for _, sem := range []Semantics{Set, Bag} {
			rng := rand.New(rand.NewSource(seed))
			r := New(schema, sem)
			m := newModelRelation(sem)
			randTuple := func() Tuple {
				var a Value
				// Mix int and float spellings of the same numbers, both
				// zeros, and a non-float-representable int64 so the
				// canonical-key equivalence is exercised.
				switch rng.Intn(5) {
				case 0:
					a = Int(int64(rng.Intn(6)))
				case 1:
					a = Float(float64(rng.Intn(6)))
				case 2:
					a = Int(math.MaxInt64 - 1)
				case 3:
					a = Float(math.Copysign(0, -1))
				default:
					a = Null()
				}
				return Tuple{a, Str(fmt.Sprintf("s%d", rng.Intn(4))), Float(float64(rng.Intn(3)))}
			}
			for i := 0; i < 300; i++ {
				tp := randTuple()
				n := rng.Intn(5) - 2
				ga, gn := r.Add(tp, n)
				wa, wn := m.add(tp, n)
				if ga != wa || gn != wn {
					t.Fatalf("seed %d sem %s op %d: Add(%s,%d) = (%d,%d), model (%d,%d)",
						seed, sem, i, tp, n, ga, gn, wa, wn)
				}
			}
			want := m.render(schema, sem, m.sorted(nil, false))
			if r.String() != want {
				t.Fatalf("seed %d sem %s: render diverges\ngot:\n%s\nmodel:\n%s", seed, sem, r, want)
			}
			if r.Len() != len(m.rows) || r.Card() != m.card {
				t.Fatalf("seed %d sem %s: len/card %d/%d, model %d/%d", seed, sem, r.Len(), r.Card(), len(m.rows), m.card)
			}
			if r.MemoryFootprint() != m.footprint() {
				t.Fatalf("seed %d sem %s: footprint %d, model %d", seed, sem, r.MemoryFootprint(), m.footprint())
			}
			rebuilt := New(schema, sem)
			for _, row := range m.rows {
				if r.Count(row.Tuple) != row.Count {
					t.Fatalf("seed %d sem %s: Count(%s) = %d, model %d", seed, sem, row.Tuple, r.Count(row.Tuple), row.Count)
				}
				rebuilt.Add(row.Tuple, row.Count)
			}
			if !r.Equal(rebuilt) || !rebuilt.Equal(r) || !r.EqualAsSet(rebuilt) || !rebuilt.EqualAsSet(r) {
				t.Fatalf("seed %d sem %s: Equal against the model's rows failed", seed, sem)
			}
			if got := r.Clone().String(); got != want {
				t.Fatalf("seed %d sem %s: clone diverges", seed, sem)
			}
			if got, want := r.Distinct().String(), m.render(schema, Set, m.sorted(nil, true)); got != want {
				t.Fatalf("seed %d sem %s: distinct diverges\ngot:\n%s\nmodel:\n%s", seed, sem, got, want)
			}
			indexed := r.Clone()
			if err := indexed.EnsureIndex("b"); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 4; v++ {
				key := Str(fmt.Sprintf("s%d", v))
				want := m.sorted(func(tp Tuple) bool { return tp[1].Equal(key) }, false)
				for name, rel := range map[string]*Relation{"transient": r, "resident": indexed} {
					got := probeRows(t, rel, "b", key)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d sem %s: %s probe b=%s = %v, model %v", seed, sem, name, key, got, want)
					}
				}
			}
		}
	}
}

// TestBlocksIndexedProbe exercises the index layer over the columnar
// store, including maintenance on delete.
func TestBlocksIndexedProbe(t *testing.T) {
	r := NewBag(MustSchema("R", []Attribute{{"k", KindInt}, {"v", KindString}}))
	if err := r.EnsureIndex("v"); err != nil {
		t.Fatal(err)
	}
	r.Insert(T(1, "a"))
	r.Insert(T(2, "a"))
	r.Add(T(2, "a"), 2)
	r.Insert(T(3, "b"))
	rows := probeRows(t, r, "v", Str("a"))
	if len(rows) != 2 {
		t.Fatalf("probe: %v", rows)
	}
	if rows[1].Count != 3 {
		t.Errorf("multiplicity through index: %d", rows[1].Count)
	}
	r.Add(T(1, "a"), -1)
	rows = probeRows(t, r, "v", Str("a"))
	if len(rows) != 1 || rows[0].Tuple[0].AsInt() != 2 {
		t.Errorf("index not maintained on delete: %v", rows)
	}
}

// TestNumericKeyEquivalence checks that Int and Float spellings of the
// same number collapse to one tuple, that -0 and +0 share an identity, and
// that canonical keys (Tuple.Key, what the reference model keys on) draw
// the same lines.
func TestNumericKeyEquivalence(t *testing.T) {
	r := NewBag(MustSchema("N", []Attribute{{"x", KindFloat}}))
	r.Add(Tuple{Int(2)}, 1)
	r.Add(Tuple{Float(2.0)}, 1)
	if r.Len() != 1 || r.Count(Tuple{Int(2)}) != 2 {
		t.Errorf("Int(2)/Float(2.0) should merge: len=%d", r.Len())
	}
	r.Add(Tuple{Float(math.Copysign(0, -1))}, 1)
	r.Add(Tuple{Float(0)}, 1)
	if r.Count(Tuple{Float(0)}) != 2 {
		t.Errorf("-0/+0 should merge: %d", r.Count(Tuple{Float(0)}))
	}
	// Non-representable int64s stay in integer form and must not
	// collide with their float rounding.
	big := int64(math.MaxInt64 - 1)
	r.Add(Tuple{Int(big)}, 1)
	r.Add(Tuple{Float(float64(big))}, 1)
	if r.Count(Tuple{Int(big)}) != 1 {
		t.Errorf("big int merged with its float rounding")
	}
	key := func(v Value) string { return Tuple{v}.Key() }
	if key(Int(2)) != key(Float(2.0)) || key(Float(math.Copysign(0, -1))) != key(Float(0)) ||
		key(Int(big)) == key(Float(float64(big))) {
		t.Errorf("Tuple.Key draws different equivalence lines than the columnar lookup")
	}
}

// TestColumnDemotion stores mixed kinds in one column: the adaptive
// specialization must demote to generic without losing data.
func TestColumnDemotion(t *testing.T) {
	schema := MustSchema("M", []Attribute{{"x", KindInt}})
	r := NewBag(schema)
	r.Insert(Tuple{Int(1)})
	r.Insert(Tuple{Int(2)})
	r.Insert(Tuple{Str("mixed")}) // schema lies; must still work
	r.Insert(Tuple{Bool(true)})
	r.Insert(Tuple{Null()})
	if r.Len() != 5 {
		t.Fatalf("len after mixed inserts: %d", r.Len())
	}
	for _, tp := range []Tuple{{Int(1)}, {Int(2)}, {Str("mixed")}, {Bool(true)}, {Null()}} {
		if r.Count(tp) != 1 {
			t.Errorf("lost %s after demotion", tp)
		}
	}
}

// TestTupleMapChurn hammers add/remove cycles to exercise tombstone reuse
// and rehash-with-purge, verifying against a shadow map.
func TestTupleMapChurn(t *testing.T) {
	m := NewTupleMap(2)
	shadow := make(map[string]int64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		tp := T(rng.Intn(50), rng.Intn(4))
		n := int64(rng.Intn(7) - 3)
		m.Add(tp, n, ModeSigned)
		k := tp.Key()
		shadow[k] += n
		if shadow[k] == 0 {
			delete(shadow, k)
		}
	}
	if m.Len() != len(shadow) {
		t.Fatalf("live=%d shadow=%d", m.Len(), len(shadow))
	}
	m.Each(func(tp Tuple, n int64) bool {
		if shadow[tp.Key()] != n {
			t.Errorf("count mismatch at %s: %d vs %d", tp, n, shadow[tp.Key()])
		}
		return true
	})
}

// TestTupleMapCloneIndependence verifies clones share nothing mutable.
func TestTupleMapCloneIndependence(t *testing.T) {
	m := NewTupleMap(1)
	m.Add(T("a"), 1, ModeBag)
	c := m.Clone()
	m.Add(T("a"), 5, ModeBag)
	m.Add(T("b"), 1, ModeBag)
	if c.Get(T("a")) != 1 || c.Get(T("b")) != 0 || c.Len() != 1 {
		t.Errorf("clone mutated: a=%d b=%d len=%d", c.Get(T("a")), c.Get(T("b")), c.Len())
	}
}

// TestAddFromProjected checks the vectorized projected insert against the
// tuple-wise path.
func TestAddFromProjected(t *testing.T) {
	src := NewTupleMap(3)
	src.Add(T(1, "x", 2.5), 2, ModeBag)
	src.Add(T(1, "y", 2.5), 3, ModeBag)
	dst := NewTupleMap(2)
	positions := []int{2, 0}
	src.EachSlot(func(s int32, n int64) bool {
		dst.AddFromProjected(src, s, positions, n, ModeBag)
		return true
	})
	if dst.Len() != 1 || dst.Get(T(2.5, 1)) != 5 {
		t.Errorf("projected merge: len=%d n=%d", dst.Len(), dst.Get(T(2.5, 1)))
	}
}

// TestCopyIntoAndProjectSelectInto checks the vectorized bulk helpers
// against hand-computed counts.
func TestCopyIntoAndProjectSelectInto(t *testing.T) {
	schema := MustSchema("S", []Attribute{{"a", KindInt}, {"b", KindString}})
	proj := MustSchema("P", []Attribute{{"b", KindString}})
	src := NewBag(schema)
	src.Add(T(1, "p"), 2)
	src.Add(T(2, "q"), 1)
	src.Add(T(3, "p"), 1)

	dst := NewBag(schema)
	dst.Add(T(1, "p"), 1)
	CopyInto(dst, src)
	if dst.Count(T(1, "p")) != 3 || dst.Card() != 5 {
		t.Errorf("CopyInto: count=%d card=%d", dst.Count(T(1, "p")), dst.Card())
	}

	out := NewBag(proj)
	err := ProjectSelectInto(out, src, []int{1}, predFunc(func(tp Tuple) (bool, error) {
		return tp[0].AsInt() != 2, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Count(T("p")) != 3 || out.Count(T("q")) != 0 || out.Card() != 3 {
		t.Errorf("ProjectSelectInto: p=%d q=%d card=%d", out.Count(T("p")), out.Count(T("q")), out.Card())
	}

	// Error propagation stops the scan.
	errOut := NewBag(proj)
	wantErr := fmt.Errorf("boom")
	if err := ProjectSelectInto(errOut, src, []int{1}, predFunc(func(Tuple) (bool, error) {
		return false, wantErr
	})); err != wantErr {
		t.Errorf("error not propagated: %v", err)
	}
}

// predFunc adapts a tuple test to Predicate (algebra.Compile cannot be
// imported here); its bound form materializes the slot's tuple.
type predFunc func(Tuple) (bool, error)

func (f predFunc) Eval(t Tuple) (bool, error) { return f(t) }

func (f predFunc) Bind(m *TupleMap) func(int32) (bool, error) {
	return func(s int32) (bool, error) { return f(m.AppendTupleAt(nil, s)) }
}
