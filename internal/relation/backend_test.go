package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withBackend runs the rest of the test with the process-default backend
// switched, restoring it afterward.
func withBackend(t *testing.T, b Backend) {
	t.Helper()
	prev := DefaultBackend()
	SetDefaultBackend(b)
	t.Cleanup(func() { SetDefaultBackend(prev) })
}

func TestBackendParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"blocks", Blocks, true},
		{"rows", Rows, true},
		{"columns", Blocks, false},
		{"", Blocks, false},
	} {
		got, err := ParseBackend(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if Blocks.String() != "blocks" || Rows.String() != "rows" {
		t.Errorf("Backend.String wrong: %s %s", Blocks, Rows)
	}
}

// TestCrossBackendEquivalence drives an identical random operation stream
// into a rows-backed and a blocks-backed relation and requires every
// observable — deterministic render, cardinalities, footprint accounting,
// probes, clones, distinct — to agree byte for byte.
func TestCrossBackendEquivalence(t *testing.T) {
	schema := MustSchema("X", []Attribute{
		{"a", KindInt}, {"b", KindString}, {"c", KindFloat},
	})
	for seed := int64(0); seed < 8; seed++ {
		for _, sem := range []Semantics{Set, Bag} {
			rng := rand.New(rand.NewSource(seed))
			rr := NewWith(schema, sem, Rows)
			rb := NewWith(schema, sem, Blocks)
			randTuple := func() Tuple {
				var a Value
				// Mix int and float spellings of the same numbers so the
				// canonical-key equivalence is exercised, plus a
				// non-float-representable int64.
				switch rng.Intn(4) {
				case 0:
					a = Int(int64(rng.Intn(6)))
				case 1:
					a = Float(float64(rng.Intn(6)))
				case 2:
					a = Int(math.MaxInt64 - 1)
				default:
					a = Null()
				}
				return Tuple{a, Str(fmt.Sprintf("s%d", rng.Intn(4))), Float(float64(rng.Intn(3)))}
			}
			for i := 0; i < 300; i++ {
				tp := randTuple()
				n := rng.Intn(5) - 2
				ar, nr := rr.Add(tp, n)
				ab, nb := rb.Add(tp, n)
				if ar != ab || nr != nb {
					t.Fatalf("seed %d sem %s op %d: Add(%s,%d) rows=(%d,%d) blocks=(%d,%d)",
						seed, sem, i, tp, n, ar, nr, ab, nb)
				}
			}
			if rr.String() != rb.String() {
				t.Fatalf("seed %d sem %s: renders diverge\nrows:\n%s\nblocks:\n%s",
					seed, sem, rr.String(), rb.String())
			}
			if rr.Len() != rb.Len() || rr.Card() != rb.Card() {
				t.Fatalf("seed %d: len/card diverge", seed)
			}
			if rr.MemoryFootprint() != rb.MemoryFootprint() {
				t.Fatalf("seed %d: footprint accounting diverges: rows=%d blocks=%d",
					seed, rr.MemoryFootprint(), rb.MemoryFootprint())
			}
			if !rr.Equal(rb) || !rb.Equal(rr) || !rr.EqualAsSet(rb) || !rb.EqualAsSet(rr) {
				t.Fatalf("seed %d: cross-backend Equal failed", seed)
			}
			if got := rb.Clone(); got.Backend() != Blocks || got.String() != rr.String() {
				t.Fatalf("seed %d: blocks clone diverges", seed)
			}
			if rr.Distinct().String() != rb.Distinct().String() {
				t.Fatalf("seed %d: distinct diverges", seed)
			}
			for v := 0; v < 4; v++ {
				pr := probeRows(t, rr, "b", Str(fmt.Sprintf("s%d", v)))
				pb := probeRows(t, rb, "b", Str(fmt.Sprintf("s%d", v)))
				if len(pr) != len(pb) {
					t.Fatalf("seed %d: probe diverges: %d %d", seed, len(pr), len(pb))
				}
				for i := range pr {
					if !pr[i].Tuple.Equal(pb[i].Tuple) || pr[i].Count != pb[i].Count {
						t.Fatalf("seed %d: probe row %d diverges", seed, i)
					}
				}
			}
		}
	}
}

// TestBlocksIndexedProbe exercises the index layer over the columnar
// backend, including maintenance on delete.
func TestBlocksIndexedProbe(t *testing.T) {
	withBackend(t, Blocks)
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
// same number collapse to one tuple on both backends, and that -0 and +0
// share an identity (the rows backend's canonical key semantics).
func TestNumericKeyEquivalence(t *testing.T) {
	schema := MustSchema("N", []Attribute{{"x", KindFloat}})
	for _, bk := range []Backend{Rows, Blocks} {
		r := NewWith(schema, Bag, bk)
		r.Add(Tuple{Int(2)}, 1)
		r.Add(Tuple{Float(2.0)}, 1)
		if r.Len() != 1 || r.Count(Tuple{Int(2)}) != 2 {
			t.Errorf("%s: Int(2)/Float(2.0) should merge: len=%d", bk, r.Len())
		}
		r.Add(Tuple{Float(math.Copysign(0, -1))}, 1)
		r.Add(Tuple{Float(0)}, 1)
		if r.Count(Tuple{Float(0)}) != 2 {
			t.Errorf("%s: -0/+0 should merge: %d", bk, r.Count(Tuple{Float(0)}))
		}
		// Non-representable int64s stay in integer form and must not
		// collide with their float rounding.
		big := int64(math.MaxInt64 - 1)
		r.Add(Tuple{Int(big)}, 1)
		r.Add(Tuple{Float(float64(big))}, 1)
		if r.Count(Tuple{Int(big)}) != 1 {
			t.Errorf("%s: big int merged with its float rounding", bk)
		}
	}
}

// TestColumnDemotion stores mixed kinds in one column: the adaptive
// specialization must demote to generic without losing data.
func TestColumnDemotion(t *testing.T) {
	withBackend(t, Blocks)
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
// against the scalar path on both backends.
func TestCopyIntoAndProjectSelectInto(t *testing.T) {
	schema := MustSchema("S", []Attribute{{"a", KindInt}, {"b", KindString}})
	proj := MustSchema("P", []Attribute{{"b", KindString}})
	for _, bk := range []Backend{Rows, Blocks} {
		src := NewWith(schema, Bag, bk)
		src.Add(T(1, "p"), 2)
		src.Add(T(2, "q"), 1)
		src.Add(T(3, "p"), 1)

		dst := NewWith(schema, Bag, bk)
		dst.Add(T(1, "p"), 1)
		CopyInto(dst, src)
		if dst.Count(T(1, "p")) != 3 || dst.Card() != 5 {
			t.Errorf("%s: CopyInto: count=%d card=%d", bk, dst.Count(T(1, "p")), dst.Card())
		}

		out := NewWith(proj, Bag, bk)
		err := ProjectSelectInto(out, src, []int{1}, predFunc(func(tp Tuple) (bool, error) {
			return tp[0].AsInt() != 2, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Count(T("p")) != 3 || out.Count(T("q")) != 0 || out.Card() != 3 {
			t.Errorf("%s: ProjectSelectInto: p=%d q=%d card=%d",
				bk, out.Count(T("p")), out.Count(T("q")), out.Card())
		}

		// Error propagation stops the scan.
		errOut := NewWith(proj, Bag, bk)
		wantErr := fmt.Errorf("boom")
		if err := ProjectSelectInto(errOut, src, []int{1}, predFunc(func(Tuple) (bool, error) {
			return false, wantErr
		})); err != wantErr {
			t.Errorf("%s: error not propagated: %v", bk, err)
		}
	}
}

// predFunc adapts a tuple test to Predicate (algebra.Compile cannot be
// imported here); its bound form materializes the slot's tuple.
type predFunc func(Tuple) (bool, error)

func (f predFunc) Eval(t Tuple) (bool, error) { return f(t) }

func (f predFunc) Bind(m *TupleMap) func(int32) (bool, error) {
	return func(s int32) (bool, error) { return f(m.AppendTupleAt(nil, s)) }
}
