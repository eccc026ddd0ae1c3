package delta

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

func schemaR(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema("R",
		[]relation.Attribute{{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
}

func randDelta(rng *rand.Rand, rel string, n int) *RelDelta {
	d := NewRel(rel)
	for i := 0; i < n; i++ {
		d.Add(relation.T(rng.Intn(12), rng.Intn(5)), rng.Intn(7)-3)
	}
	return d
}

func randBag(rng *rand.Rand, s *relation.Schema, n int) *relation.Relation {
	r := relation.NewBag(s)
	for i := 0; i < n; i++ {
		r.Add(relation.T(rng.Intn(12), rng.Intn(5)), rng.Intn(3)+1)
	}
	return r
}

func TestInsertDeleteAnnihilate(t *testing.T) {
	d := NewRel("R")
	tp := relation.T(1, 2)
	d.Insert(tp)
	d.Delete(tp)
	if !d.IsEmpty() {
		t.Fatalf("insert+delete should annihilate: %s", d)
	}
}

func TestCountAndCard(t *testing.T) {
	d := NewRel("R")
	d.Add(relation.T(1, 1), 3)
	d.Add(relation.T(2, 2), -2)
	if d.Count(relation.T(1, 1)) != 3 || d.Count(relation.T(2, 2)) != -2 || d.Count(relation.T(9, 9)) != 0 {
		t.Errorf("counts wrong")
	}
	if d.Card() != 5 || d.Len() != 2 {
		t.Errorf("card=%d len=%d", d.Card(), d.Len())
	}
}

func TestInsertionsDeletions(t *testing.T) {
	d := NewRel("R")
	d.Add(relation.T(1, 1), 2)
	d.Add(relation.T(2, 2), -1)
	ins, del := d.Insertions(), d.Deletions()
	if len(ins) != 1 || ins[0].Count != 2 {
		t.Errorf("insertions: %v", ins)
	}
	if len(del) != 1 || del[0].Count != 1 {
		t.Errorf("deletions: %v", del)
	}
}

// smashLaw: apply(db, Δ1 ! Δ2) == apply(apply(db, Δ1), Δ2) — the
// defining smash law.
func smashLaw(t *testing.T, rng *rand.Rand) bool {
	s := schemaR(t)
	db := randBag(rng, s, 10)
	d1 := randDelta(rng, "R", 8)
	d2 := randDelta(rng, "R", 8)

	// Left side: smash then apply (clamped, since random deltas may underflow).
	left := db.Clone()
	sm := d1.Clone()
	sm.Smash(d2)
	// Right side: apply sequentially.
	right := db.Clone()
	d1.ApplyTo(right, false)
	d2.ApplyTo(right, false)

	sm.ApplyTo(left, false)
	// NOTE: with clamping, smash law can differ when intermediate
	// underflow occurs; restrict to non-underflowing runs.
	chk := db.Clone()
	if err := d1.ApplyTo(chk, true); err != nil {
		return true // skip: d1 underflows, law not required
	}
	if err := d2.ApplyTo(chk, true); err != nil {
		return true
	}
	return left.Equal(right)
}

// inverseLaw: apply(apply(db, Δ), Δ⁻¹) == db for deltas that are
// non-redundant on db.
func inverseLaw(t *testing.T, rng *rand.Rand) bool {
	s := schemaR(t)
	db := randBag(rng, s, 10)
	d := randDelta(rng, "R", 8)
	work := db.Clone()
	if err := d.ApplyTo(work, true); err != nil {
		return true // redundant on db; law not required
	}
	if err := d.Inverse().ApplyTo(work, true); err != nil {
		return false
	}
	return work.Equal(db)
}

// inverseOfSmashLaw: (Δ1!Δ2)⁻¹ == Δ2⁻¹!Δ1⁻¹
func inverseOfSmashLaw(t *testing.T, rng *rand.Rand) bool {
	d1 := randDelta(rng, "R", 6)
	d2 := randDelta(rng, "R", 6)
	left := d1.Clone()
	left.Smash(d2)
	left = left.Inverse()
	right := d2.Inverse()
	right.Smash(d1.Inverse())
	return left.Equal(right)
}

// selectProjectCommuteLaw: selection and projection commute with apply:
// π/σ(apply(R,Δ)) == apply(π/σ(R), π/σ(Δ))
func selectProjectCommuteLaw(t *testing.T, rng *rand.Rand) bool {
	s := schemaR(t)
	pred := algebra.Compile(algebra.Lt(algebra.A("b"), algebra.CInt(3)), s)
	db := randBag(rng, s, 10)
	d := randDelta(rng, "R", 8)

	// Left: apply then transform.
	applied := db.Clone()
	d.ApplyTo(applied, false)
	leftSel := relation.NewBag(s)
	applied.Each(func(tp relation.Tuple, n int) bool {
		if ok, _ := pred.Eval(tp); ok {
			leftSel.Add(tp, n)
		}
		return true
	})

	// Right: transform both then apply. Must use clamp-free runs.
	chk := db.Clone()
	if err := d.ApplyTo(chk, true); err != nil {
		return true // skip: clamping breaks commutation, law not required
	}
	rightSel := relation.NewBag(s)
	db.Each(func(tp relation.Tuple, n int) bool {
		if ok, _ := pred.Eval(tp); ok {
			rightSel.Add(tp, n)
		}
		return true
	})
	ds, err := d.Select(pred)
	if err != nil {
		t.Fatal(err)
	}
	ds.ApplyTo(rightSel, false)
	if !leftSel.Equal(rightSel) {
		t.Logf("select does not commute with apply")
		return false
	}

	// Projection onto position 0 (bag projection).
	proj := []int{0}
	pSchema := relation.MustSchema("P", []relation.Attribute{{Name: "a", Type: relation.KindInt}})
	leftP := relation.NewBag(pSchema)
	applied.Each(func(tp relation.Tuple, n int) bool {
		leftP.Add(tp.Project(proj), n)
		return true
	})
	rightP := relation.NewBag(pSchema)
	db.Each(func(tp relation.Tuple, n int) bool {
		rightP.Add(tp.Project(proj), n)
		return true
	})
	d.Project("P", proj).ApplyTo(rightP, false)
	if !leftP.Equal(rightP) {
		t.Logf("project does not commute with apply")
		return false
	}
	return true
}

// TestDeltaLaws is the shared table-driven harness: every algebraic law
// runs over a spread of random seeds, so a kernel that breaks one fails
// here before the end-to-end oracle ever sees it.
func TestDeltaLaws(t *testing.T) {
	laws := []struct {
		name  string
		seeds int
		check func(t *testing.T, rng *rand.Rand) bool
	}{
		{"smash", 80, smashLaw},
		{"inverse", 80, inverseLaw},
		{"inverse-of-smash", 20, inverseOfSmashLaw},
		{"select-project-commute", 30, selectProjectCommuteLaw},
	}
	for _, law := range laws {
		law := law
		t.Run(law.name, func(t *testing.T) {
			// The subtest names the representation the law runs on: the
			// columnar blocks form, the only one (the row form lives on
			// as TestDeltaMatchesModel's reference model).
			t.Run("backend=blocks", func(t *testing.T) {
				for seed := 0; seed < law.seeds; seed++ {
					rng := rand.New(rand.NewSource(int64(seed)))
					if !law.check(t, rng) {
						t.Fatalf("law %s failed at seed %d", law.name, seed)
					}
				}
			})
		})
	}
}

// modelDelta is the reference model a RelDelta is checked against: one
// signed count per distinct tuple, keyed by Tuple.Key, entries at zero
// removed.
type modelDelta map[string]*relation.Row

func (m modelDelta) add(t relation.Tuple, n int) {
	key := t.Key()
	if m[key] == nil {
		m[key] = &relation.Row{Tuple: t.Clone()}
	}
	if m[key].Count += n; m[key].Count == 0 {
		delete(m, key)
	}
}

// derive builds a new model from m's entries: f returns the tuple and
// signed count each entry contributes (count 0 drops it).
func (m modelDelta) derive(f func(relation.Tuple, int) (relation.Tuple, int)) modelDelta {
	out := modelDelta{}
	for _, r := range m {
		if t, n := f(r.Tuple, r.Count); n != 0 {
			out.add(t, n)
		}
	}
	return out
}

// render is RelDelta.String's format over the model's entries.
func (m modelDelta) render(rel string) string {
	rows := make([]relation.Row, 0, len(m))
	atoms := 0
	for _, r := range m {
		rows = append(rows, *r)
		atoms += max(r.Count, -r.Count)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
	var b strings.Builder
	fmt.Fprintf(&b, "Δ%s [%d atoms]\n", rel, atoms)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %+d %s\n", r.Count, r.Tuple)
	}
	return b.String()
}

// TestDeltaMatchesModel drives a random delta program into a RelDelta and
// the reference model and requires identical renders through Card,
// Inverse, Project, Select, Distinct, Smash and SmashSet, plus strict
// ApplyTo into set and bag relations: the same redundancy verdict and, when
// the apply is exact, the clamped counts the model predicts.
func TestDeltaMatchesModel(t *testing.T) {
	s := schemaR(t)
	pred := algebra.Compile(algebra.Lt(algebra.A("b"), algebra.CInt(3)), s)
	sign := func(n int) int { return max(min(n, 1), -1) }
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Int and Float spellings of one number must share an atom.
		stream := func(d *RelDelta, m modelDelta, n int) {
			for i := 0; i < n; i++ {
				a := relation.Int(int64(rng.Intn(12)))
				if rng.Intn(3) == 0 {
					a = relation.Float(a.AsFloat())
				}
				tp, k := relation.Tuple{a, relation.Int(int64(rng.Intn(5)))}, rng.Intn(7)-3
				d.Add(tp, k)
				m.add(tp, k)
			}
		}
		d, m := NewRel("R"), modelDelta{}
		stream(d, m, 120)
		check := func(what string, got *RelDelta, want modelDelta) {
			t.Helper()
			if got.String() != want.render(got.Rel()) || got.Len() != len(want) {
				t.Fatalf("seed %d: %s diverges\ngot:\n%s\nmodel:\n%s", seed, what, got, want.render(got.Rel()))
			}
			rebuilt := NewRel(got.Rel())
			for _, r := range want {
				rebuilt.Add(r.Tuple, r.Count)
			}
			if !got.Equal(rebuilt) || !rebuilt.Equal(got) {
				t.Fatalf("seed %d: %s: Equal against the model's atoms failed", seed, what)
			}
		}
		check("delta", d, m)
		check("clone", d.Clone(), m)
		check("inverse", d.Inverse(), m.derive(func(t relation.Tuple, n int) (relation.Tuple, int) { return t, -n }))
		check("project", d.Project("P", []int{1}), m.derive(func(t relation.Tuple, n int) (relation.Tuple, int) {
			return t.Project([]int{1}), n
		}))
		sel, err := d.Select(pred)
		if err != nil {
			t.Fatal(err)
		}
		check("select", sel, m.derive(func(t relation.Tuple, n int) (relation.Tuple, int) {
			if ok, _ := pred.Eval(t); !ok {
				return t, 0
			}
			return t, n
		}))

		old := randBag(rng, s, 10)
		check("distinct", d.Distinct(old), m.derive(func(t relation.Tuple, n int) (relation.Tuple, int) {
			before := old.Count(t)
			after := max(before+n, 0)
			switch {
			case before == 0 && after > 0:
				return t, 1
			case before > 0 && after == 0:
				return t, -1
			}
			return t, 0
		}))

		d2, m2 := NewRel("R"), modelDelta{}
		stream(d2, m2, 30)
		same := func(t relation.Tuple, n int) (relation.Tuple, int) { return t, n }
		sm, smM := d.Clone(), m.derive(same)
		sm.Smash(d2)
		for _, r := range m2 {
			smM.add(r.Tuple, r.Count)
		}
		check("smash", sm, smM)
		ss, ssM := d.Clone(), m.derive(same)
		ss.SmashSet(d2)
		for _, r := range m2 {
			if cur := ssM[r.Tuple.Key()]; cur != nil {
				cur.Count = sign(r.Count) // override keeps the stored spelling
			} else {
				ssM.add(r.Tuple, sign(r.Count))
			}
		}
		check("smash-set", ss, ssM)

		for _, sem := range []relation.Semantics{relation.Set, relation.Bag} {
			rel := relation.New(s, sem)
			for _, r := range randBag(rng, s, 10).Rows() {
				rel.Add(r.Tuple, r.Count)
			}
			// Apply a small delta so both exact and redundant outcomes occur.
			small, smallM := NewRel("R"), modelDelta{}
			stream(small, smallM, 3)
			exact := true
			want := map[string]int{}
			for key, r := range smallM {
				before := rel.Count(r.Tuple)
				after := max(before+r.Count, 0)
				if sem == relation.Set {
					after = min(after, 1)
				}
				exact = exact && after-before == r.Count
				want[key] = after
			}
			got := rel.Clone()
			err := small.ApplyTo(got, true)
			if (err == nil) != exact {
				t.Fatalf("seed %d %s: strict ApplyTo err = %v, model exact = %v\n%s", seed, sem, err, exact, small)
			}
			if !exact {
				got = rel.Clone()
				if err := small.ApplyTo(got, false); err != nil {
					t.Fatal(err)
				}
			}
			card := rel.Card()
			for key, r := range smallM {
				card += want[key] - rel.Count(r.Tuple)
				if got.Count(r.Tuple) != want[key] {
					t.Fatalf("seed %d %s: ApplyTo left %s at %d, model %d", seed, sem, r.Tuple, got.Count(r.Tuple), want[key])
				}
			}
			if got.Card() != card {
				t.Fatalf("seed %d %s: ApplyTo card %d, model %d", seed, sem, got.Card(), card)
			}
		}
	}
}

func TestApplyStrictDetectsRedundancy(t *testing.T) {
	s := schemaR(t)
	set := relation.NewSet(s)
	set.Insert(relation.T(1, 1))
	d := NewRel("R")
	d.Insert(relation.T(1, 1)) // redundant insertion
	if err := d.ApplyTo(set, true); err == nil {
		t.Errorf("strict apply must reject redundant insertion into set")
	}
	bag := relation.NewBag(s)
	d2 := NewRel("R")
	d2.Delete(relation.T(5, 5)) // deleting absent tuple
	if err := d2.ApplyTo(bag, true); err == nil {
		t.Errorf("strict apply must reject underflow deletion")
	}
	if err := d2.ApplyTo(bag, false); err != nil {
		t.Errorf("clamped apply should not error: %v", err)
	}
}

// TestAddArityMismatchPanics: a tuple of the wrong arity is a caller bug,
// never a silently truncated atom.
func TestAddArityMismatchPanics(t *testing.T) {
	d := NewRel("R")
	d.Add(relation.T(1, 2), 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("adding a 3-tuple to a 2-ary delta must panic; delta now %s", d)
			}
		}()
		d.Add(relation.T(3, 4, 5), 1)
	}()
	if d.Len() != 1 || d.Count(relation.T(1, 2)) != 1 {
		t.Errorf("delta after the refused add: %s", d)
	}
}

func TestApplyToArityMismatch(t *testing.T) {
	rel := relation.NewSet(schemaR(t))
	rel.Insert(relation.T(1, 1))
	d := NewRel("R")
	d.Insert(relation.T(7))
	for _, strict := range []bool{true, false} {
		if err := d.ApplyTo(rel, strict); err == nil {
			t.Errorf("strict=%v: a 1-ary delta must not apply to a 2-ary relation", strict)
		}
	}
	if rel.Card() != 1 {
		t.Errorf("relation changed by a refused apply: %s", rel)
	}
}

func TestSmashSetOverride(t *testing.T) {
	// Paper/HJ91: Δ1 ! Δ2 = union with conflicting atoms of Δ1 removed.
	d1 := NewRel("R")
	d1.Insert(relation.T(1, 1))
	d2 := NewRel("R")
	d2.Delete(relation.T(1, 1))
	d1.SmashSet(d2)
	if d1.Count(relation.T(1, 1)) != -1 {
		t.Errorf("override smash: later delete must win, got %d", d1.Count(relation.T(1, 1)))
	}
	// Additive smash annihilates instead; both agree under apply for
	// non-redundant sequences (insert then delete of a tuple absent in db).
	db := relation.NewSet(schemaR(t))
	a := db.Clone()
	add := NewRel("R")
	add.Insert(relation.T(1, 1))
	add.Smash(func() *RelDelta { x := NewRel("R"); x.Delete(relation.T(1, 1)); return x }())
	add.ApplyTo(a, false)
	b := db.Clone()
	d1.ApplyTo(b, false)
	if !a.Equal(b) {
		t.Errorf("additive and override smash disagree under apply")
	}
}

func TestDistinctDelta(t *testing.T) {
	s := schemaR(t)
	old := relation.NewBag(s)
	old.Add(relation.T(1, 1), 2) // stays positive after -1 => no set-level change
	old.Add(relation.T(2, 2), 1) // drops to 0 => set-level delete
	d := NewRel("R")
	d.Add(relation.T(1, 1), -1)
	d.Add(relation.T(2, 2), -1)
	d.Add(relation.T(3, 3), 2) // appears => set-level insert
	dd := d.Distinct(old)
	if dd.Count(relation.T(1, 1)) != 0 {
		t.Errorf("no transition for (1,1)")
	}
	if dd.Count(relation.T(2, 2)) != -1 {
		t.Errorf("expected -1 for (2,2), got %d", dd.Count(relation.T(2, 2)))
	}
	if dd.Count(relation.T(3, 3)) != 1 {
		t.Errorf("expected +1 for (3,3), got %d", dd.Count(relation.T(3, 3)))
	}
}

func TestDiff(t *testing.T) {
	s := schemaR(t)
	a := relation.NewBag(s)
	a.Add(relation.T(1, 1), 2)
	a.Add(relation.T(2, 2), 1)
	b := relation.NewBag(s)
	b.Add(relation.T(1, 1), 1)
	b.Add(relation.T(3, 3), 1)
	d := Diff("R", a, b)
	got := a.Clone()
	if err := d.ApplyTo(got, true); err != nil {
		t.Fatalf("diff must be exact: %v", err)
	}
	if !got.Equal(b) {
		t.Fatalf("apply(a, Diff(a,b)) != b")
	}
}

func TestDiffProperty(t *testing.T) {
	s := schemaR(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randBag(rng, s, 12)
		b := randBag(rng, s, 12)
		d := Diff("R", a, b)
		got := a.Clone()
		if err := d.ApplyTo(got, true); err != nil {
			return false
		}
		return got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMultiDelta(t *testing.T) {
	d := New()
	d.Insert("R", relation.T(1, 1))
	d.Delete("S", relation.T(2, 2))
	if got := d.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("Relations = %v", got)
	}
	if d.IsEmpty() || d.Card() != 2 {
		t.Errorf("card = %d", d.Card())
	}
	c := d.Clone()
	if !c.Equal(d) {
		t.Errorf("clone differs")
	}
	inv := d.Inverse()
	if inv.Rel("R").Count(relation.T(1, 1)) != -1 || inv.Rel("S").Count(relation.T(2, 2)) != 1 {
		t.Errorf("inverse wrong: %s", inv)
	}
	f := d.Filter("R")
	if len(f.Relations()) != 1 || f.Relations()[0] != "R" {
		t.Errorf("filter wrong: %v", f.Relations())
	}
}

func TestMultiDeltaApplyToCatalog(t *testing.T) {
	s := schemaR(t)
	r := relation.NewBag(s)
	d := New()
	d.Insert("R", relation.T(1, 1))
	d.Insert("MISSING", relation.T(2, 2)) // skipped: not in catalog
	if err := d.ApplyTo(map[string]*relation.Relation{"R": r}, true); err != nil {
		t.Fatal(err)
	}
	if r.Card() != 1 {
		t.Errorf("catalog apply failed")
	}
}

func TestMultiSmashAndSmashed(t *testing.T) {
	d1 := New()
	d1.Insert("R", relation.T(1, 1))
	d2 := New()
	d2.Delete("R", relation.T(1, 1))
	d2.Insert("S", relation.T(9, 9))
	out := Smashed(d1, d2, nil)
	if out.Get("R") != nil {
		t.Errorf("R atoms should annihilate")
	}
	if out.Rel("S").Count(relation.T(9, 9)) != 1 {
		t.Errorf("S atom missing")
	}
	// arguments untouched
	if d1.IsEmpty() {
		t.Errorf("Smashed must not mutate inputs")
	}
}

func TestGetPut(t *testing.T) {
	d := New()
	if d.Get("R") != nil {
		t.Errorf("Get on empty must be nil")
	}
	rd := NewRel("R")
	rd.Insert(relation.T(1, 1))
	d.Put(rd)
	if d.Get("R") == nil {
		t.Errorf("Put then Get")
	}
	d.Put(NewRel("R")) // empty replaces => removed
	if d.Get("R") != nil {
		t.Errorf("Put empty should remove")
	}
}

func TestValidate(t *testing.T) {
	d := NewRel("R")
	d.Add(relation.T(1, 1), 2)
	if err := d.Validate(false); err != nil {
		t.Errorf("bag validate: %v", err)
	}
	if err := d.Validate(true); err == nil {
		t.Errorf("set validate must reject count 2")
	}
}

func TestRenamedAndFromRows(t *testing.T) {
	d := FromRows("R", relation.Row{Tuple: relation.T(1, 1), Count: 2})
	r := d.Renamed("R2")
	if r.Rel() != "R2" || r.Count(relation.T(1, 1)) != 2 {
		t.Errorf("renamed wrong")
	}
	if d.Rel() != "R" {
		t.Errorf("original mutated")
	}
}

func TestRelDeltaString(t *testing.T) {
	d := NewRel("R")
	d.Insert(relation.T(1, 2))
	s := d.String()
	if s == "" || d.Rows()[0].Count != 1 {
		t.Errorf("string/rows: %q", s)
	}
	md := New()
	if md.String() != "Δ∅\n" {
		t.Errorf("empty multi delta string: %q", md.String())
	}
}

func TestEachEarlyStop(t *testing.T) {
	d := NewRel("R")
	d.Insert(relation.T(1, 1))
	d.Insert(relation.T(2, 2))
	seen := 0
	d.Each(func(relation.Tuple, int) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("Each must stop early: %d", seen)
	}
	md := New()
	md.Add("R", relation.T(3, 3), 2)
	if md.Rel("R").Count(relation.T(3, 3)) != 2 {
		t.Errorf("multi Add")
	}
}
