package vdp

import (
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// refKernel is an independent, minimal implementation of the IUP Kernel
// Algorithm (§6.4) used to exercise the edge rules: nodes are processed in
// topological order; processing a node fires the rules of its in-edges
// (reading sibling states from the evolving store) and then applies the
// node's accumulated delta. Returns an error only on genuine rule errors.
func refKernel(v *VDP, stores map[string]*relation.Relation, leafDeltas *delta.Delta) error {
	resolve := ResolverFromCatalog(stores)
	pending := make(map[string]*delta.RelDelta)
	for _, name := range v.Order() {
		n := v.Node(name)
		var dn *delta.RelDelta
		if n.IsLeaf() {
			dn = leafDeltas.Get(name)
		} else {
			dn = pending[name]
		}
		if dn == nil || dn.IsEmpty() {
			continue
		}
		for _, parent := range v.Parents(name) {
			contrib, err := v.Propagate(parent, name, dn, resolve)
			if err != nil {
				return err
			}
			if acc, ok := pending[parent]; ok {
				acc.Smash(contrib)
			} else {
				pending[parent] = contrib
			}
		}
		if err := dn.ApplyTo(stores[name], false); err != nil {
			return err
		}
	}
	return nil
}

// checkIncrementalEqualsRecompute drives leafDeltas through refKernel and
// verifies that every non-leaf store equals from-scratch evaluation over
// the new leaf states. It runs twice: first over copies whose stores carry
// the plan's resident join indexes (the mediator's layout, see
// declareJoinIndexes), then over the caller's leaf states with bare stores,
// where every firing builds its indexes on the spot.
func checkIncrementalEqualsRecompute(t *testing.T, v *VDP, leafStates map[string]*relation.Relation, leafDeltas *delta.Delta) {
	t.Helper()
	copies := make(map[string]*relation.Relation, len(leafStates))
	for name, rel := range leafStates {
		copies[name] = rel.Clone()
	}
	for _, run := range []struct {
		leaves   map[string]*relation.Relation
		resident bool
	}{{copies, true}, {leafStates, false}} {
		stores, err := v.EvalAll(ResolverFromCatalog(run.leaves))
		if err != nil {
			t.Fatal(err)
		}
		if run.resident {
			declareJoinIndexes(t, v, stores)
		}
		if err := refKernel(v, stores, leafDeltas); err != nil {
			t.Fatal(err)
		}
		want, err := v.EvalAll(ResolverFromCatalog(stores)) // leaves already updated in stores
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range v.NonLeaves() {
			if !stores[name].Equal(want[name]) {
				t.Errorf("node %s (resident indexes: %v): incremental != recompute\nincremental:\n%swant:\n%s",
					name, run.resident, stores[name], want[name])
			}
			if err := stores[name].CheckIndexes(); err != nil {
				t.Errorf("after the kernel run: %v", err)
			}
		}
	}
}

// declareJoinIndexes gives every store the join indexes the plan's rules
// probe it on, as the mediator does where a relation enters its store.
func declareJoinIndexes(t testing.TB, v *VDP, stores map[string]*relation.Relation) {
	t.Helper()
	for _, name := range v.NonLeaves() {
		for _, attrs := range v.JoinIndexes(name) {
			if err := stores[name].EnsureIndex(attrs...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRule1Rule2Example21(t *testing.T) {
	// Example 2.1: rule #1 (ΔT = ΔR' ⋈ S') and rule #2 (ΔT = R' ⋈ ΔS').
	v := paperVDP(t, nil, nil, nil)
	leaves := paperLeafStates()

	// ΔR: insert (5, 20, 11, 100) — joins S' tuple (20, 2).
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	stores, _ := v.EvalAll(ResolverFromCatalog(leaves))
	before := stores["T"].Clone()
	if err := refKernel(v, stores, d); err != nil {
		t.Fatal(err)
	}
	if stores["T"].Card() != before.Card()+1 || !stores["T"].Contains(relation.T(5, 11, 20, 2)) {
		t.Fatalf("rule #1 failed:\n%s", stores["T"])
	}
	// ΔS: delete (10,1,20) — removes two T rows (r1=1 and r1=2).
	d2 := delta.New()
	d2.Delete("S", relation.T(10, 1, 20))
	if err := refKernel(v, stores, d2); err != nil {
		t.Fatal(err)
	}
	if stores["T"].Contains(relation.T(1, 5, 10, 1)) || stores["T"].Contains(relation.T(2, 120, 10, 1)) {
		t.Fatalf("rule #2 failed:\n%s", stores["T"])
	}
	if stores["T"].Card() != 2 {
		t.Fatalf("T card = %d, want 2:\n%s", stores["T"].Card(), stores["T"])
	}
}

func TestSelectionFiltersDeltas(t *testing.T) {
	// Updates failing the leaf-parent selections must not reach T.
	v := paperVDP(t, nil, nil, nil)
	stores, _ := v.EvalAll(ResolverFromCatalog(paperLeafStates()))
	before := stores["T"].Clone()
	d := delta.New()
	d.Insert("R", relation.T(6, 10, 1, 55)) // r4 != 100
	d.Insert("S", relation.T(40, 4, 90))    // s3 >= 50
	if err := refKernel(v, stores, d); err != nil {
		t.Fatal(err)
	}
	if !stores["T"].Equal(before) {
		t.Fatalf("filtered updates leaked into T")
	}
	if stores["R'"].Card() != 3 || stores["S'"].Card() != 2 {
		t.Fatalf("filtered updates leaked into auxiliaries")
	}
}

func TestExample61Discipline(t *testing.T) {
	// Example 6.1: simultaneous ΔR' and ΔS' whose join partners are each
	// other. The kernel discipline must include the ΔR'⋈ΔS' contribution.
	v := paperVDP(t, nil, nil, nil)
	leaves := paperLeafStates()
	d := delta.New()
	d.Insert("R", relation.T(7, 77, 3, 100)) // r2=77: joins ONLY the new S tuple
	d.Insert("S", relation.T(77, 9, 10))     // s1=77
	checkIncrementalEqualsRecompute(t, v, leaves, d)

	// And explicitly: the cross contribution appears.
	stores, _ := v.EvalAll(ResolverFromCatalog(paperLeafStates()))
	if err := refKernel(v, stores, d); err != nil {
		t.Fatal(err)
	}
	if !stores["T"].Contains(relation.T(7, 3, 77, 9)) {
		t.Fatalf("missed ΔR'⋈ΔS' contribution:\n%s", stores["T"])
	}
}

func TestNaivePropagationMissesCrossDelta(t *testing.T) {
	// The all-old-state firing (PropagateNaive with a frozen catalog)
	// misses ΔR'⋈ΔS' — the anomaly the paper warns about.
	v := paperVDP(t, nil, nil, nil)
	stores, _ := v.EvalAll(ResolverFromCatalog(paperLeafStates()))
	frozen := make(map[string]*relation.Relation, len(stores))
	for k, r := range stores {
		frozen[k] = r.Clone()
	}
	resolveOld := ResolverFromCatalog(frozen)

	dR := delta.NewRel("R'")
	dR.Insert(relation.T(7, 77, 3))
	dS := delta.NewRel("S'")
	dS.Insert(relation.T(77, 9))

	c1, err := v.PropagateNaive("T", "R'", dR, resolveOld)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := v.PropagateNaive("T", "S'", dS, resolveOld)
	if err != nil {
		t.Fatal(err)
	}
	naive := delta.NewRel("T")
	naive.Smash(c1)
	naive.Smash(c2)
	if naive.Count(relation.T(7, 3, 77, 9)) != 0 {
		t.Fatalf("naive firing should miss the cross contribution, got:\n%s", naive)
	}
	// Whereas the disciplined kernel catches it (previous test).
}

// diffVDP: G = π_{x}σ_{y>0}(A') − π_{p}(B') over two leaves; A', B' are
// bag leaf-parents (projections can create duplicates).
func diffVDP(t testing.TB) (*VDP, map[string]*relation.Relation) {
	t.Helper()
	aSchema := relation.MustSchema("A", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt},
		{Name: "z", Type: relation.KindInt}}, "x", "y", "z")
	bSchema := relation.MustSchema("B", []relation.Attribute{
		{Name: "p", Type: relation.KindInt}, {Name: "q", Type: relation.KindInt}}, "p", "q")
	ap := relation.MustSchema("A'", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}})
	bp := relation.MustSchema("B'", []relation.Attribute{
		{Name: "p", Type: relation.KindInt}})
	g := relation.MustSchema("G", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	v, err := New(
		&Node{Name: "A", Schema: aSchema, Source: "db1"},
		&Node{Name: "B", Schema: bSchema, Source: "db2"},
		&Node{Name: "A'", Schema: ap, Ann: AllMaterialized(ap),
			Def: SPJ{Inputs: []SPJInput{{Rel: "A"}}, Proj: []string{"x", "y"}}},
		&Node{Name: "B'", Schema: bp, Ann: AllMaterialized(bp),
			Def: SPJ{Inputs: []SPJInput{{Rel: "B"}}, Proj: []string{"p"}}},
		&Node{Name: "G", Schema: g, Export: true, Ann: AllMaterialized(g),
			Def: DiffDef{
				L: Branch{Rel: "A'", Proj: []string{"x"}, Where: algebra.Gt(algebra.A("y"), algebra.CInt(0))},
				R: Branch{Rel: "B'", Proj: []string{"p"}},
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := relation.NewSet(aSchema)
	a.Insert(relation.T(1, 1, 0))
	a.Insert(relation.T(2, 1, 0))
	a.Insert(relation.T(2, 2, 1)) // duplicate x=2 at bag level in A'
	a.Insert(relation.T(3, -1, 0))
	b := relation.NewSet(bSchema)
	b.Insert(relation.T(2, 0))
	b.Insert(relation.T(4, 0))
	return v, map[string]*relation.Relation{"A": a, "B": b}
}

func TestDiffNodeBasics(t *testing.T) {
	v, leaves := diffVDP(t)
	states, err := v.EvalAll(ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	// L = {1,2} (x=3 fails y>0; x=2 twice at bag level), R = {2,4} → G={1}.
	g := states["G"]
	if g.Card() != 1 || !g.Contains(relation.T(1)) {
		t.Fatalf("G = %s", g)
	}
	if g.Semantics() != relation.Set {
		t.Errorf("G must be a set node")
	}
}

func TestDiffPropagationScenarios(t *testing.T) {
	cases := []struct {
		name string
		mut  func(d *delta.Delta)
	}{
		{"insert left new", func(d *delta.Delta) { d.Insert("A", relation.T(9, 5, 0)) }},
		{"insert left blocked by right", func(d *delta.Delta) { d.Insert("A", relation.T(4, 5, 0)) }},
		{"insert right kills", func(d *delta.Delta) { d.Insert("B", relation.T(1, 7)) }},
		{"delete right revives", func(d *delta.Delta) { d.Delete("B", relation.T(2, 0)) }},
		{"delete one dup left keeps", func(d *delta.Delta) { d.Delete("A", relation.T(2, 1, 0)) }},
		{"delete left removes", func(d *delta.Delta) { d.Delete("A", relation.T(1, 1, 0)) }},
		{"paper typo case: delete left tuple also in right", func(d *delta.Delta) {
			// x=2 in both branches: deleting both A dups must NOT emit a
			// deletion from G (2 was never in G). The paper's printed
			// (ΔR1)- ∩ R2 would wrongly emit it.
			d.Delete("A", relation.T(2, 1, 0))
			d.Delete("A", relation.T(2, 2, 1))
		}},
		{"cross: insert left and right same tuple", func(d *delta.Delta) {
			d.Insert("A", relation.T(7, 1, 0))
			d.Insert("B", relation.T(7, 0))
		}},
		{"cross: delete right while deleting left", func(d *delta.Delta) {
			d.Delete("B", relation.T(2, 0))
			d.Delete("A", relation.T(2, 1, 0))
			d.Delete("A", relation.T(2, 2, 1))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, leaves := diffVDP(t)
			d := delta.New()
			c.mut(d)
			checkIncrementalEqualsRecompute(t, v, leaves, d)
		})
	}
}

// unionVDP: U = π_x A' ∪ π_p B' (bag union).
func unionVDP(t testing.TB) (*VDP, map[string]*relation.Relation) {
	t.Helper()
	v, leaves := diffVDP(t)
	// Rebuild with a union top instead.
	var nodes []*Node
	for _, name := range v.Order() {
		n := v.Node(name)
		if name == "G" {
			u := relation.MustSchema("G", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
			nodes = append(nodes, &Node{Name: "G", Schema: u, Export: true, Ann: AllMaterialized(u),
				Def: UnionDef{
					L: Branch{Rel: "A'", Proj: []string{"x"}, Where: algebra.Gt(algebra.A("y"), algebra.CInt(0))},
					R: Branch{Rel: "B'", Proj: []string{"p"}},
				}})
			continue
		}
		nodes = append(nodes, n)
	}
	v2, err := New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return v2, leaves
}

func TestUnionNodePropagation(t *testing.T) {
	v, leaves := unionVDP(t)
	states, _ := v.EvalAll(ResolverFromCatalog(leaves))
	// L bag: {1, 2, 2}, R bag: {2, 4} → U: 1x1, 2x3, 4x1.
	if states["G"].Count(relation.T(2)) != 3 {
		t.Fatalf("union counts wrong: %s", states["G"])
	}
	d := delta.New()
	d.Insert("A", relation.T(2, 9, 9)) // another x=2 via left
	d.Delete("B", relation.T(2, 0))    // one fewer via right
	d.Insert("B", relation.T(5, 5))
	checkIncrementalEqualsRecompute(t, v, leaves, d)
}

// selfJoinVDP: M = π_{p1,p3}( π_{p1,p2}(P') ⋈_{p2=p3} π_{p3}(P') ) — the
// same child appears twice (footnote 2 of §6.3).
func selfJoinVDP(t testing.TB) (*VDP, map[string]*relation.Relation) {
	t.Helper()
	pSchema := relation.MustSchema("P", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p2", Type: relation.KindInt},
		{Name: "p3", Type: relation.KindInt}}, "p1")
	pp := relation.MustSchema("P'", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p2", Type: relation.KindInt},
		{Name: "p3", Type: relation.KindInt}}, "p1")
	m := relation.MustSchema("M", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p3", Type: relation.KindInt}})
	v, err := New(
		&Node{Name: "P", Schema: pSchema, Source: "db1"},
		&Node{Name: "P'", Schema: pp, Ann: AllMaterialized(pp),
			Def: SPJ{Inputs: []SPJInput{{Rel: "P"}}, Proj: []string{"p1", "p2", "p3"}}},
		&Node{Name: "M", Schema: m, Export: true, Ann: AllMaterialized(m),
			Def: SPJ{
				Inputs:   []SPJInput{{Rel: "P'", Proj: []string{"p1", "p2"}}, {Rel: "P'", Proj: []string{"p3"}}},
				JoinCond: algebra.Eq(algebra.A("p2"), algebra.A("p3")),
				Proj:     []string{"p1", "p3"},
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := relation.NewSet(pSchema)
	p.Insert(relation.T(1, 10, 20))
	p.Insert(relation.T(2, 20, 10))
	p.Insert(relation.T(3, 10, 10))
	return v, map[string]*relation.Relation{"P": p}
}

func TestSelfJoinPropagation(t *testing.T) {
	v, leaves := selfJoinVDP(t)
	states, err := v.EvalAll(ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (a,b) with a.p2 = b.p3: (1,2):10? a=1 p2=10, b must have p3=10
	// → b∈{2,3}; a=2 p2=20 → b=1; a=3 p2=10 → b∈{2,3}.
	if states["M"].Card() != 5 {
		t.Fatalf("M = %s", states["M"])
	}
	cases := []func(d *delta.Delta){
		func(d *delta.Delta) { d.Insert("P", relation.T(4, 10, 10)) },
		func(d *delta.Delta) { d.Delete("P", relation.T(3, 10, 10)) },
		func(d *delta.Delta) {
			d.Insert("P", relation.T(5, 99, 99))
			d.Delete("P", relation.T(1, 10, 20))
		},
	}
	for i, mut := range cases {
		v2, leaves2 := selfJoinVDP(t)
		d := delta.New()
		mut(d)
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			checkIncrementalEqualsRecompute(t, v2, leaves2, d)
		})
	}
}

// Randomized incremental-equals-recompute over the paper VDP.
func TestIncrementalEqualsRecomputeRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := paperVDP(t, nil, nil, nil)
		leaves := paperLeafStates()
		d := delta.New()
		// Random non-redundant updates to both leaves.
		for i := 0; i < 6; i++ {
			switch rng.Intn(3) {
			case 0: // insert new R tuple
				tp := relation.T(100+rng.Intn(50), 10*(1+rng.Intn(4)), rng.Intn(10), 100*rng.Intn(2)+50)
				if leaves["R"].Count(tp) == 0 && d.Rel("R").Count(tp) == 0 {
					d.Insert("R", tp)
				}
			case 1: // insert new S tuple
				tp := relation.T(10*(1+rng.Intn(6)), rng.Intn(5), rng.Intn(100))
				if leaves["S"].Count(tp) == 0 && d.Rel("S").Count(tp) == 0 {
					d.Insert("S", tp)
				}
			case 2: // delete an existing R tuple
				rows := leaves["R"].Rows()
				if len(rows) > 0 {
					tp := rows[rng.Intn(len(rows))].Tuple
					if d.Rel("R").Count(tp) == 0 {
						d.Delete("R", tp)
					}
				}
			}
		}
		checkIncrementalEqualsRecompute(t, v, leaves, d)
	}
}

// Randomized incremental-equals-recompute over the diff VDP.
func TestDiffIncrementalRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v, leaves := diffVDP(t)
		d := delta.New()
		for i := 0; i < 5; i++ {
			switch rng.Intn(4) {
			case 0:
				tp := relation.T(rng.Intn(8), rng.Intn(5)-1, rng.Intn(2))
				if leaves["A"].Count(tp) == 0 && d.Rel("A").Count(tp) == 0 {
					d.Insert("A", tp)
				}
			case 1:
				tp := relation.T(rng.Intn(8), rng.Intn(3))
				if leaves["B"].Count(tp) == 0 && d.Rel("B").Count(tp) == 0 {
					d.Insert("B", tp)
				}
			case 2:
				rows := leaves["A"].Rows()
				if len(rows) > 0 {
					tp := rows[rng.Intn(len(rows))].Tuple
					if d.Rel("A").Count(tp) == 0 {
						d.Delete("A", tp)
					}
				}
			case 3:
				rows := leaves["B"].Rows()
				if len(rows) > 0 {
					tp := rows[rng.Intn(len(rows))].Tuple
					if d.Rel("B").Count(tp) == 0 {
						d.Delete("B", tp)
					}
				}
			}
		}
		checkIncrementalEqualsRecompute(t, v, leaves, d)
	}
}

func TestPropagateErrors(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	stores, _ := v.EvalAll(ResolverFromCatalog(paperLeafStates()))
	resolve := ResolverFromCatalog(stores)
	d := delta.NewRel("R'")
	d.Insert(relation.T(1, 2, 3))
	if _, err := v.Propagate("NOPE", "R'", d, resolve); err == nil {
		t.Errorf("unknown node")
	}
	if _, err := v.Propagate("T", "NOPE", d, resolve); err == nil {
		t.Errorf("unknown child")
	}
	if _, err := v.Propagate("R", "R'", d, resolve); err == nil {
		t.Errorf("propagate on leaf")
	}
	if _, err := v.Propagate("T", "R", d, resolve); err == nil {
		t.Errorf("R is not a child of T")
	}
	// Empty delta short-circuits.
	out, err := v.Propagate("T", "R'", delta.NewRel("R'"), resolve)
	if err != nil || !out.IsEmpty() {
		t.Errorf("empty delta: %v %v", out, err)
	}
}

// sameChildDiffVDP: G = π_x σ_{y>0}(A') − π_x σ_{z>0}(A') — both branches
// over the SAME child (footnote 2's repeated-relation case, for
// difference nodes).
func sameChildDiffVDP(t testing.TB) (*VDP, map[string]*relation.Relation) {
	t.Helper()
	aSchema := relation.MustSchema("A", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt},
		{Name: "z", Type: relation.KindInt}}, "x", "y", "z")
	ap := relation.MustSchema("A'", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt},
		{Name: "z", Type: relation.KindInt}})
	g := relation.MustSchema("G", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	v, err := New(
		&Node{Name: "A", Schema: aSchema, Source: "db1"},
		&Node{Name: "A'", Schema: ap, Ann: AllMaterialized(ap),
			Def: SPJ{Inputs: []SPJInput{{Rel: "A"}}, Proj: []string{"x", "y", "z"}}},
		&Node{Name: "G", Schema: g, Export: true, Ann: AllMaterialized(g),
			Def: DiffDef{
				L: Branch{Rel: "A'", Proj: []string{"x"}, Where: algebra.Gt(algebra.A("y"), algebra.CInt(0))},
				R: Branch{Rel: "A'", Proj: []string{"x"}, Where: algebra.Gt(algebra.A("z"), algebra.CInt(0))},
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := relation.NewSet(aSchema)
	a.Insert(relation.T(1, 1, 0)) // in L, not R → in G
	a.Insert(relation.T(2, 1, 1)) // in both → out
	a.Insert(relation.T(3, 0, 1)) // only R → out
	return v, map[string]*relation.Relation{"A": a}
}

func TestSameChildDifference(t *testing.T) {
	v, leaves := sameChildDiffVDP(t)
	states, err := v.EvalAll(ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	if states["G"].Card() != 1 || !states["G"].Contains(relation.T(1)) {
		t.Fatalf("G = %s", states["G"])
	}
	cases := []func(d *delta.Delta){
		func(d *delta.Delta) { d.Insert("A", relation.T(4, 1, 0)) }, // joins G
		func(d *delta.Delta) { d.Insert("A", relation.T(5, 1, 1)) }, // both branches
		func(d *delta.Delta) { d.Delete("A", relation.T(2, 1, 1)) }, // leaves both
		func(d *delta.Delta) { d.Delete("A", relation.T(1, 1, 0)) }, // leaves G
		func(d *delta.Delta) { // mixed batch
			d.Insert("A", relation.T(6, 1, 0))
			d.Delete("A", relation.T(3, 0, 1))
			d.Insert("A", relation.T(7, 0, 1))
		},
	}
	for i, mut := range cases {
		v2, leaves2 := sameChildDiffVDP(t)
		d := delta.New()
		mut(d)
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			checkIncrementalEqualsRecompute(t, v2, leaves2, d)
		})
	}
}

func TestSameChildDifferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		v, leaves := sameChildDiffVDP(t)
		d := delta.New()
		for i := 0; i < 4; i++ {
			if rng.Intn(3) == 0 && leaves["A"].Len() > 0 {
				rows := leaves["A"].Rows()
				tp := rows[rng.Intn(len(rows))].Tuple
				if d.Rel("A").Count(tp) == 0 {
					d.Delete("A", tp)
				}
				continue
			}
			tp := relation.T(rng.Intn(10)+10, rng.Intn(2), rng.Intn(2))
			if leaves["A"].Count(tp) == 0 && d.Rel("A").Count(tp) == 0 {
				d.Insert("A", tp)
			}
		}
		checkIncrementalEqualsRecompute(t, v, leaves, d)
	}
}

func TestSameChildUnion(t *testing.T) {
	// U = π_x σ_{y>0}(A') ∪ π_x σ_{z>0}(A') — both branches on one child.
	v, leaves := sameChildDiffVDP(t)
	var nodes []*Node
	for _, name := range v.Order() {
		n := v.Node(name)
		if name == "G" {
			g := relation.MustSchema("G", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
			d := n.Def.(DiffDef)
			nodes = append(nodes, &Node{Name: "G", Schema: g, Export: true, Ann: AllMaterialized(g),
				Def: UnionDef{L: d.L, R: d.R}})
			continue
		}
		nodes = append(nodes, n)
	}
	v2, err := New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	states, _ := v2.EvalAll(ResolverFromCatalog(leaves))
	// L: {1,2}; R: {2,3} → bag union {1:1, 2:2, 3:1}.
	if states["G"].Count(relation.T(2)) != 2 || states["G"].Card() != 4 {
		t.Fatalf("union = %s", states["G"])
	}
	d := delta.New()
	d.Insert("A", relation.T(9, 1, 1)) // lands in BOTH branches
	d.Delete("A", relation.T(1, 1, 0))
	checkIncrementalEqualsRecompute(t, v2, leaves, d)
}
