package core

import (
	"fmt"
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// annotation configurations exercised by the soak: the materialized /
// virtual / hybrid spectrum of §1.
func soakConfigs() map[string][3]vdp.Annotation {
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	return map[string][3]vdp.Annotation{
		"fully-materialized": {nil, nil, nil},
		"virtual-R'":         {vdp.AllVirtual(rp), nil, nil},
		"virtual-both-aux":   {vdp.AllVirtual(rp), vdp.AllVirtual(sp), nil},
		"hybrid-T":           {nil, nil, vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"})},
		"hybrid-everything": {vdp.AllVirtual(rp), vdp.AllVirtual(sp),
			vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"})},
	}
}

// randomCommit applies a random non-redundant transaction to one source.
func randomCommit(t *testing.T, e *testEnv, rng *rand.Rand) {
	t.Helper()
	d := delta.New()
	if rng.Intn(2) == 0 {
		cur, _ := e.db1.Current("R")
		for i := 0; i < 1+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 || cur.Len() == 0 {
				tp := relation.T(1000+rng.Intn(100000), 10*(1+rng.Intn(5)), rng.Intn(200), 50*(1+rng.Intn(2)))
				if cur.Count(tp) == 0 && d.Rel("R").Count(tp) == 0 {
					d.Insert("R", tp)
				}
			} else {
				rows := cur.Rows()
				tp := rows[rng.Intn(len(rows))].Tuple
				if d.Rel("R").Count(tp) == 0 {
					d.Delete("R", tp)
				}
			}
		}
		if !d.IsEmpty() {
			// Guard against insert-then-delete collisions on cur.
			if _, err := e.db1.Apply(d); err != nil {
				t.Fatalf("commit R: %v", err)
			}
		}
		return
	}
	cur, _ := e.db2.Current("S")
	for i := 0; i < 1+rng.Intn(3); i++ {
		if rng.Intn(2) == 0 || cur.Len() == 0 {
			tp := relation.T(10*(1+rng.Intn(8)), rng.Intn(10), rng.Intn(100))
			if cur.Count(tp) == 0 && d.Rel("S").Count(tp) == 0 {
				d.Insert("S", tp)
			}
		} else {
			rows := cur.Rows()
			tp := rows[rng.Intn(len(rows))].Tuple
			if d.Rel("S").Count(tp) == 0 {
				d.Delete("S", tp)
			}
		}
	}
	if !d.IsEmpty() {
		if _, err := e.db2.Apply(d); err != nil {
			t.Fatalf("commit S: %v", err)
		}
	}
}

// TestMediatorSoak drives random interleavings of commits, update
// transactions, and queries through every annotation configuration and
// checks, after each update transaction, that every materialized portion
// equals the projection of from-scratch recomputation over the current
// source states (updates are always fully processed before comparing).
func TestMediatorSoak(t *testing.T) {
	for name, anns := range soakConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				e := newEnv(t, anns[0], anns[1], anns[2])
				for step := 0; step < 25; step++ {
					op := rng.Intn(10)
					switch {
					case op < 5:
						randomCommit(t, e, rng)
					case op < 8:
						if _, err := e.med.RunUpdateTransaction(); err != nil {
							t.Fatalf("seed %d step %d: update: %v", seed, step, err)
						}
					default:
						// Random query across materialized and virtual attrs.
						attrs := [][]string{{"r1", "s1"}, {"r1", "r3"}, {"s1", "s2"}, nil}[rng.Intn(4)]
						mode := []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce}[rng.Intn(3)]
						if _, err := e.med.Query(algebra.SelectFrom("T", attrs, nil), QueryOptions{KeyBased: mode}); err != nil {
							t.Fatalf("seed %d step %d: query: %v", seed, step, err)
						}
					}
				}
				// Drain fully, then compare stores to ground truth.
				for {
					ran, err := e.med.RunUpdateTransaction()
					if err != nil {
						t.Fatalf("seed %d: final drain: %v", seed, err)
					}
					if !ran {
						break
					}
				}
				truth := e.groundTruth(t)
				for _, node := range e.vdp_.NonLeaves() {
					st := e.med.StoreSnapshot(node)
					n := e.vdp_.Node(node)
					if n.FullyVirtual() {
						if st != nil {
							t.Errorf("seed %d: virtual node %s has a store", seed, node)
						}
						continue
					}
					mats := n.MaterializedAttrs()
					want, err := projectSelectLocal(truth[node], node, mats, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !st.Equal(want) {
						t.Fatalf("seed %d: node %s store diverged:\n%swant\n%s", seed, node, st, want)
					}
				}
				// Queries after the drain agree with ground truth too.
				res, err := e.med.Query(algebra.SelectFrom("T", nil, nil), QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, _ := projectSelectLocal(truth["T"], "T", nil, nil)
				if !res.Answer.Equal(want) {
					t.Fatalf("seed %d: full query diverged:\n%swant\n%s", seed, res.Answer, want)
				}
			}
		})
	}
}

// TestSoakStatsSanity spot-checks that the counters move as configured.
func TestSoakStatsSanity(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	d := delta.New()
	d.Insert("R", relation.T(99, 10, 1, 100))
	e.db1.MustApply(d)
	e.med.RunUpdateTransaction()
	e.med.Query(algebra.Scan{Rel: "T"}, QueryOptions{})
	s := e.med.Stats()
	if s.UpdateTxns != 1 || s.QueryTxns != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.SourcePolls != 2 { // the two Initialize polls only
		t.Errorf("polls: %+v", s)
	}
	if s.AtomsPropagated == 0 || s.QueueHighWater == 0 {
		t.Errorf("counters flat: %+v", s)
	}
	if got := fmt.Sprint(MaterializedContributor, HybridContributor, VirtualContributor, ContributorKind(9)); got == "" {
		t.Errorf("kind strings")
	}
}

// TestVirtualSelfJoin exercises the kernel with a SELF-JOIN over a fully
// virtual child: the Preparation pass must request the child's own state
// and the occurrence-sequencing discipline must stay exact against the
// temporary.
func TestVirtualSelfJoin(t *testing.T) {
	clk := &clock.Logical{}
	db := source.NewDB("db", clk)
	pSchema := relation.MustSchema("P", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p2", Type: relation.KindInt},
		{Name: "p3", Type: relation.KindInt}}, "p1")
	p := relation.NewSet(pSchema)
	p.Insert(relation.T(1, 10, 20))
	p.Insert(relation.T(2, 20, 10))
	p.Insert(relation.T(3, 10, 10))
	db.LoadRelation(p)

	pp := relation.MustSchema("P'", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p2", Type: relation.KindInt},
		{Name: "p3", Type: relation.KindInt}}, "p1")
	m := relation.MustSchema("M", []relation.Attribute{
		{Name: "p1", Type: relation.KindInt}, {Name: "p3", Type: relation.KindInt}})
	plan, err := vdp.New(
		&vdp.Node{Name: "P", Schema: pSchema, Source: "db"},
		&vdp.Node{Name: "P'", Schema: pp, Ann: vdp.AllVirtual(pp),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "P"}}, Proj: []string{"p1", "p2", "p3"}}},
		&vdp.Node{Name: "M", Schema: m, Export: true, Ann: vdp.AllMaterialized(m),
			Def: vdp.SPJ{
				Inputs:   []vdp.SPJInput{{Rel: "P'", Proj: []string{"p1", "p2"}}, {Rel: "P'", Proj: []string{"p3"}}},
				JoinCond: algebra.Eq(algebra.A("p2"), algebra.A("p3")),
				Proj:     []string{"p1", "p3"},
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP:      plan,
		Sources:  map[string]SourceConn{"db": LocalSource{DB: db}},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}

	check := func() {
		t.Helper()
		cur, _ := db.Current("P")
		truth, err := plan.EvalAll(vdp.ResolverFromCatalog(map[string]*relation.Relation{"P": cur}))
		if err != nil {
			t.Fatal(err)
		}
		if got := med.StoreSnapshot("M"); !got.Equal(truth["M"]) {
			t.Fatalf("virtual self-join diverged:\n%swant\n%s", got, truth["M"])
		}
	}
	check()

	muts := []*delta.Delta{}
	d1 := delta.New()
	d1.Insert("P", relation.T(4, 10, 10))
	muts = append(muts, d1)
	d2 := delta.New()
	d2.Delete("P", relation.T(3, 10, 10))
	d2.Insert("P", relation.T(5, 20, 20))
	muts = append(muts, d2)
	for i, d := range muts {
		if _, err := db.Apply(d); err != nil {
			t.Fatalf("mut %d: %v", i, err)
		}
		if _, err := med.RunUpdateTransaction(); err != nil {
			t.Fatalf("mut %d txn: %v", i, err)
		}
		check()
	}
	env := checker.Environment{VDP: plan, Sources: map[string]*source.DB{"db": db}, Trace: rec}
	if err := env.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
