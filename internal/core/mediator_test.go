package core

import (
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// testEnv wires the paper's running example: R(r1,r2,r3,r4)@db1,
// S(s1,s2,s3)@db2, R' = π σ_{r4=100} R, S' = π σ_{s3<50} S,
// T = π_{r1,r3,s1,s2}(R' ⋈_{r2=s1} S') — with configurable annotations.
type testEnv struct {
	clk  *clock.Logical
	db1  *source.DB
	db2  *source.DB
	med  *Mediator
	rec  *trace.Recorder
	vdp_ *vdp.VDP
}

func rSchema() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}, {Name: "r4", Type: relation.KindInt}}, "r1")
}

func sSchema() *relation.Schema {
	return relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")
}

func paperPlan(t testing.TB, annR, annS, annT vdp.Annotation) *vdp.VDP {
	t.Helper()
	rpSchema := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	spSchema := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	tSchema := relation.MustSchema("T", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt},
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}})
	if annR == nil {
		annR = vdp.AllMaterialized(rpSchema)
	}
	if annS == nil {
		annS = vdp.AllMaterialized(spSchema)
	}
	if annT == nil {
		annT = vdp.AllMaterialized(tSchema)
	}
	v, err := vdp.New(
		&vdp.Node{Name: "R", Schema: rSchema(), Source: "db1"},
		&vdp.Node{Name: "S", Schema: sSchema(), Source: "db2"},
		&vdp.Node{Name: "R'", Schema: rpSchema, Ann: annR,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R"}},
				Where: algebra.Eq(algebra.A("r4"), algebra.CInt(100)),
				Proj:  []string{"r1", "r2", "r3"}}},
		&vdp.Node{Name: "S'", Schema: spSchema, Ann: annS,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "S"}},
				Where: algebra.Lt(algebra.A("s3"), algebra.CInt(50)),
				Proj:  []string{"s1", "s2"}}},
		&vdp.Node{Name: "T", Schema: tSchema, Ann: annT, Export: true,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R'"}, {Rel: "S'"}},
				JoinCond: algebra.Eq(algebra.A("r2"), algebra.A("s1")),
				Proj:     []string{"r1", "r3", "s1", "s2"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newEnv(t testing.TB, annR, annS, annT vdp.Annotation) *testEnv {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 10, 120, 100))
	r.Insert(relation.T(3, 20, 7, 100))
	r.Insert(relation.T(4, 30, 9, 50))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	s.Insert(relation.T(30, 3, 80))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	v := paperPlan(t, annR, annS, annT)
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP:      v,
		Sources:  map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, db1: db1, db2: db2, med: med, rec: rec, vdp_: v}
}

// groundTruth evaluates the full view from current source states.
func (e *testEnv) groundTruth(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	leaves := map[string]*relation.Relation{}
	r, err := e.db1.Current("R")
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.db2.Current("S")
	if err != nil {
		t.Fatal(err)
	}
	leaves["R"], leaves["S"] = r, s
	states, err := e.vdp_.EvalAll(vdp.ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// projectSelectLocal computes the expected answer π_attrs σ_cond rel
// tuple by tuple through the reference interpreter (algebra.EvalPred), so
// the tests that compare against it also check the compiled kernel the
// mediator answers with.
func projectSelectLocal(rel *relation.Relation, name string, attrs []string, cond algebra.Expr) (*relation.Relation, error) {
	if attrs == nil {
		attrs = rel.Schema().AttrNames()
	}
	schema, err := rel.Schema().Project(name, attrs)
	if err != nil {
		return nil, err
	}
	positions, err := rel.Schema().Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(schema)
	for _, row := range rel.Rows() {
		ok, err := algebra.EvalPred(cond, rel.Schema(), row.Tuple)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Add(row.Tuple.Project(positions), row.Count)
		}
	}
	return out, nil
}

func TestInitializePopulatesStores(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	truth := e.groundTruth(t)
	for _, name := range []string{"R'", "S'", "T"} {
		got := e.med.StoreSnapshot(name)
		if got == nil || !got.Equal(truth[name]) {
			t.Errorf("%s store != ground truth:\n%v\nwant\n%s", name, got, truth[name])
		}
	}
	if e.med.StoreSnapshot("R") != nil {
		t.Errorf("leaves must not be stored")
	}
	if err := e.med.Initialize(); err == nil {
		t.Errorf("double initialize must fail")
	}
}

func TestContributorClassification(t *testing.T) {
	// Fully materialized: both sources are materialized-contributors.
	e := newEnv(t, nil, nil, nil)
	if e.med.Contributor("db1") != MaterializedContributor || e.med.Contributor("db2") != MaterializedContributor {
		t.Errorf("fully materialized plan: %v %v", e.med.Contributor("db1"), e.med.Contributor("db2"))
	}
	// R' virtual: db1 reaches R' (virtual) and T (materialized) → hybrid.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	e2 := newEnv(t, vdp.AllVirtual(rp), nil, nil)
	if e2.med.Contributor("db1") != HybridContributor {
		t.Errorf("db1 should be hybrid: %v", e2.med.Contributor("db1"))
	}
	// Everything virtual: both sources virtual-contributors.
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	tS := relation.MustSchema("T", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt},
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}})
	e3 := newEnv(t, vdp.AllVirtual(rp), vdp.AllVirtual(sp), vdp.AllVirtual(tS))
	if e3.med.Contributor("db1") != VirtualContributor || e3.med.Contributor("db2") != VirtualContributor {
		t.Errorf("fully virtual plan: %v %v", e3.med.Contributor("db1"), e3.med.Contributor("db2"))
	}
}

func TestExample21FullyMaterialized(t *testing.T) {
	e := newEnv(t, nil, nil, nil)

	// Updates flow through the queue into the store with no polling.
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)
	d2 := delta.New()
	d2.Delete("S", relation.T(10, 1, 20))
	d2.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d2)

	pollsBefore := e.med.Stats().SourcePolls
	if ran, err := e.med.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("update txn: %v %v", ran, err)
	}
	if e.med.Stats().SourcePolls != pollsBefore {
		t.Errorf("fully materialized support must not poll sources")
	}
	truth := e.groundTruth(t)
	for _, name := range []string{"R'", "S'", "T"} {
		if got := e.med.StoreSnapshot(name); !got.Equal(truth[name]) {
			t.Errorf("%s after update:\n%swant\n%s", name, got, truth[name])
		}
	}
	// Queue drained; second run is a no-op.
	if ran, err := e.med.RunUpdateTransaction(); err != nil || ran {
		t.Errorf("empty queue should not run: %v %v", ran, err)
	}

	// Query fast path.
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := projectSelectLocal(truth["T"], "T", []string{"r1", "s1"}, nil)
	if !res.Answer.Equal(want) {
		t.Errorf("query answer:\n%swant\n%s", res.Answer, want)
	}
	if res.Polled != 0 || res.KeyBased {
		t.Errorf("fast path must not poll: %+v", res)
	}
}

func TestExample22VirtualAuxiliary(t *testing.T) {
	// R' virtual (Example 2.2): ΔR propagates with no polling; ΔS requires
	// polling db1 to reconstruct R'.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	e := newEnv(t, vdp.AllVirtual(rp), nil, nil)

	// ΔR: cheap path.
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)
	polls := e.med.Stats().SourcePolls
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	if e.med.Stats().SourcePolls != polls {
		t.Errorf("ΔR with virtual R' must not poll (rule #1 needs only S')")
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("T after ΔR:\n%swant\n%s", got, truth["T"])
	}
	if e.med.StoreSnapshot("R'") != nil {
		t.Errorf("virtual R' must not be stored")
	}

	// ΔS: expensive path — the mediator must poll db1 for R'.
	d2 := delta.New()
	d2.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d2)
	polls = e.med.Stats().SourcePolls
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	if e.med.Stats().SourcePolls != polls+1 {
		t.Errorf("ΔS with virtual R' must poll db1 once, polls %d -> %d", polls, e.med.Stats().SourcePolls)
	}
	truth = e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("T after ΔS:\n%swant\n%s", got, truth["T"])
	}
}

func TestEagerCompensation(t *testing.T) {
	// Example 2.2 configuration. Commit to R but do NOT run an update
	// transaction; then force a poll of db1 (via ΔS processing). The
	// queued ΔR must be compensated away, and the subsequent transaction
	// must still converge to ground truth.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	e := newEnv(t, vdp.AllVirtual(rp), nil, nil)

	// Both deltas land in the same queue snapshot: ΔR joins the new S
	// tuple, and R gets a deletion too.
	d := delta.New()
	d.Insert("R", relation.T(5, 40, 11, 100))
	d.Delete("R", relation.T(1, 10, 5, 100))
	e.db1.MustApply(d)
	d2 := delta.New()
	d2.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d2)

	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("ECA transaction diverged:\n%swant\n%s", got, truth["T"])
	}
	// The new pair must be present: R(5,40,..) ⋈ S(40,4,..) → (5,11,40,4).
	if !e.med.StoreSnapshot("T").Contains(relation.T(5, 11, 40, 4)) {
		t.Errorf("cross-delta row missing:\n%s", e.med.StoreSnapshot("T"))
	}
}

func TestEagerCompensationQueryPath(t *testing.T) {
	// Hybrid T (s2 virtual), everything else materialized. Commit to db2
	// without processing; a query touching s2 polls db2, and compensation
	// must roll the answer back to ref′ — i.e. the answer must match the
	// LAST PROCESSED state, not the current one.
	e := newEnv(t, nil, nil, vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}))

	before := e.groundTruth(t)["T"]
	d := delta.New()
	d.Delete("S", relation.T(10, 1, 20))
	d.Insert("S", relation.T(10, 99, 20)) // change s2 for s1=10
	e.db2.MustApply(d)

	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := projectSelectLocal(before, "T", []string{"r1", "s2"}, nil)
	if !res.Answer.Equal(want) {
		t.Errorf("ECA query answer must reflect ref′:\n%swant\n%s", res.Answer, want)
	}
	// After processing the update, the query sees the new value.
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	res2, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	after := e.groundTruth(t)["T"]
	want2, _ := projectSelectLocal(after, "T", []string{"r1", "s2"}, nil)
	if !res2.Answer.Equal(want2) {
		t.Errorf("post-transaction answer:\n%swant\n%s", res2.Answer, want2)
	}
}

func TestExample23HybridQueries(t *testing.T) {
	// T hybrid [r1^m, r3^v, s1^m, s2^v]; R', S' fully materialized.
	e := newEnv(t, nil, nil, vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	truth := e.groundTruth(t)

	// Materialized-only query: served from the store, no polls.
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := projectSelectLocal(truth["T"], "T", []string{"r1", "s1"}, nil)
	if !res.Answer.Equal(want) || res.Polled != 0 {
		t.Errorf("materialized query: %+v\n%s", res, res.Answer)
	}

	// Virtual-attribute query: r3 needed. R' is materialized, so no
	// polling is needed either way; both constructions must agree.
	for _, mode := range []KeyBasedMode{KeyBasedOff, KeyBasedForce} {
		res, err := e.med.Query(algebra.SelectFrom("T", []string{"r3", "s1"}, algebra.Lt(algebra.A("r3"), algebra.CInt(100))), QueryOptions{KeyBased: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		want, _ := projectSelectLocal(truth["T"], "T", []string{"r3", "s1"},
			algebra.Lt(algebra.A("r3"), algebra.CInt(100)))
		if !res.Answer.Equal(want) {
			t.Errorf("mode %v:\n%swant\n%s", mode, res.Answer, want)
		}
		if mode == KeyBasedForce && !res.KeyBased {
			t.Errorf("forced key-based not used")
		}
	}
}

func TestHybridWithVirtualChildrenKeyBasedWins(t *testing.T) {
	// Example 2.3's full setting: R' and S' fully virtual, T hybrid. A
	// query for {r3, s1} standardly polls BOTH sources (R' for r3 and the
	// join, S' for s1... s1 is materialized in T but standard
	// construction rebuilds T from children). Key-based uses store(T) ⋈
	// R' and polls only db1.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	e := newEnv(t, vdp.AllVirtual(rp), vdp.AllVirtual(sp), vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	truth := e.groundTruth(t)
	want, _ := projectSelectLocal(truth["T"], "T", []string{"r3", "s1"}, nil)

	// Standard: polls both sources.
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r3", "s1"}, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(want) {
		t.Errorf("standard:\n%swant\n%s", res.Answer, want)
	}
	if res.Polled != 2 {
		t.Errorf("standard construction should poll 2 sources, polled %d", res.Polled)
	}

	// Key-based (auto should choose it): polls only db1.
	res2, err := e.med.Query(algebra.SelectFrom("T", []string{"r3", "s1"}, nil), QueryOptions{KeyBased: KeyBasedAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.KeyBased {
		t.Fatalf("auto mode should pick key-based construction here")
	}
	if !res2.Answer.Equal(want) {
		t.Errorf("key-based:\n%swant\n%s", res2.Answer, want)
	}
	if res2.Polled != 1 {
		t.Errorf("key-based construction should poll 1 source, polled %d", res2.Polled)
	}
}

func TestQueryConditionOnUnprojectedAttr(t *testing.T) {
	// Regression: a condition referencing an attribute outside the
	// projection must not widen the answer schema (the requirement closes
	// over condition attributes internally, but the answer is the
	// caller's projection exactly). Exercise the virtual path, the
	// key-based path, and the fast path.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	cond := algebra.Lt(algebra.A("s2"), algebra.CInt(99)) // s2 NOT projected

	for _, mode := range []KeyBasedMode{KeyBasedOff, KeyBasedForce} {
		e := newEnv(t, vdp.AllVirtual(rp), nil, vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
		res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "r3"}, cond), QueryOptions{KeyBased: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Answer.Schema().Arity() != 2 {
			t.Fatalf("mode %v: answer widened to %s", mode, res.Answer.Schema())
		}
		truth := e.groundTruth(t)["T"]
		want, _ := projectSelectLocal(truth, "T", []string{"r1", "r3"}, cond)
		if !res.Answer.Equal(want) {
			t.Errorf("mode %v:\n%swant\n%s", mode, res.Answer, want)
		}
	}
	// Fast path variant.
	e := newEnv(t, nil, nil, nil)
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1"}, cond), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Schema().Arity() != 1 {
		t.Errorf("fast path widened to %s", res.Answer.Schema())
	}
}

func TestQueryErrors(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	if _, err := e.med.Query(algebra.Scan{Rel: "R'"}, QueryOptions{}); err == nil {
		t.Errorf("non-export query must fail")
	}
	if _, err := e.med.Query(algebra.Scan{Rel: "NOPE"}, QueryOptions{}); err == nil {
		t.Errorf("unknown export must fail")
	}
	if _, err := e.med.Query(algebra.SelectFrom("T", []string{"zz"}, nil), QueryOptions{}); err == nil {
		t.Errorf("unknown attribute must fail")
	}
	if _, err := e.med.QuerySQL("SELECT r1 FROM T JOIN X ON a = b", QueryOptions{}); err == nil {
		t.Errorf("a join with a non-export must fail")
	}
	if _, err := e.med.QuerySQL("garbage", QueryOptions{}); err == nil {
		t.Errorf("parse errors propagate")
	}
}

func TestQuerySQL(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	got, err := e.med.QuerySQL("SELECT r1, s1 FROM T WHERE s1 = 10", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Answer.Card() != 2 || got.Answer.Schema().Name() != "T" {
		t.Errorf("answer = %s", got.Answer)
	}
}

func TestUninitializedOperations(t *testing.T) {
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db1.LoadRelation(relation.NewSet(rSchema()))
	db2 := source.NewDB("db2", clk)
	db2.LoadRelation(relation.NewSet(sSchema()))
	med, err := New(Config{
		VDP:     paperPlan(t, nil, nil, nil),
		Sources: map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med.Query(algebra.Scan{Rel: "T"}, QueryOptions{}); err == nil {
		t.Errorf("query before initialize must fail")
	}
	if _, err := med.RunUpdateTransaction(); err == nil {
		t.Errorf("update before initialize must fail")
	}
}

func TestConfigErrors(t *testing.T) {
	clk := &clock.Logical{}
	if _, err := New(Config{Clock: clk}); err == nil {
		t.Errorf("missing VDP")
	}
	if _, err := New(Config{VDP: paperPlan(t, nil, nil, nil)}); err == nil {
		t.Errorf("missing clock")
	}
	if _, err := New(Config{VDP: paperPlan(t, nil, nil, nil), Clock: clk,
		Sources: map[string]SourceConn{}}); err == nil {
		t.Errorf("missing source connections")
	}
}

func TestHybridLeafParentExportQueries(t *testing.T) {
	// Regression: a hybrid EXPORTED leaf-parent (single-input view over a
	// leaf) crashed the key-based planner, which proposed the LEAF itself
	// as the supplying child. All key-based modes must work.
	clk := &clock.Logical{}
	db := source.NewDB("db", clk)
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt}}, "r1")
	r := relation.NewSet(schema)
	r.Insert(relation.T(1, 5))
	r.Insert(relation.T(2, 120))
	db.LoadRelation(r)
	vs := relation.MustSchema("V", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt}}, "r1")
	plan, err := vdp.New(
		&vdp.Node{Name: "R", Schema: schema, Source: "db"},
		&vdp.Node{Name: "V", Schema: vs, Export: true,
			Ann: vdp.Ann([]string{"r1"}, []string{"r3"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R"}}, Proj: []string{"r1", "r3"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		VDP:     plan,
		Sources: map[string]SourceConn{"db": LocalSource{DB: db}},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	cond := algebra.Lt(algebra.A("r3"), algebra.CInt(100))
	for _, mode := range []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce} {
		res, err := med.Query(algebra.SelectFrom("V", []string{"r1", "r3"}, cond), QueryOptions{KeyBased: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Answer.Card() != 1 || !res.Answer.Contains(relation.T(1, 5)) {
			t.Fatalf("mode %v: %s", mode, res.Answer)
		}
		if res.KeyBased {
			t.Errorf("mode %v: key-based must not apply to leaf children", mode)
		}
	}
}
