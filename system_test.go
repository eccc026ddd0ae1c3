package squirrel

import (
	"strings"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/relation"
)

func demoSystem(t testing.TB) *System {
	t.Helper()
	sys := NewSystem()
	db1 := sys.AddSource("db1")
	db1.MustLoadTable(Relations(
		MustSchema("R", []Attribute{
			{Name: "r1", Type: KindInt}, {Name: "r2", Type: KindInt},
			{Name: "r3", Type: KindInt}, {Name: "r4", Type: KindInt}}, "r1"),
		T(1, 10, 5, 100), T(2, 10, 120, 100), T(3, 20, 7, 100), T(4, 30, 9, 50),
	))
	db2 := sys.AddSource("db2")
	db2.MustLoadTable(Relations(
		MustSchema("S", []Attribute{
			{Name: "s1", Type: KindInt}, {Name: "s2", Type: KindInt},
			{Name: "s3", Type: KindInt}}, "s1"),
		T(10, 1, 20), T(20, 2, 40), T(30, 3, 80),
	))
	sys.MustDefineView("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`)
	return sys
}

func TestSystemQuickstart(t *testing.T) {
	sys := demoSystem(t)
	sys.MustStart()

	rows, err := sys.Query(`SELECT r1, s1 FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Card() != 3 {
		t.Fatalf("initial view: %s", rows)
	}

	src := sys.sources["db1"]
	if _, err := src.Insert("R", T(5, 20, 11, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rows, err = sys.Query(`SELECT r1 FROM T WHERE s1 = 20`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Card() != 2 {
		t.Fatalf("after insert: %s", rows)
	}
	if _, err := src.Delete("R", T(5, 20, 11, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rows, _ = sys.Query(`SELECT r1 FROM T WHERE s1 = 20`)
	if rows.Card() != 1 {
		t.Fatalf("after delete: %s", rows)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatalf("trace inconsistent: %v", err)
	}
	if sys.Plan() == nil || sys.Mediator() == nil || sys.rec == nil {
		t.Errorf("accessors nil")
	}
	if sys.clk.Now() == 0 {
		t.Errorf("clock")
	}
}

func TestSystemHybridAnnotation(t *testing.T) {
	sys := demoSystem(t)
	sys.Annotate("T", []string{"r1", "r3", "s1"}, []string{"s2"})
	sys.AnnotateAllVirtual("S'", []string{"s1", "s2"})
	sys.MustStart()

	cond, err := ParseCondition(`s2 >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.QueryExport("T", []string{"r1", "s2"}, cond, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Card() != 3 || res.Polled == 0 {
		t.Fatalf("hybrid query: %+v\n%s", res, res.Answer)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	worst, err := sys.CheckFreshness(TimeVector{})
	if err != nil || worst == nil {
		t.Fatalf("freshness: %v %v", worst, err)
	}
}

func TestSystemLifecycleErrors(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.Query("SELECT r1 FROM T"); err == nil {
		t.Errorf("query before start")
	}
	if _, err := sys.Sync(); err == nil {
		t.Errorf("sync before start")
	}
	if err := sys.CheckConsistency(); err == nil {
		t.Errorf("check before start")
	}
	if _, err := sys.CheckFreshness(nil); err == nil {
		t.Errorf("freshness before start")
	}
	if _, err := sys.QueryExport("T", nil, nil, QueryOptions{}); err == nil {
		t.Errorf("query export before start")
	}
	sys.MustStart()
	if err := sys.Start(); err == nil {
		t.Errorf("double start")
	}
	if err := sys.DefineView("X", "SELECT r1 FROM R"); err == nil {
		t.Errorf("define after start")
	}
	src := sys.sources["db1"]
	if err := src.CreateTable(MustSchema("Z", []Attribute{{Name: "z", Type: KindInt}}), Set); err == nil {
		t.Errorf("create table after start")
	}
	if err := src.LoadTable(Relations(MustSchema("Z2", []Attribute{{Name: "z", Type: KindInt}}))); err == nil {
		t.Errorf("load table after start")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AddSource after start should panic")
			}
		}()
		sys.AddSource("late")
	}()
	func() {
		sys2 := NewSystem()
		sys2.AddSource("dup")
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate source should panic")
			}
		}()
		sys2.AddSource("dup")
	}()
}

func TestSystemBadViewAndAnnotation(t *testing.T) {
	sys := NewSystem()
	db := sys.AddSource("db")
	db.MustCreateTable(MustSchema("A", []Attribute{{Name: "x", Type: KindInt}}), Set)
	if err := sys.DefineView("V", "garbage"); err == nil {
		t.Errorf("bad SQL")
	}
	sys.MustDefineView("V", "SELECT x FROM A")
	sys.Annotate("GHOST", []string{"x"}, nil)
	if err := sys.Start(); err == nil {
		t.Errorf("annotation of unknown node must fail Start")
	}
}

func TestFigure2ViaPublicAPI(t *testing.T) {
	sc, table := checker.Figure2Scenario()
	pseudo, err := sc.PseudoConsistent()
	if err != nil || !pseudo {
		t.Fatalf("pseudo: %v %v", pseudo, err)
	}
	consistent, err := sc.Consistent()
	if err != nil || consistent {
		t.Fatalf("consistent: %v %v", consistent, err)
	}
	if !strings.Contains(table, "t1") {
		t.Errorf("table: %s", table)
	}
}

func TestPublicExprHelpers(t *testing.T) {
	e := algebra.Conj(algebra.Eq(algebra.A("x"), algebra.CInt(1)), algebra.Disj(algebra.Lt(algebra.A("y"), algebra.CStr("z")), algebra.Ge(algebra.A("x"), algebra.CInt(0))), algebra.Ne(algebra.A("x"), algebra.CInt(9)), algebra.Le(algebra.A("x"), algebra.CInt(5)), algebra.Gt(algebra.A("x"), algebra.CInt(-5)))
	if e.String() == "" {
		t.Errorf("expr helpers")
	}
	if relation.Int(1).Kind() != KindInt || relation.Float(1).Kind() != KindFloat || relation.Str("").Kind() != KindString ||
		relation.Bool(true).Kind() != KindBool || !relation.Null().IsNull() {
		t.Errorf("value helpers")
	}
	r := NewRelation(MustSchema("X", []Attribute{{Name: "a", Type: KindInt}}), Bag)
	r.Insert(T(1))
	if r.Card() != 1 {
		t.Errorf("NewRelation")
	}
}

func TestSystemRuntimeAndPersistence(t *testing.T) {
	sys := demoSystem(t)
	sys.MustStart()
	rt, err := sys.StartRuntime(2 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	src := sys.MustSource("db1")
	if _, err := src.Insert("R", T(5, 20, 11, 100)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.Mediator().QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	if rows, err := sys.Query(`SELECT r1 FROM T`); err != nil || rows.Card() != 4 {
		t.Fatalf("view after the runtime drained (err %v):\n%s", err, rows)
	}
	// Persistence across a restart is the WAL's: TestSystemDurableWAL
	// here, and internal/node's TestLifecycle under concurrent commits.

	// Lifecycle errors.
	if _, err := demoSystem(t).StartRuntime(time.Second); err == nil {
		t.Errorf("runtime before start must fail")
	}
}

// TestSystemDurableWAL walks the durable lifecycle through the public
// API: boot with a WAL, commit, die without warning, and a twin system
// (same catalog, same initial source contents) recovers the store from
// checkpoint + log replay alone.
func TestSystemDurableWAL(t *testing.T) {
	dir := t.TempDir()
	sys := demoSystem(t)
	info, err := sys.StartDurable(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info != nil {
		t.Fatalf("fresh start returned recovery info %+v", info)
	}
	if sys.wal == nil {
		t.Fatal("StartDurable left no WAL manager")
	}
	if _, err := sys.MustSource("db1").Insert("R", T(5, 20, 11, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := sys.Query(`SELECT r1, s1 FROM T`)
	if err != nil || rows.Card() != 4 {
		t.Fatalf("pre-crash view (err %v):\n%s", err, rows)
	}
	version := sys.StoreVersion()
	sys.wal.Kill() // power cut: no Shutdown, no final checkpoint

	twin := demoSystem(t)
	info, err = twin.StartDurable(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Version != version || info.Replayed == 0 {
		t.Fatalf("recovery info %+v, want replay up to v%d", info, version)
	}
	rows, err = twin.Query(`SELECT r1, s1 FROM T`)
	if err != nil || rows.Card() != 4 {
		t.Fatalf("recovered view (err %v):\n%s", err, rows)
	}

	if err := twin.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown checkpointed everything: the next boot replays zero
	// records.
	third := demoSystem(t)
	info, err = third.StartDurable(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Replayed != 0 || info.Version != version {
		t.Fatalf("post-shutdown recovery info %+v, want clean checkpoint at v%d", info, version)
	}
	if err := third.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Lifecycle: StartDurable on a started system must fail.
	started := demoSystem(t)
	started.MustStart()
	if _, err := started.StartDurable(DurabilityConfig{Dir: t.TempDir()}); err == nil {
		t.Error("StartDurable after Start must fail")
	}
}

func TestSystemMultiExportQuery(t *testing.T) {
	sys := demoSystem(t)
	// RV's schema (r2, r4) is disjoint from T's (r1, r3, s1, s2), so the
	// exports can be joined without renaming.
	sys.MustDefineView("RV", `SELECT r2, r4 FROM R WHERE r4 = 100`)
	sys.MustStart()

	// Join the two exports: T rows whose s1 appears as an RV r2 value.
	j, err := sys.Query(`SELECT r1, s1, r4 FROM T JOIN RV ON s1 = r2`)
	if err != nil {
		t.Fatal(err)
	}
	// T rows have s1 ∈ {10, 10, 20}; RV r2 values (bag) are {10, 10, 20}:
	// the two s1=10 rows match two RV rows each, the s1=20 row matches one.
	if j.Card() != 2*2+1 {
		t.Fatalf("join over exports: %s", j)
	}
	// Union across exports.
	u, err := sys.Query(`SELECT r1 FROM T UNION SELECT r2 FROM RV`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Card() != 6 {
		t.Fatalf("union over exports: %s", u)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemAdvise(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.Advise(WorkloadProfile{}); err == nil {
		t.Errorf("advise before start must fail")
	}
	sys.MustStart()
	advice, err := sys.Advise(WorkloadProfile{
		AccessFreq:  map[string]float64{"r1": 0.9, "s1": 0.9},
		UpdateShare: map[string]float64{"db1": 0.9, "db2": 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if advice.Annotations["T"] == nil || len(advice.Reasons) == 0 {
		t.Fatalf("advice empty: %+v", advice)
	}
	if advice.Annotations["T"].IsMaterialized("r3") {
		t.Errorf("cold r3 should be virtual")
	}
}

func TestSystemReannotateAndAdapt(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.Reannotate(nil); err == nil {
		t.Errorf("reannotate before start must fail")
	}
	if _, err := sys.StartAdapt(AdaptConfig{}); err == nil {
		t.Errorf("adapt before start must fail")
	}
	dir := t.TempDir()
	if _, err := sys.StartDurable(DurabilityConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}

	// Live switch: virtualize T.s2 without downtime; answers stay exact.
	anns := sys.Plan().Annotations()
	anns["T"] = Ann([]string{"r1", "r3", "s1"}, []string{"s2"})
	flips, err := sys.Reannotate(anns)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 1 || flips[0].String() != "T.s2 m->v" {
		t.Fatalf("flips = %v", flips)
	}
	if sys.Plan().Node("T").Ann.IsMaterialized("s2") {
		t.Fatal("Plan() must expose the live annotation")
	}
	rows, err := sys.Query(`SELECT r1, s2 FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Card() != 3 {
		t.Fatalf("post-switch view: %s", rows)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// The drifted annotation survives a restart through the WAL: the
	// shutdown checkpoint records it, and recovery re-annotates the
	// constructed plan to match.
	if _, err := sys.MustSource("db1").Insert("R", T(5, 20, 11, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Shutdown(); err != nil {
		t.Fatal(err)
	}
	twin := demoSystem(t)
	if _, err := twin.StartDurable(DurabilityConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer twin.Shutdown()
	if ann := twin.Mediator().Annotations()["T"]; ann.IsMaterialized("s2") {
		t.Fatalf("recovered annotation of T = %v, want s2 virtual", ann)
	}
	if rows, err := twin.Query(`SELECT r1, s2 FROM T`); err != nil || rows.Card() != 4 {
		t.Fatalf("recovered view (err %v):\n%s", err, rows)
	}

	// A manual controller through the public surface.
	ctrl, err := sys.StartAdapt(AdaptConfig{Manual: true, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	if dec, err := ctrl.Readvise(true); err != nil || dec == nil {
		t.Fatalf("readvise: %v %v", dec, err)
	}
}
