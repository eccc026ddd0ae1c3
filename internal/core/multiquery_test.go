package core

import (
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// multiExportEnv builds a plan with TWO export relations over the paper's
// sources: T (the join view) and RV = π_{r1,r2} σ_{r4=100} R.
func multiExportEnv(t *testing.T, annT vdp.Annotation, rvVirtual bool) *testEnv {
	t.Helper()
	// Reuse newEnv's sources but a custom plan.
	e := newEnv(t, nil, nil, annT) // builds the standard plan first (ignored below)

	rvSchema := relation.MustSchema("RV", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt}}, "r1")
	rvAnn := vdp.AllMaterialized(rvSchema)
	if rvVirtual {
		rvAnn = vdp.AllVirtual(rvSchema)
	}
	tNode := e.vdp_.Node("T")
	nodes := []*vdp.Node{
		{Name: "R", Schema: rSchema(), Source: "db1"},
		{Name: "S", Schema: sSchema(), Source: "db2"},
		e.vdp_.Node("R'"), e.vdp_.Node("S'"), tNode,
		{Name: "RV", Schema: rvSchema, Export: true, Ann: rvAnn,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R"}},
				Where: algebra.Eq(algebra.A("r4"), algebra.CInt(100)),
				Proj:  []string{"r1", "r2"}}},
	}
	plan, err := vdp.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		VDP:      plan,
		Sources:  map[string]SourceConn{"db1": LocalSource{DB: e.db1}, "db2": LocalSource{DB: e.db2}},
		Clock:    e.clk,
		Recorder: e.rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, e.db1)
	ConnectLocal(med, e.db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	e.med = med
	e.vdp_ = plan
	return e
}

func TestQueryExprJoinOverExports(t *testing.T) {
	e := multiExportEnv(t, nil, false)
	// Join the two exports: T ⋈ RV on r1... attribute names overlap (both
	// have r1, r2 vs T has r1) — joins need disjoint names, so project
	// first.
	expr := algebra.Join{
		L:  algebra.Project{Input: algebra.Scan{Rel: "T"}, Cols: []string{"r1", "s1"}, As: "tl"},
		R:  algebra.Project{Input: algebra.Scan{Rel: "RV"}, Cols: []string{"r2"}, As: "rr"},
		On: algebra.Eq(algebra.A("s1"), algebra.A("r2")),
	}
	res, err := e.med.Query(expr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: evaluate the same expression over recomputed exports.
	truth := e.groundTruth(t)
	want, err := expr.Eval(algebra.MapCatalog(truth))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(want) {
		t.Fatalf("multi-export join:\n%swant\n%s", res.Answer, want)
	}
	if res.Polled != 0 {
		t.Errorf("fully materialized: no polls expected, got %d", res.Polled)
	}
}

func TestQueryExprWithVirtualExports(t *testing.T) {
	// T hybrid and RV fully virtual: the query must build temps for both
	// with ONE poll per source.
	e := multiExportEnv(t, vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}), true)
	expr := algebra.Union{
		L: algebra.Project{Input: algebra.Scan{Rel: "T"}, Cols: []string{"r1"}, As: "u1"},
		R: algebra.Project{Input: algebra.Scan{Rel: "RV"}, Cols: []string{"r1"}, As: "u2"},
	}
	res, err := e.med.Query(expr, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	want, err := expr.Eval(algebra.MapCatalog(truth))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(want) {
		t.Fatalf("virtual multi-export union:\n%swant\n%s", res.Answer, want)
	}
	if res.Polled == 0 || res.Polled > 2 {
		t.Errorf("each source polled at most once: polled=%d", res.Polled)
	}
}

func TestQueryExprSQL(t *testing.T) {
	e := multiExportEnv(t, nil, false)
	res, err := e.med.QuerySQL(`SELECT s1, s2 FROM T WHERE r1 = 1 UNION SELECT r1, r2 FROM RV`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Card() == 0 {
		t.Fatalf("empty answer")
	}
	if _, err := e.med.QuerySQL("garbage", QueryOptions{}); err == nil {
		t.Errorf("parse errors propagate")
	}
	if _, err := e.med.QuerySQL("SELECT r1 FROM R", QueryOptions{}); err == nil {
		t.Errorf("leaf relations are not exports")
	}
	if _, err := e.med.QuerySQL("SELECT r1 FROM NOPE", QueryOptions{}); err == nil {
		t.Errorf("unknown relation")
	}
}

func TestQueryExprConsistencySoak(t *testing.T) {
	// Interleave multi-export queries with commits and update
	// transactions; the checker verifies Multi answers against ν at
	// reflect.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		hybrid := seed%2 == 1
		var annT vdp.Annotation
		if hybrid {
			annT = vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"})
		}
		e := multiExportEnv(t, annT, hybrid)
		expr := algebra.Join{
			L:  algebra.Project{Input: algebra.Scan{Rel: "T"}, Cols: []string{"r1", "s1"}, As: "tl"},
			R:  algebra.Project{Input: algebra.Scan{Rel: "RV"}, Cols: []string{"r2"}, As: "rr"},
			On: algebra.Eq(algebra.A("s1"), algebra.A("r2")),
		}
		for step := 0; step < 20; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				randomCommit(t, e, rng)
			case op < 7:
				if _, err := e.med.RunUpdateTransaction(); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := e.med.Query(expr, QueryOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		env := checker.Environment{
			VDP:     e.vdp_,
			Sources: map[string]*source.DB{"db1": e.db1, "db2": e.db2},
			Trace:   e.rec,
		}
		if err := env.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
