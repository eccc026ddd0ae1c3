package sim

import (
	"reflect"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// buildFederation constructs the canonical two-tier environment: medA
// serves VR over db1.R, medB serves VS over db2.S, the top joins the
// two exports, and the flat plan is the same views composed in one
// mediator for the checkers.
func buildFederation(t *testing.T, d Delays) (*Harness, *vdp.VDP) {
	t.Helper()
	rSchema := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt}}, "r1")
	sSchema := relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")

	ba := vdp.NewBuilder()
	if err := ba.AddSource("db1", rSchema); err != nil {
		t.Fatal(err)
	}
	if err := ba.AddViewSQL("VR", `SELECT r1, r2 FROM R`); err != nil {
		t.Fatal(err)
	}
	planA, err := ba.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb := vdp.NewBuilder()
	if err := bb.AddSource("db2", sSchema); err != nil {
		t.Fatal(err)
	}
	if err := bb.AddViewSQL("VS", `SELECT s1, s2 FROM S`); err != nil {
		t.Fatal(err)
	}
	planB, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}

	bt := vdp.NewBuilder()
	if err := bt.AddSource("meda", planA.Node("VR").Schema); err != nil {
		t.Fatal(err)
	}
	if err := bt.AddSource("medb", planB.Node("VS").Schema); err != nil {
		t.Fatal(err)
	}
	if err := bt.AddViewSQL("T", `SELECT r1, s2 FROM VR JOIN VS ON r2 = s1`); err != nil {
		t.Fatal(err)
	}
	top, err := bt.Build()
	if err != nil {
		t.Fatal(err)
	}

	bf := vdp.NewBuilder()
	if err := bf.AddSource("db1", rSchema); err != nil {
		t.Fatal(err)
	}
	if err := bf.AddSource("db2", sSchema); err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ name, sql string }{
		{"VR", `SELECT r1, r2 FROM R`},
		{"VS", `SELECT s1, s2 FROM S`},
		{"T", `SELECT r1, s2 FROM VR JOIN VS ON r2 = s1`},
	} {
		if err := bf.AddViewSQL(v.name, v.sql); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := bf.Build()
	if err != nil {
		t.Fatal(err)
	}

	r0 := relation.NewSet(rSchema)
	r0.Insert(relation.T(1, 5))
	s0 := relation.NewSet(sSchema)
	s0.Insert(relation.T(5, 100))
	link := LinkDelays{Ann: 1, Comm: 1, QProc: 1}
	h, err := NewHarness(top, map[string]map[string]*relation.Relation{
		"db1": {"R": r0}, "db2": {"S": s0},
	}, d, TierSpec{Name: "meda", Plan: planA, Link: link}, TierSpec{Name: "medb", Plan: planB, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	return h, flat
}

// queryTop runs one top-mediator query transaction on T and records it
// in base coordinates.
func queryTop(t *testing.T, h *Harness) *relation.Relation {
	t.Helper()
	var answer *relation.Relation
	h.Exclusive(func() {
		res, err := h.Query("T", nil, nil, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		answer = res.Answer
	})
	return answer
}

// TestTieredHarnessPropagatesAndChecks drives leaf commits through both
// hops and verifies the §3 consistency checker and the composed
// Theorem 7.2 bound hold on the base-coordinate trace.
func TestTieredHarnessPropagatesAndChecks(t *testing.T) {
	d := Delays{
		Ann:         map[string]clock.Time{"db1": 1, "db2": 1},
		Comm:        map[string]clock.Time{"db1": 1, "db2": 1},
		QProcSource: map[string]clock.Time{"db1": 1, "db2": 1},
		UProc:       1, QProcMed: 1,
	}
	h, flat := buildFederation(t, d)

	if got := queryTop(t, h); got.Len() != 1 {
		t.Fatalf("initial T has %d rows, want 1:\n%s", got.Len(), got)
	}

	for i := int64(0); i < 4; i++ {
		dl := delta.New()
		dl.Insert("R", relation.T(10+i, 200+i))
		if _, err := h.DBs["db1"].Apply(dl); err != nil {
			t.Fatal(err)
		}
		ds := delta.New()
		ds.Insert("S", relation.T(200+i, 1000+i))
		if _, err := h.DBs["db2"].Apply(ds); err != nil {
			t.Fatal(err)
		}
		h.Sim.AdvanceBy(4) // deliver leaf announcements
		h.Exclusive(func() {
			if err := h.FlushAll(nil); err != nil {
				t.Fatal(err)
			}
		})
		h.Sim.AdvanceBy(4) // deliver tier announcements
		h.Exclusive(func() {
			if err := h.FlushAll(nil); err != nil {
				t.Fatal(err)
			}
		})
		if got := queryTop(t, h); got.Len() != int(i)+2 {
			t.Fatalf("round %d: T has %d rows, want %d:\n%s", i, got.Len(), i+2, got)
		}
	}

	env := h.Environment(flat)
	if err := env.CheckConsistency(); err != nil {
		t.Fatalf("composed consistency: %v", err)
	}
	bounds := h.Bounds()
	for _, src := range []string{"db1", "db2"} {
		if bounds[src] == 0 {
			t.Fatalf("composed bound for %s is zero: %v", src, bounds)
		}
	}
	if _, err := env.CheckFreshness(bounds); err != nil {
		t.Fatalf("composed theorem 7.2: %v", err)
	}
}

// TestTieredHarnessTierCrashQuarantines kills the medA link mid-stream:
// announcements are dropped, the next delivered announcement exposes
// the sequence gap, the top quarantines the tier, and a resync heals it.
func TestTieredHarnessTierCrashQuarantines(t *testing.T) {
	d := Delays{
		Ann:         map[string]clock.Time{"db1": 1, "db2": 1},
		Comm:        map[string]clock.Time{"db1": 1, "db2": 1},
		QProcSource: map[string]clock.Time{"db1": 1, "db2": 1},
		UProc:       1, QProcMed: 1,
	}
	h, _ := buildFederation(t, d)

	commit := func(r1, r2 int64) {
		dl := delta.New()
		dl.Insert("R", relation.T(r1, r2))
		if _, err := h.DBs["db1"].Apply(dl); err != nil {
			t.Fatal(err)
		}
		h.Sim.AdvanceBy(4)
		h.Exclusive(func() {
			if err := h.FlushAll(nil); err != nil {
				t.Fatal(err)
			}
		})
		h.Sim.AdvanceBy(4)
	}

	commit(19, 5) // healthy round: the top learns medA's sequence baseline
	h.Fault("meda").Down = true
	commit(20, 5) // medA commits; its announcement to the top is dropped
	if got := h.Fault("meda").DroppedAnns; got == 0 {
		t.Fatal("tier announcement was not dropped while down")
	}
	h.Fault("meda").Down = false
	commit(21, 5) // the next announcement exposes the gap
	h.Exclusive(func() {
		if _, err := h.Top.RunUpdateTransaction(); err != nil {
			t.Fatal(err)
		}
	})
	quarantined := h.Top.QuarantinedSources()
	if len(quarantined) != 1 || quarantined[0] != "meda" {
		t.Fatalf("quarantined = %v, want [meda]", quarantined)
	}
	var err error
	h.Exclusive(func() { err = h.Top.ResyncSource("meda") })
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Top.QuarantinedSources()) != 0 {
		t.Fatalf("quarantine survived resync: %v", h.Top.QuarantinedSources())
	}
	if got := queryTop(t, h); got.Len() != 4 {
		t.Fatalf("post-resync T has %d rows, want 4:\n%s", got.Len(), got)
	}
}

// TestQueryExprStampsBaseReflect: a query over an expression of several
// leaves stamps the same BaseReflect a one-leaf query composes from the
// same Reflect — leaf coordinates behind a tier, Reflect itself with no
// tier.
func TestQueryExprStampsBaseReflect(t *testing.T) {
	rSchema := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt}}, "r1")
	build := func(src string, schema *relation.Schema, view, sql string) *vdp.VDP {
		b := vdp.NewBuilder()
		if err := b.AddSource(src, schema); err != nil {
			t.Fatal(err)
		}
		if err := b.AddViewSQL(view, sql); err != nil {
			t.Fatal(err)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	d := Delays{
		Ann:         map[string]clock.Time{"db1": 1},
		Comm:        map[string]clock.Time{"db1": 1},
		QProcSource: map[string]clock.Time{"db1": 1},
		UProc:       1, QProcMed: 1,
	}
	tierPlan := build("db1", rSchema, "VR", `SELECT r1, r2 FROM R`)
	tiered, err := NewHarness(build("meda", tierPlan.Node("VR").Schema, "T", `SELECT r1, r2 FROM VR`), nil, d,
		TierSpec{Name: "meda", Plan: tierPlan, Link: LinkDelays{Ann: 1, Comm: 1, QProc: 1}})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewHarness(build("db1", rSchema, "T", `SELECT r1, r2 FROM R`), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Harness{tiered, flat} {
		dl := delta.New()
		dl.Insert("R", relation.T(1, 2))
		committed, err := h.DBs["db1"].Apply(dl)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // leaf→tier, then tier→top
			h.Sim.AdvanceBy(4)
			h.Exclusive(func() { err = h.FlushAll(nil) })
			if err != nil {
				t.Fatal(err)
			}
		}
		var one, multi *core.QueryResult
		var errExpr error
		h.Exclusive(func() {
			one, err = h.Top.Query(algebra.SelectFrom("T", nil, nil), core.QueryOptions{})
			multi, errExpr = h.Top.Query(algebra.Union{L: algebra.Scan{Rel: "T"}, R: algebra.Scan{Rel: "T"}}, core.QueryOptions{})
		})
		if err != nil || errExpr != nil {
			t.Fatal(err, errExpr)
		}
		if multi.BaseReflect == nil {
			t.Fatalf("tiers=%d: the union left BaseReflect nil (Reflect %v)", len(h.Tiers), multi.Reflect)
		}
		if !reflect.DeepEqual(multi.Reflect, one.Reflect) || !reflect.DeepEqual(multi.BaseReflect, one.BaseReflect) {
			t.Fatalf("tiers=%d: union reflect=%v base=%v, one-leaf reflect=%v base=%v",
				len(h.Tiers), multi.Reflect, multi.BaseReflect, one.Reflect, one.BaseReflect)
		}
		if multi.BaseReflect["db1"] < committed {
			t.Fatalf("tiers=%d: base %v does not reflect the db1 commit at %d", len(h.Tiers), multi.BaseReflect, committed)
		}
		if len(h.Tiers) == 0 && !reflect.DeepEqual(multi.BaseReflect, multi.Reflect) {
			t.Fatalf("no tiers: BaseReflect %v differs from Reflect %v", multi.BaseReflect, multi.Reflect)
		}
	}
}
