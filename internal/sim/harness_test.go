package sim

import (
	"fmt"
	"strings"
	"testing"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// simPlan builds the paper's T view over R@db1 and S@db2 with optional
// annotations.
func simPlan(t testing.TB, annotate func(b *vdp.Builder)) *vdp.VDP {
	t.Helper()
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}, {Name: "r4", Type: relation.KindInt}}, "r1")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("db2", relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`); err != nil {
		t.Fatal(err)
	}
	if annotate != nil {
		annotate(b)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func testDelays() Delays {
	return Delays{
		Ann:         map[string]clock.Time{"db1": 100, "db2": 300},
		Comm:        map[string]clock.Time{"db1": 20, "db2": 50},
		QProcSource: map[string]clock.Time{"db1": 10, "db2": 15},
		UHold:       1000,
		UProc:       50,
		QProcMed:    5,
	}
}

// driveWorkload schedules periodic commits and queries up to the horizon.
func driveWorkload(h *Harness, horizon clock.Time, queryAttrs []string) {
	next := int64(1000)
	for t := clock.Time(137); t < horizon; t += 713 {
		t := t
		h.ScheduleCommit(t, "db1", func() *delta.Delta {
			next++
			d := delta.New()
			d.Insert("R", relation.T(next, 10*(1+next%4), next%50, 100))
			return d
		})
	}
	for t := clock.Time(401); t < horizon; t += 977 {
		t := t
		h.ScheduleCommit(t, "db2", func() *delta.Delta {
			next++
			d := delta.New()
			d.Insert("S", relation.T(10*(1+next%4), next%9, int64(t)%60))
			return d
		})
	}
	for t := clock.Time(550); t < horizon; t += 1103 {
		h.ScheduleQuery(t, "T", queryAttrs)
	}
}

func TestTheorem72FreshnessFullyMaterialized(t *testing.T) {
	plan := simPlan(t, nil)
	d := testDelays()
	h, err := NewHarness(plan, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	h.Sim.Horizon = 40000
	driveWorkload(h, 40000, nil)
	h.Sim.Run()

	env := h.Environment(h.Plan)
	if err := env.CheckConsistency(); err != nil {
		t.Fatalf("simulated run inconsistent: %v", err)
	}
	bounds := h.Bounds()
	worst, err := env.CheckFreshness(bounds)
	if err != nil {
		t.Fatalf("freshness bound violated: %v (bounds %v)", err, bounds)
	}
	// Sanity: staleness is real (non-zero) and bounded.
	if worst["db1"] == 0 && worst["db2"] == 0 {
		t.Errorf("no staleness observed; workload too idle? worst=%v", worst)
	}
	_, q := h.Rec.Len()
	if q < 10 {
		t.Errorf("too few queries recorded: %d", q)
	}
}

func TestTheorem72FreshnessHybrid(t *testing.T) {
	// T hybrid (s2 virtual) with S' fully virtual: queries touching s2
	// must poll db2, with Eager Compensation under real delays.
	plan := simPlan(t, func(b *vdp.Builder) {
		b.Annotate("T", vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}))
		b.Annotate("S'", vdp.Ann(nil, []string{"s1", "s2"}))
	})
	d := testDelays()
	h, err := NewHarness(plan, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	h.Sim.Horizon = 40000
	driveWorkload(h, 40000, []string{"r1", "s2"})
	h.Sim.Run()

	env := h.Environment(h.Plan)
	if err := env.CheckConsistency(); err != nil {
		t.Fatalf("hybrid simulated run inconsistent: %v", err)
	}
	bounds := h.Bounds()
	if _, err := env.CheckFreshness(bounds); err != nil {
		t.Fatalf("freshness bound violated: %v", err)
	}
	if h.Top.Stats().SourcePolls <= 2 {
		t.Errorf("hybrid queries should poll: %+v", h.Top.Stats())
	}
}

func TestStalenessGrowsWithHoldDelay(t *testing.T) {
	run := func(hold clock.Time) clock.Time {
		plan := simPlan(t, nil)
		d := testDelays()
		d.UHold = hold
		h, err := NewHarness(plan, nil, d)
		if err != nil {
			t.Fatal(err)
		}
		h.Sim.Horizon = 60000
		driveWorkload(h, 60000, nil)
		h.Sim.Run()
		worst, err := h.Environment(h.Plan).CheckFreshness(clock.Vector{})
		if err != nil {
			t.Fatal(err)
		}
		return worst["db1"]
	}
	small, large := run(500), run(8000)
	if large <= small {
		t.Errorf("staleness should grow with u_hold: %d (hold=500) vs %d (hold=8000)", small, large)
	}
}

func TestInitialStateLoading(t *testing.T) {
	plan := simPlan(t, nil)
	r := relation.NewSet(plan.Node("R").Schema)
	r.Insert(relation.T(1, 10, 5, 100))
	s := relation.NewSet(plan.Node("S").Schema)
	s.Insert(relation.T(10, 1, 20))
	h, err := NewHarness(plan, map[string]map[string]*relation.Relation{
		"db1": {"R": r}, "db2": {"S": s},
	}, testDelays())
	if err != nil {
		t.Fatal(err)
	}
	got := h.Top.StoreSnapshot("T")
	if got == nil || got.Card() != 1 {
		t.Fatalf("initial view: %v", got)
	}
}

// TestTwoSourcePollsStayOnSimGoroutine: with T and both leaf-parents
// virtual, every query polls db1 and db2 in one pass. The simulator is a
// clock.Sequential, so the mediator must issue those polls on the
// simulation's goroutine: the run is then race-free and its trace is the
// same on every run.
func TestTwoSourcePollsStayOnSimGoroutine(t *testing.T) {
	run := func() string {
		plan := simPlan(t, func(b *vdp.Builder) {
			b.Annotate("T", vdp.Ann(nil, []string{"r1", "r3", "s1", "s2"}))
			b.Annotate("R'", vdp.Ann(nil, []string{"r1", "r2", "r3"}))
			b.Annotate("S'", vdp.Ann(nil, []string{"s1", "s2"}))
		})
		h, err := NewHarness(plan, nil, testDelays())
		if err != nil {
			t.Fatal(err)
		}
		h.Sim.Horizon = 20000
		driveWorkload(h, 20000, nil)
		h.Sim.Run()
		if err := h.Environment(h.Plan).CheckConsistency(); err != nil {
			t.Fatalf("inconsistent: %v", err)
		}
		var b strings.Builder
		for _, q := range h.Rec.Queries() {
			if q.Polled != 2 {
				t.Fatalf("query at %d polled %d sources, want 2", q.Committed, q.Polled)
			}
			fmt.Fprintf(&b, "%d %v\n%s", q.Committed, q.Reflect, q.Answer)
		}
		return b.String()
	}
	first := run()
	if first == "" {
		t.Fatal("no queries ran")
	}
	if again := run(); again != first {
		t.Fatalf("trace differs between runs:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
}
