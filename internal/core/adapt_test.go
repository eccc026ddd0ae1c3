package core

import (
	"strings"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// hotR1Workload issues n queries touching only T.r1, making r1 the lone
// hot attribute of the window.
func hotR1Workload(t *testing.T, e *testEnv, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.med.Query(algebra.SelectFrom("T", []string{"r1"}, nil), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProfileCollectorWindows(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	col := NewProfileCollector(e.med)
	if q := col.PendingQueries(); q != 0 {
		t.Fatalf("fresh collector window has %d queries", q)
	}
	hotR1Workload(t, e, 4)
	d := delta.New()
	d.Insert("R", relation.T(9, 10, 9, 100))
	e.db1.MustApply(d)

	// Peek does not end the window.
	p, q := col.Peek()
	if q != 4 {
		t.Fatalf("peeked %d queries, want 4", q)
	}
	if p.AccessFreq["r1"] != 1 || p.AccessFreq["s2"] != 0 {
		t.Fatalf("AccessFreq = %v", p.AccessFreq)
	}
	if p.UpdateShare["db1"] != 1 || p.UpdateShare["db2"] != 0 {
		t.Fatalf("UpdateShare = %v", p.UpdateShare)
	}
	if _, q2 := col.Peek(); q2 != 4 {
		t.Fatal("Peek consumed the window")
	}

	// Collect ends it: the next window starts empty.
	if _, q3 := col.Collect(); q3 != 4 {
		t.Fatalf("collected %d queries, want 4", q3)
	}
	p4, q4 := col.Peek()
	if q4 != 0 {
		t.Fatalf("window not reset: %d queries", q4)
	}
	if p4.AccessFreq["r1"] != 0 {
		t.Fatalf("stale access freq after Collect: %v", p4.AccessFreq)
	}
}

func TestAdaptControllerStepGates(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	ctrl := NewAdaptController(e.med, AdaptConfig{MinQueries: 3, HysteresisRounds: 2})

	// Gate 1: thin window — skip without consuming.
	d, err := ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if d.Applied || !strings.Contains(d.Skipped, "keep observing") {
		t.Fatalf("thin window: %+v", d)
	}

	// Gate 2: hysteresis — the first qualifying round only arms the flip.
	hotR1Workload(t, e, 5)
	d, err = ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Flips) == 0 || d.Applied || !strings.Contains(d.Skipped, "hysteresis") {
		t.Fatalf("first advised round: %+v", d)
	}

	// Same workload again: the flip set repeats and applies (no cooldown
	// yet — nothing was ever applied).
	hotR1Workload(t, e, 5)
	d, err = ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Applied {
		t.Fatalf("second advised round should apply: %+v", d)
	}
	ann := e.med.VDP().Node("T").Ann
	if ann.IsMaterialized("s2") || !ann.IsMaterialized("r1") {
		t.Fatalf("annotation not adapted: %v", ann)
	}

	// Steady state: the advisor now agrees with the live annotation.
	hotR1Workload(t, e, 5)
	d, err = ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Flips) != 0 || !strings.Contains(d.Skipped, "matches") {
		t.Fatalf("steady state: %+v", d)
	}

	// Gate 3: cooldown — shift the workload immediately; even after
	// hysteresis the switch is deferred.
	for i := 0; i < 2; i++ {
		for j := 0; j < 5; j++ {
			if _, err := e.med.Query(algebra.SelectFrom("T", []string{"s2"}, nil), QueryOptions{KeyBased: KeyBasedOff}); err != nil {
				t.Fatal(err)
			}
		}
		if d, err = ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Applied || !strings.Contains(d.Skipped, "cooldown") {
		t.Fatalf("cooldown round: %+v", d)
	}
	if ctrl.Rounds() != 6 || ctrl.Applied() != 1 {
		t.Fatalf("rounds=%d applied=%d", ctrl.Rounds(), ctrl.Applied())
	}
	if ctrl.LastDecision() != d {
		t.Fatal("LastDecision should return the latest round")
	}
}

func TestAdaptControllerManualAndReadvise(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	ctrl := NewAdaptController(e.med, AdaptConfig{MinQueries: 1, HysteresisRounds: 1, Manual: true})
	hotR1Workload(t, e, 5)

	// Manual mode: the loop proposes but never applies.
	d, err := ctrl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if d.Applied || !strings.Contains(d.Skipped, "manual") {
		t.Fatalf("manual round: %+v", d)
	}
	if !e.med.VDP().Node("T").Ann.IsMaterialized("s2") {
		t.Fatal("manual mode must not re-annotate")
	}

	// Dry run: report without consuming the window or changing anything.
	hotR1Workload(t, e, 3)
	d, err = ctrl.Readvise(true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Applied || len(d.Flips) == 0 || d.Skipped != "dry run" {
		t.Fatalf("dry run: %+v", d)
	}
	if !e.med.VDP().Node("T").Ann.IsMaterialized("s2") {
		t.Fatal("dry run must not re-annotate")
	}

	// Operator-triggered apply: bypasses manual mode and hysteresis, and
	// the dry run above left the window intact for it.
	d, err = ctrl.Readvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Applied || len(d.Flips) == 0 {
		t.Fatalf("readvise apply: %+v", d)
	}
	if e.med.VDP().Node("T").Ann.IsMaterialized("s2") {
		t.Fatal("readvise did not re-annotate")
	}
	queryTruth(t, e)
}
