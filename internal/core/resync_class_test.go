package core

import (
	"errors"
	"testing"

	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// A resync that fails because the source is still unreachable is a
// transient condition — retrying next tick is the right move — and must
// NOT be classified as overtaken or count toward ResyncStuck.
func TestResyncStillDownNotOvertaken(t *testing.T) {
	e, flaky := flakyEnv(t, 0, nil)
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	e.med.QuarantineSource("db1", "test: simulated announcement gap")
	flaky.failures = flaky.calls + 1

	err := e.med.ResyncSource("db1")
	if err == nil {
		t.Fatalf("resync with failing poll must error")
	}
	if errors.Is(err, ErrResyncOvertaken) {
		t.Fatalf("source-down failure misclassified as overtaken: %v", err)
	}
	st := e.med.Stats()
	if h := st.Sources["db1"]; h.ResyncOvertaken != 0 || h.ResyncStuck {
		t.Errorf("down-source failure must not count toward ResyncStuck: overtaken=%d stuck=%v",
			h.ResyncOvertaken, h.ResyncStuck)
	}
	if st.ResyncsStuck != 0 {
		t.Errorf("ResyncsStuck = %d, want 0", st.ResyncsStuck)
	}

	// The source recovers; the retry succeeds and lifts the quarantine.
	if err := e.med.ResyncSource("db1"); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if q := e.med.QuarantinedSources(); len(q) != 0 {
		t.Errorf("quarantine must lift after successful resync: %v", q)
	}
	if err := e.med.CheckJoinIndexes(); err != nil {
		t.Errorf("store rebuilt by resync: %v", err)
	}
}

// A resync whose snapshot poll is overtaken by newer penned announcements
// will never converge on the retry cadence — consecutive occurrences must
// be classified as ErrResyncOvertaken and flag ResyncStuck, and a later
// success must clear both.
func TestResyncOvertakenClassifiedAndCleared(t *testing.T) {
	e, _ := flakyEnv(t, 0, nil)
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	e.med.QuarantineSource("db1", "test: simulated announcement gap")
	// Pen an announcement stamped well past any near-term poll instant:
	// every resync's snapshot lands before it, so the snapshot cannot
	// vouch for the commits the gap may have lost after it.
	future := e.clk.Now() + 1000
	fd := delta.New()
	fd.Insert("R", relation.T(9, 90, 1, 100))
	e.med.OnAnnouncement(source.Announcement{Source: "db1", Time: future, Delta: fd})

	for i := 1; i <= resyncStuckThreshold; i++ {
		err := e.med.ResyncSource("db1")
		if !errors.Is(err, ErrResyncOvertaken) {
			t.Fatalf("attempt %d: err = %v, want ErrResyncOvertaken", i, err)
		}
		h := e.med.Stats().Sources["db1"]
		if h.ResyncOvertaken != i {
			t.Errorf("attempt %d: ResyncOvertaken = %d", i, h.ResyncOvertaken)
		}
		if want := i >= resyncStuckThreshold; h.ResyncStuck != want {
			t.Errorf("attempt %d: ResyncStuck = %v, want %v", i, h.ResyncStuck, want)
		}
	}
	if got := e.med.Stats().ResyncsStuck; got != 1 {
		t.Errorf("ResyncsStuck = %d, want 1", got)
	}

	// Once the clock passes the penned announcement, the next snapshot
	// poll covers it: the resync converges and the condition clears.
	for e.clk.Now() <= future {
	}
	if err := e.med.ResyncSource("db1"); err != nil {
		t.Fatalf("resync after clock passed the pen: %v", err)
	}
	st := e.med.Stats()
	if h := st.Sources["db1"]; h.ResyncOvertaken != 0 || h.ResyncStuck {
		t.Errorf("success must clear the condition: overtaken=%d stuck=%v",
			h.ResyncOvertaken, h.ResyncStuck)
	}
	if st.ResyncsStuck != 0 {
		t.Errorf("ResyncsStuck after success = %d, want 0", st.ResyncsStuck)
	}
	if q := e.med.QuarantinedSources(); len(q) != 0 {
		t.Errorf("quarantine must lift: %v", q)
	}
	if err := e.med.CheckJoinIndexes(); err != nil {
		t.Errorf("store rebuilt by resync: %v", err)
	}
}
