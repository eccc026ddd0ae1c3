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

// restoreEnv builds a second mediator over the SAME source databases and
// restores the snapshot into it, wiring announcement feeds with replay.
func restoreEnv(t *testing.T, e *testEnv, snap *StateSnapshot) *Mediator {
	t.Helper()
	med2, err := New(Config{
		VDP:      e.vdp_,
		Sources:  map[string]SourceConn{"db1": LocalSource{DB: e.db1}, "db2": LocalSource{DB: e.db2}},
		Clock:    e.clk,
		Recorder: trace.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med2, e.db1)
	ConnectLocal(med2, e.db2)
	if err := med2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Catch up on everything committed after the snapshot's ref′.
	lp := med2.LastProcessed()
	e.db1.ReplaySince(lp["db1"], med2.OnAnnouncement)
	e.db2.ReplaySince(lp["db2"], med2.OnAnnouncement)
	return med2
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	// Advance past the initial state.
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The mediator "goes down"; the sources keep committing.
	d2 := delta.New()
	d2.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d2)
	d3 := delta.New()
	d3.Delete("R", relation.T(1, 10, 5, 100))
	e.db1.MustApply(d3)

	med2 := restoreEnv(t, e, snap)
	for {
		ran, err := med2.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	truth := e.groundTruth(t)
	if got := med2.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("restored mediator diverged:\n%swant\n%s", got, truth["T"])
	}
	// Queries work and report sane reflect vectors.
	res, err := med2.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reflect.AllAtOrBefore(res.Committed) {
		t.Errorf("chronology after restore")
	}
}

// A snapshot is a COPY of the durable state: mutating what it hands out
// must never reach back into the mediator's published store or its ref′
// vector.
func TestSnapshotIsolatedFromMediator(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	snap, err := e.med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := e.med.StoreSnapshot("T")
	lpBefore := e.med.LastProcessed()

	// Trash everything the snapshot handed out.
	for _, rel := range snap.Store {
		rel.Clear()
	}
	for src := range snap.LastProcessed {
		snap.LastProcessed[src] = 999999
	}

	if got := e.med.StoreSnapshot("T"); !got.Equal(before) {
		t.Fatalf("mutating a snapshot reached the mediator store:\n%swant\n%s", got, before)
	}
	lpAfter := e.med.LastProcessed()
	for src, want := range lpBefore {
		if lpAfter[src] != want {
			t.Errorf("mutating snapshot.LastProcessed reached ref′: %s = %d, want %d",
				src, lpAfter[src], want)
		}
	}
	// The mediator still answers correctly.
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("store diverged from ground truth after snapshot mutation")
	}
}

// Restore must deep-copy the snapshot it installs: the caller keeps
// ownership and may reuse or mutate it (e.g. restoring the same snapshot
// into a second mediator).
func TestRestoreIsolatedFromCaller(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	snap, err := e.med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	med2 := restoreEnv(t, e, snap)
	before := med2.StoreSnapshot("T")
	lpBefore := med2.LastProcessed()

	for _, rel := range snap.Store {
		rel.Clear()
	}
	for src := range snap.LastProcessed {
		snap.LastProcessed[src] = 999999
	}

	if got := med2.StoreSnapshot("T"); !got.Equal(before) {
		t.Fatalf("mutating the snapshot after Restore reached the mediator:\n%swant\n%s", got, before)
	}
	lpAfter := med2.LastProcessed()
	for src, want := range lpBefore {
		if lpAfter[src] != want {
			t.Errorf("mutating snapshot.LastProcessed after Restore reached ref′: %s = %d, want %d",
				src, lpAfter[src], want)
		}
	}
}

func TestSnapshotReplayDedup(t *testing.T) {
	// Over-replay (from time zero) must be harmless: the dedup drops
	// announcements at or before ref′.
	e := newEnv(t, nil, nil, nil)
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	med2 := restoreEnv(t, e, snap)
	// Replay EVERYTHING again.
	e.db1.ReplaySince(0, med2.OnAnnouncement)
	e.db2.ReplaySince(0, med2.OnAnnouncement)
	for {
		ran, err := med2.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	truth := e.groundTruth(t)
	if got := med2.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("over-replay corrupted the store:\n%swant\n%s", got, truth["T"])
	}
}

func TestSnapshotHybridStores(t *testing.T) {
	e := newEnv(t, nil, nil, vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	snap, err := e.med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Store["T"]; !ok {
		t.Fatalf("hybrid store missing from snapshot")
	}
	if snap.Store["T"].Schema().Arity() != 2 {
		t.Errorf("hybrid snapshot should hold the materialized projection: %s", snap.Store["T"].Schema())
	}
	med2 := restoreEnv(t, e, snap)
	res, err := med2.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Card() == 0 {
		t.Errorf("restored hybrid store empty")
	}
}

func TestSnapshotErrors(t *testing.T) {
	// Snapshot of an uninitialized mediator.
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
	if _, err := med.Snapshot(); err == nil {
		t.Errorf("snapshot before initialize must fail")
	}
	if err := med.Restore(nil); err == nil {
		t.Errorf("nil snapshot must fail")
	}
	if err := med.Restore(&StateSnapshot{Store: map[string]*relation.Relation{}}); err == nil {
		t.Errorf("missing stores must fail")
	}
	// Restore into an initialized mediator.
	e := newEnv(t, nil, nil, nil)
	snap, _ := e.med.Snapshot()
	if err := e.med.Restore(snap); err == nil {
		t.Errorf("restore into initialized mediator must fail")
	}
	// Snapshot with an unknown node.
	bad, _ := e.med.Snapshot()
	bad.Store["GHOST"] = relation.NewBag(rSchema().Rename("GHOST"))
	if err := med.Restore(bad); err == nil {
		t.Errorf("unknown store must fail")
	}
	// Shape mismatch.
	bad2, _ := e.med.Snapshot()
	bad2.Store["T"] = relation.NewBag(relation.MustSchema("T",
		[]relation.Attribute{{Name: "x", Type: relation.KindString}}))
	if err := med.Restore(bad2); err == nil {
		t.Errorf("shape mismatch must fail")
	}
}
