package core

import (
	"fmt"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// flakyConn fails its first N QueryMulti calls, then delegates.
type flakyConn struct {
	inner    SourceConn
	failures int
	calls    int
}

func (f *flakyConn) Name() string { return f.inner.Name() }

func (f *flakyConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, 0, fmt.Errorf("injected network failure %d", f.calls)
	}
	return f.inner.QueryMulti(specs)
}

// flakyEnv wires the paper fixture with a flaky db1 connection (R' virtual
// so db1 gets polled during ΔS processing and cold queries).
func flakyEnv(t *testing.T, failures int, annT vdp.Annotation) (*testEnv, *flakyConn) {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 20, 7, 100))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	db1.LoadRelation(r)
	db2.LoadRelation(s)
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	plan := paperPlan(t, vdp.AllVirtual(rp), nil, annT)
	flaky := &flakyConn{inner: LocalSource{DB: db1}, failures: failures}
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP:      plan,
		Sources:  map[string]SourceConn{"db1": flaky, "db2": LocalSource{DB: db2}},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	return &testEnv{clk: clk, db1: db1, db2: db2, med: med, rec: rec, vdp_: plan}, flaky
}

func TestInitializeFailureIsRetryable(t *testing.T) {
	e, _ := flakyEnv(t, 1, nil)
	if err := e.med.Initialize(); err == nil {
		t.Fatalf("first initialize must fail")
	}
	// Second attempt succeeds (the failure consumed the flaky budget).
	if err := e.med.Initialize(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if e.med.StoreSnapshot("T") == nil {
		t.Fatalf("store empty after retried initialize")
	}
}

func TestUpdateTransactionPollFailureLeavesQueueIntact(t *testing.T) {
	e, flaky := flakyEnv(t, 0, nil)
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	// ΔS forces a poll of db1 (R' virtual). Make the NEXT poll fail.
	flaky.failures = flaky.calls + 1
	d := delta.New()
	d.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d)

	if _, err := e.med.RunUpdateTransaction(); err == nil {
		t.Fatalf("transaction with failing poll must error")
	}
	// Nothing was drained; the store is unchanged; a retry succeeds.
	if e.med.QueueLen() != 1 {
		t.Fatalf("queue must be intact after failure: %d", e.med.QueueLen())
	}
	before := e.med.StoreSnapshot("T")
	if before.Contains(relation.T(0, 0, 40, 4)) {
		t.Fatalf("partial effects leaked")
	}
	ran, err := e.med.RunUpdateTransaction()
	if err != nil || !ran {
		t.Fatalf("retry: ran=%v err=%v", ran, err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("after retry:\n%swant\n%s", got, truth["T"])
	}
}

func TestQueryPollFailureDoesNotRecordTransaction(t *testing.T) {
	// T hybrid with r3 virtual: cold queries must poll db1.
	e, flaky := flakyEnv(t, 0, vdp.Ann([]string{"r1", "s1", "s2"}, []string{"r3"}))
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	_, qBefore := e.rec.Len()
	flaky.failures = flaky.calls + 1
	// A cold query over virtual data must poll db1 — and fail cleanly.
	if _, err := e.med.Query(algebra.SelectFrom("T", []string{"r3"}, nil), QueryOptions{KeyBased: KeyBasedOff}); err == nil {
		t.Fatalf("query with failing poll must error")
	}
	_, qAfter := e.rec.Len()
	if qAfter != qBefore {
		t.Fatalf("failed query must not be recorded as a transaction")
	}
	// Subsequent query works.
	if _, err := e.med.Query(algebra.SelectFrom("T", []string{"r3"}, nil), QueryOptions{}); err != nil {
		t.Fatalf("retry query: %v", err)
	}
}
