package core

import (
	"sync"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// TestRuntimeCommitsLoneAnnouncementAtOnce: an idle runtime commits the
// moment an announcement arrives — the hold bound is never a wait.
func TestRuntimeCommitsLoneAnnouncementAtOnce(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	rt, err := NewRuntime(e.med, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)

	waitFor(t, 100*time.Millisecond, "lone announcement committed", func() bool { return rt.Flushes() == 1 })
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("store after runtime flush:\n%swant\n%s", got, truth["T"])
	}
}

// gateLog is a CommitLog with SyncBatch semantics: LogCommit buffers a
// record, Sync makes the buffer durable. Its first LogCommit blocks until
// release is closed, holding the runtime inside a transaction.
type gateLog struct {
	entered, release chan struct{}

	mu      sync.Mutex
	commits int
	syncs   int // Syncs that found records to flush
	pending int
	overlap int // LogCommits that found an earlier batch still unsynced
}

func newGateLog() *gateLog {
	return &gateLog{entered: make(chan struct{}), release: make(chan struct{})}
}

func (l *gateLog) LogCommit(*CommitRecord) error {
	l.mu.Lock()
	l.commits++
	first := l.commits == 1
	if l.pending > 0 {
		l.overlap++
	}
	l.pending++
	l.mu.Unlock()
	if first {
		close(l.entered)
		<-l.release
	}
	return nil
}

func (l *gateLog) LogBarrier(uint64, string) error { return nil }

func (l *gateLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending > 0 {
		l.syncs++
		l.pending = 0
	}
	return nil
}

// TestRuntimeGroupCommitsArrivalsDuringTxn: what arrives while a
// transaction runs is the next batch — one transaction for all of it —
// and each drained batch is synced before the next transaction starts.
func TestRuntimeGroupCommitsArrivalsDuringTxn(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	log := newGateLog()
	e.med.SetCommitLog(log)
	rt, err := NewRuntime(e.med, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		d := delta.New()
		d.Insert("R", relation.T(50+i, 20, 11, 100))
		e.db1.MustApply(d)
	}
	insert(0)
	select {
	case <-log.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("runtime never started a transaction")
	}
	const n = 5
	for i := 1; i <= n; i++ {
		insert(i)
	}
	// The blocked transaction removes its own announcement only when it
	// commits, so the queue holds it plus the n arrivals.
	if q := e.med.QueueLen(); q != n+1 {
		t.Fatalf("queue holds %d announcements during the blocked transaction, want %d", q, n+1)
	}
	close(log.release)
	waitFor(t, 2*time.Second, "second batch committed", func() bool { return rt.Flushes() == 2 && e.med.QueueLen() == 0 })
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	commits, syncs, overlap := log.commits, log.syncs, log.overlap
	log.mu.Unlock()
	if rt.Flushes() != 2 || commits != 2 {
		t.Errorf("%d transactions, %d logged commits; want 2: the first, then one for all %d arrivals", rt.Flushes(), commits, n)
	}
	if syncs != 2 || overlap != 0 {
		t.Errorf("%d syncs, %d commits logged over an unsynced batch; want one sync per batch before the next transaction", syncs, overlap)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("store after group commit:\n%swant\n%s", got, truth["T"])
	}
}

// singleSourceEnv is one announcing source under one fully materialized
// export, so nothing but the test can wake the runtime.
func singleSourceEnv(t *testing.T) (*Mediator, *source.DB) {
	t.Helper()
	clk := &clock.Logical{}
	db := source.NewDB("db", clk)
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt}}, "r1")
	r := relation.NewSet(schema)
	r.Insert(relation.T(1, 5))
	if err := db.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	vs := relation.MustSchema("V", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt}}, "r1")
	plan, err := vdp.New(
		&vdp.Node{Name: "R", Schema: schema, Source: "db"},
		&vdp.Node{Name: "V", Schema: vs, Export: true, Ann: vdp.AllMaterialized(vs),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R"}}, Proj: []string{"r1", "r3"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{VDP: plan, Sources: map[string]SourceConn{"db": LocalSource{DB: db}}, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return med, db
}

// TestRuntimeResyncsQuarantineWithoutAnnouncement: a quarantine (here the
// proactive one a wire reconnect raises) wakes the runtime by itself; the
// source is resynced although nothing announces afterwards.
func TestRuntimeResyncsQuarantineWithoutAnnouncement(t *testing.T) {
	for name, build := range map[string]func(*Mediator) (*Runtime, error){
		"hold=1h":          func(m *Mediator) (*Runtime, error) { return NewRuntime(m, time.Hour) },
		"batched window=0": func(m *Mediator) (*Runtime, error) { return NewBatchedRuntime(m, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			med, _ := singleSourceEnv(t)
			rt, err := build(med)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			med.QuarantineSource("db", "transport reconnected")
			waitFor(t, time.Second, "quarantine lifted", func() bool { return len(med.QuarantinedSources()) == 0 })
		})
	}
}

// TestRuntimeRetriesFailedFlush: a flush whose poll fails is retried after
// the hold bound, although nothing announces again.
func TestRuntimeRetriesFailedFlush(t *testing.T) {
	e, flaky := flakyEnv(t, 0, nil)
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	// ΔS forces a poll of db1 (R' virtual); the next poll fails once.
	flaky.failures = flaky.calls + 1
	rt, err := NewBatchedRuntime(e.med, 5*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	d.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d)
	waitFor(t, time.Second, "queue drained after the failed poll", func() bool { return e.med.QueueLen() == 0 })
	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop after the retry drained cleanly: %v", err)
	}
	if rt.ErrCount() != 1 {
		t.Errorf("ErrCount() = %d, want the one failed poll", rt.ErrCount())
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("store after retried flush:\n%swant\n%s", got, truth["T"])
	}
}

// waitFor polls cond until it holds, failing the test after limit.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %s", what, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRuntimeStopDrains(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	rt, err := NewRuntime(e.med, time.Hour) // tick never fires
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	d.Insert("R", relation.T(6, 10, 2, 100))
	e.db1.MustApply(d)
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	if e.med.QueueLen() != 0 {
		t.Errorf("Stop must drain the queue")
	}
	// Stop again is a no-op.
	if err := rt.Stop(); err != nil {
		t.Errorf("double stop: %v", err)
	}
}

func TestRuntimeFlushSynchronous(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	rt, err := NewRuntime(e.med, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	d.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d)
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.med.QueueLen() != 0 {
		t.Errorf("Flush must drain")
	}
	if rt.Err() != nil {
		t.Errorf("unexpected error: %v", rt.Err())
	}
}

func TestRuntimeErrClearsAfterRecovery(t *testing.T) {
	e, flaky := flakyEnv(t, 0, nil)
	if err := e.med.Initialize(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(e.med, time.Hour) // ticks driven by hand
	if err != nil {
		t.Fatal(err)
	}
	// ΔS forces a poll of db1 (R' virtual); make that poll fail.
	d := delta.New()
	d.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d)
	flaky.failures = flaky.calls + 1

	rt.flushAll()
	if rt.Err() == nil {
		t.Fatalf("failed tick must latch an error")
	}
	if e.med.QueueLen() != 1 {
		t.Fatalf("queue must survive the failed tick: %d", e.med.QueueLen())
	}

	// The source recovers; the next fully clean drain must clear the
	// CURRENT condition (Err) while preserving the history (LastErr,
	// ErrCount) — the old behavior latched Err forever, keeping health
	// checks red long after recovery.
	rt.flushAll()
	if err := rt.Err(); err != nil {
		t.Errorf("Err() after clean drain = %v, want nil", err)
	}
	if rt.LastErr() == nil {
		t.Errorf("LastErr() must retain the recovered failure")
	}
	if n := rt.ErrCount(); n != 1 {
		t.Errorf("ErrCount() = %d, want 1", n)
	}
	if e.med.QueueLen() != 0 {
		t.Errorf("clean tick must drain the queue")
	}
	if err := rt.Stop(); err != nil {
		t.Errorf("Stop() after recovery = %v, want nil", err)
	}
}

func TestBatchedRuntimeDrainsOnSignal(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	rt, err := NewBatchedRuntime(e.med, 2*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	d.Insert("R", relation.T(5, 20, 11, 100))
	e.db1.MustApply(d)

	deadline := time.Now().Add(2 * time.Second)
	for e.med.QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.med.QueueLen() != 0 {
		t.Fatalf("batched runtime never drained the queue")
	}
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Errorf("store after batched flush:\n%swant\n%s", got, truth["T"])
	}
}

func TestBatchedRuntimeErrors(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	if _, err := NewBatchedRuntime(nil, time.Millisecond, 0); err == nil {
		t.Errorf("nil mediator")
	}
	if _, err := NewBatchedRuntime(e.med, -time.Millisecond, 0); err == nil {
		t.Errorf("negative window")
	}
	// window=0 is legal, and maxBatch is ignored.
	rt, err := NewBatchedRuntime(e.med, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	if _, err := NewRuntime(nil, time.Second); err == nil {
		t.Errorf("nil mediator")
	}
	if _, err := NewRuntime(e.med, 0); err == nil {
		t.Errorf("zero hold bound")
	}
	rt, _ := NewRuntime(e.med, time.Hour)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		t.Errorf("double start")
	}
	rt.Stop()
}
