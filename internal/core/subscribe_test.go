package core

import (
	"sync"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/store"
	"squirrel/internal/vdp"
)

// commitR inserts one fresh R row that joins into T and runs one update
// transaction, returning the newly published version.
func (e *testEnv) commitR(t testing.TB, key int64) *store.Version {
	t.Helper()
	d := delta.New()
	d.Insert("R", relation.T(key, 10, key%7, 100))
	e.db1.MustApply(d)
	if ran, err := e.med.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("commit %d: ran=%v err=%v", key, ran, err)
	}
	return e.med.CurrentVersion()
}

// recvNow drains one frame that must already be queued (the update
// transaction has committed, so delivery may not block).
func recvNow(t testing.TB, sub *Subscription) SubFrame {
	t.Helper()
	f, ok, err := sub.TryRecv()
	if err != nil {
		t.Fatalf("TryRecv: %v", err)
	}
	if !ok {
		t.Fatalf("no frame ready")
	}
	return f
}

// applyFrame folds one frame into the subscriber's replica of the export.
func applyFrame(t testing.TB, replica **relation.Relation, f SubFrame) {
	t.Helper()
	switch f.Kind {
	case SubSnapshot:
		*replica = f.Snapshot.Clone()
	case SubDelta:
		if err := f.Delta.ApplyTo(*replica, false); err != nil {
			t.Fatalf("apply frame v%d: %v", f.Version, err)
		}
	}
}

// TestSubscribeStreamMatchesPull is the core delivery contract: the first
// frame is a snapshot of the current version, every commit yields one
// in-order delta frame, and applying them reconstructs, after the frame
// for version v, exactly the relation a pull query pinned at v sees.
func TestSubscribeStreamMatchesPull(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := e.med.Stats().ActiveSubscribers; got != 1 {
		t.Fatalf("active subscriptions = %d", got)
	}

	first := recvNow(t, sub)
	cur := e.med.CurrentVersion()
	if first.Kind != SubSnapshot || first.Version != cur.Seq() || first.Stamp != cur.Stamp() {
		t.Fatalf("first frame: kind=%v v=%d stamp=%d (store v%d@%d)",
			first.Kind, first.Version, first.Stamp, cur.Seq(), cur.Stamp())
	}
	if !first.Snapshot.Equal(cur.Rel("T")) {
		t.Fatalf("snapshot differs from store")
	}
	var replica *relation.Relation
	applyFrame(t, &replica, first)

	versions := map[uint64]*store.Version{}
	for i := int64(0); i < 5; i++ {
		v := e.commitR(t, 100+i)
		versions[v.Seq()] = v
	}
	prev := first.Version
	for i := 0; i < 5; i++ {
		f := recvNow(t, sub)
		if f.Kind != SubDelta || f.First != prev+1 || f.Version != f.First || f.Coalesced != 0 {
			t.Fatalf("frame %d: kind=%v first=%d v=%d coalesced=%d (prev %d)",
				i, f.Kind, f.First, f.Version, f.Coalesced, prev)
		}
		prev = f.Version
		applyFrame(t, &replica, f)
		pinned := versions[f.Version]
		if pinned == nil {
			t.Fatalf("frame for unknown version %d", f.Version)
		}
		if f.Stamp != pinned.Stamp() || f.Reflect["db1"] != pinned.RefOf("db1") {
			t.Fatalf("frame v%d metadata: stamp=%d reflect=%v", f.Version, f.Stamp, f.Reflect)
		}
		if !replica.Equal(pinned.Rel("T")) {
			t.Fatalf("after frame v%d: replica %s != pinned %s",
				f.Version, replica, pinned.Rel("T"))
		}
	}
	if _, ok, _ := sub.TryRecv(); ok {
		t.Fatal("unexpected extra frame")
	}
	st := e.med.Stats()
	if st.ActiveSubscribers != 1 || st.SubFramesDelivered != 6 {
		t.Fatalf("stats: %+v", st)
	}
	sub.Close()
	if err := sub.Err(); err != ErrSubscriptionClosed {
		t.Fatalf("terminal err = %v", err)
	}
	if got := e.med.Stats().ActiveSubscribers; got != 0 {
		t.Fatalf("active after close = %d", got)
	}
}

// TestSubscribeBackpressureCoalesces pins the overflow policy: past
// MaxQueue, new frames smash into the tail; the coalesced frame covers a
// contiguous version range and composes to the same final state.
func TestSubscribeBackpressureCoalesces(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var replica *relation.Relation
	applyFrame(t, &replica, recvNow(t, sub))

	for i := int64(0); i < 6; i++ {
		e.commitR(t, 200+i)
	}
	final := e.med.CurrentVersion()
	var frames []SubFrame
	for {
		f, ok, err := sub.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		frames = append(frames, f)
		applyFrame(t, &replica, f)
	}
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2 (bounded queue)", len(frames))
	}
	tail := frames[1]
	if tail.Coalesced != 4 || tail.Version != final.Seq() || tail.First != frames[0].Version+1 {
		t.Fatalf("coalesced tail: first=%d v=%d coalesced=%d", tail.First, tail.Version, tail.Coalesced)
	}
	if !replica.Equal(final.Rel("T")) {
		t.Fatalf("replica %s != final %s", replica, final.Rel("T"))
	}
	if st := e.med.Stats(); st.SubCoalesces != 4 {
		t.Fatalf("SubCoalesces = %d", st.SubCoalesces)
	}
}

// TestSubscribeStalledSubscriberDoesNotBlockCommits is the ISSUE's
// acceptance check: a subscriber that never consumes costs bounded memory
// and zero commit-path latency — every commit still runs to completion.
func TestSubscribeStalledSubscriberDoesNotBlockCommits(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	before := e.med.StoreVersion()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 50; i++ {
			e.commitR(t, 300+i)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("commits stalled behind a non-consuming subscriber")
	}
	if got := e.med.StoreVersion(); got != before+50 {
		t.Fatalf("store version %d, want %d", got, before+50)
	}
}

// TestSubscribeMaxLagDropsToSnapshot pins Theorem 7.2 as a delivery
// contract: when the backlog's age exceeds MaxLag, the queue is dropped
// and the subscriber resyncs from a fresh snapshot.
func TestSubscribeMaxLagDropsToSnapshot(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{MaxLag: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var replica *relation.Relation
	applyFrame(t, &replica, recvNow(t, sub))

	// Each commit advances the logical clock by several ticks, so the
	// second undelivered frame already trails by more than MaxLag=1.
	for i := int64(0); i < 4; i++ {
		e.commitR(t, 400+i)
	}
	st := e.med.Stats()
	if st.SubLagDrops == 0 {
		t.Fatalf("no lag drops recorded: %+v", st)
	}
	f := recvNow(t, sub)
	if f.Kind != SubSnapshot {
		t.Fatalf("post-lag frame kind = %v", f.Kind)
	}
	applyFrame(t, &replica, f)
	if cur := e.med.CurrentVersion(); f.Version != cur.Seq() || !replica.Equal(cur.Rel("T")) {
		t.Fatalf("resync snapshot at v%d (store v%d)", f.Version, cur.Seq())
	}
}

// TestSubscribeResumeFromVersion pins reconnect semantics: a resume point
// the ring still covers replays the missed delta frames; one it no longer
// covers degrades to a snapshot (counted as a resync).
func TestSubscribeResumeFromVersion(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var replica *relation.Relation
	applyFrame(t, &replica, recvNow(t, sub))
	resumeAt := sub.Delivered()
	sub.Close()

	for i := int64(0); i < 3; i++ {
		e.commitR(t, 500+i)
	}
	sub2, err := e.med.Subscribe("T", SubscribeOptions{FromVersion: resumeAt})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	prev := resumeAt
	for i := 0; i < 3; i++ {
		f := recvNow(t, sub2)
		if f.Kind != SubDelta || f.First != prev+1 {
			t.Fatalf("resume frame %d: kind=%v first=%d (prev %d)", i, f.Kind, f.First, prev)
		}
		prev = f.Version
		applyFrame(t, &replica, f)
	}
	cur := e.med.CurrentVersion()
	if prev != cur.Seq() || !replica.Equal(cur.Rel("T")) {
		t.Fatalf("resumed replica diverges at v%d", prev)
	}

	// Push the resume point off the ring: after subRingCap more commits the
	// ring no longer covers it, so the reconnect falls back to a snapshot.
	for i := int64(0); i < subRingCap+1; i++ {
		e.commitR(t, 600+i)
	}
	resyncsBefore := e.med.Stats().SubSnapshotResyncs
	sub3, err := e.med.Subscribe("T", SubscribeOptions{FromVersion: resumeAt})
	if err != nil {
		t.Fatal(err)
	}
	defer sub3.Close()
	f := recvNow(t, sub3)
	if f.Kind != SubSnapshot || f.Version != e.med.StoreVersion() {
		t.Fatalf("off-ring resume frame: kind=%v v=%d", f.Kind, f.Version)
	}
	if got := e.med.Stats().SubSnapshotResyncs; got != resyncsBefore+1 {
		t.Fatalf("SubSnapshotResyncs = %d, want %d", got, resyncsBefore+1)
	}
}

// TestSubscribeBarrierOnResync pins the barrier rule: a publish that
// bypassed the kernel (source resync) has no sound delta stream, so every
// live subscriber is forced onto a fresh snapshot.
func TestSubscribeBarrierOnResync(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	sub, err := e.med.Subscribe("T", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var replica *relation.Relation
	applyFrame(t, &replica, recvNow(t, sub))
	e.commitR(t, 700)

	if err := e.med.ResyncSource("db1"); err != nil {
		t.Fatal(err)
	}
	// The pre-barrier delta frame was discarded with the queue: delivery
	// continues from a snapshot of the post-resync store.
	f := recvNow(t, sub)
	if f.Kind != SubSnapshot {
		t.Fatalf("post-barrier frame kind = %v", f.Kind)
	}
	applyFrame(t, &replica, f)
	cur := e.med.CurrentVersion()
	if f.Version != cur.Seq() || !replica.Equal(cur.Rel("T")) {
		t.Fatalf("post-barrier snapshot at v%d (store v%d)", f.Version, cur.Seq())
	}
}

// TestSubscribeIneligibleExport: only fully materialized exports have an
// exact store-side delta stream to subscribe to.
func TestSubscribeIneligibleExport(t *testing.T) {
	e := newEnv(t, nil, nil, vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}))
	if _, err := e.med.Subscribe("T", SubscribeOptions{}); err == nil {
		t.Fatal("subscribe to a partially virtual export must fail")
	}
	if _, err := e.med.Subscribe("NOPE", SubscribeOptions{}); err == nil {
		t.Fatal("subscribe to an unknown export must fail")
	}
}

// TestSubscriptionSoak races fast, slow, and disconnect-resume
// subscribers against concurrent staged-kernel commits (run under -race
// in CI). Every replica must converge to the final published version, and
// every in-flight comparison against a pinned version must match.
func TestSubscriptionSoak(t *testing.T) {
	const commits = 150

	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	med, err := New(Config{
		VDP: paperPlan(t, nil, nil, nil),
		Sources: map[string]SourceConn{
			"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}

	// pinned records every published version so subscribers can compare
	// mid-stream; the committer stores the pointer after RunUpdateTransaction
	// returns, so a subscriber may briefly see a frame before its pin.
	var pinMu sync.Mutex
	pinned := map[uint64]*store.Version{}
	pin := func(v *store.Version) {
		pinMu.Lock()
		pinned[v.Seq()] = v
		pinMu.Unlock()
	}
	lookup := func(seq uint64) *store.Version {
		pinMu.Lock()
		defer pinMu.Unlock()
		return pinned[seq]
	}
	pin(med.CurrentVersion())

	commitErr := make(chan error, 1)
	committerDone := make(chan struct{})
	go func() {
		defer close(committerDone)
		for i := int64(0); i < commits; i++ {
			d := delta.New()
			d.Insert("R", relation.T(1000+i, 10+10*(i%2), i%7, 100))
			if i%5 == 4 {
				d.Delete("R", relation.T(1000+i-4, 10+10*(i%2), (i-4)%7, 100))
			}
			db1.MustApply(d)
			if ran, err := med.RunUpdateTransaction(); err != nil || !ran {
				commitErr <- err
				return
			}
			pin(med.CurrentVersion())
		}
	}()

	// drain consumes frames until the replica reaches atLeast, verifying
	// exact agreement with every pinned version it lands on.
	drain := func(t *testing.T, sub *Subscription, replica **relation.Relation, atLeast uint64, slow bool) uint64 {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		var at uint64
		for at < atLeast {
			if time.Now().After(deadline) {
				t.Fatalf("drain stuck at v%d (want >= v%d)", at, atLeast)
			}
			f, ok, err := sub.TryRecv()
			if err != nil {
				t.Fatalf("drain at v%d: %v", at, err)
			}
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			applyFrame(t, replica, f)
			at = f.Version
			if v := lookup(at); v != nil && !(*replica).Equal(v.Rel("T")) {
				t.Fatalf("replica diverges from pinned v%d", at)
			}
			if slow {
				time.Sleep(2 * time.Millisecond)
			}
		}
		return at
	}

	var wg sync.WaitGroup
	// Fast subscriber: unbounded pace, default queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub, err := med.Subscribe("T", SubscribeOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		defer sub.Close()
		var replica *relation.Relation
		drain(t, sub, &replica, commits, false)
	}()
	// Slow subscriber: tiny queue, sleeps per frame — must survive on
	// coalesced frames and still converge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub, err := med.Subscribe("T", SubscribeOptions{MaxQueue: 4})
		if err != nil {
			t.Error(err)
			return
		}
		defer sub.Close()
		var replica *relation.Relation
		drain(t, sub, &replica, commits, true)
	}()
	// Disconnecting subscriber: repeatedly drops the subscription and
	// resumes from its last delivered version.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var replica *relation.Relation
		var at uint64
		for hop := 0; at < commits; hop++ {
			sub, err := med.Subscribe("T", SubscribeOptions{FromVersion: at, MaxQueue: 8})
			if err != nil {
				t.Error(err)
				return
			}
			target := at + 20
			if target > commits {
				target = commits
			}
			at = drain(t, sub, &replica, target, false)
			sub.Close()
		}
	}()

	wg.Wait()
	<-committerDone
	select {
	case err := <-commitErr:
		t.Fatalf("committer: %v", err)
	default:
	}
	final := med.CurrentVersion()
	if final.Seq() < commits {
		t.Fatalf("final version %d < %d", final.Seq(), commits)
	}
	if med.Stats().ActiveSubscribers != 0 {
		t.Fatalf("leaked subscriptions: %d", med.Stats().ActiveSubscribers)
	}
}
