package core

import (
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// TestHungPollDoesNotBlockMediator is the regression test for the lock
// narrowing in RunUpdateTransaction: the transaction holds only txnMu
// while polling sources, so a poll stalled on a dead peer must not block
// queries, snapshots, or a resync of a *different* source. Before the
// narrowing, the store mutex was held across the VAP polls and a single
// hung source wedged ResyncSource (and with it the runtime's repair loop)
// behind the stuck transaction.
func TestHungPollDoesNotBlockMediator(t *testing.T) {
	e, inj := newChaosEnv(t, 1)

	// The next db2 operation stalls inside the injector until we release
	// it (the injected Sleep blocks on the channel, ignoring duration).
	release := make(chan struct{})
	inj.Sleep = func(time.Duration) { <-release }
	inj.HangNext("db2", 1, time.Hour)

	// Queue an R update so the transaction has work that requires polling
	// db2 (T's virtual attribute s2 lives there).
	d := delta.New()
	d.Insert("R", relation.T(int64(50), int64(10), int64(1), int64(100)))
	if _, err := e.db1.Apply(d); err != nil {
		t.Fatal(err)
	}

	txnDone := make(chan error, 1)
	go func() {
		_, err := e.med.RunUpdateTransaction()
		txnDone <- err
	}()

	// Wait until the transaction is actually stalled inside the poll.
	deadline := time.After(5 * time.Second)
	for inj.Counts("db2").Hangs == 0 {
		select {
		case err := <-txnDone:
			t.Fatalf("transaction finished before hanging: %v", err)
		case <-deadline:
			t.Fatal("transaction never reached the hung poll")
		case <-time.After(time.Millisecond):
		}
	}

	// While the transaction is stuck mid-poll, everything that only needs
	// the store (not txnMu) must still complete promptly.
	step := func(name string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s failed while a poll hung: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked behind the hung update transaction", name)
		}
	}
	step("fast-path query", func() error {
		_, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{KeyBased: KeyBasedOff})
		return err
	})
	step("polling query", func() error {
		_, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
		return err
	})
	step("snapshot", func() error {
		_, err := e.med.Snapshot()
		return err
	})
	// Repairing a *different* source publishes a new version while the
	// transaction is still in flight.
	step("resync db1", func() error { return e.med.ResyncSource("db1") })

	// Queue an S update so the retried transaction still has work after
	// the db1 resync absorbed the R announcement.
	d2 := delta.New()
	d2.Insert("S", relation.T(int64(50), int64(3), int64(7)))
	if _, err := e.db2.Apply(d2); err != nil {
		t.Fatal(err)
	}

	// Release the hang: the poll fails, the fault boundary retries it
	// successfully, and the transaction then finds its builder's base
	// overtaken by the resync's publish — it must discard and retry, not
	// clobber the resynced state.
	close(release)
	select {
	case err := <-txnDone:
		if err != nil {
			t.Fatalf("update transaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update transaction never completed after release")
	}
	if got := e.med.Stats().UpdateTxnRetries; got < 1 {
		t.Errorf("UpdateTxnRetries = %d, want >= 1 (commit must have detected the resync publish)", got)
	}

	// Drain and check the store converged to ground truth (the resynced
	// R tuple and the queued S tuple both present exactly once).
	for {
		ran, err := e.med.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	truth := e.groundTruth(t)
	for _, node := range []string{"R'", "S'", "T"} {
		got := e.med.StoreSnapshot(node)
		wantSchema, err := storeSchema(e.vdp_.Node(node))
		if err != nil {
			t.Fatal(err)
		}
		want, err := projectSelectLocal(truth[node], node, wantSchema.AttrNames(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s diverged after hung-poll recovery:\n%swant\n%s", node, got, want)
		}
	}
}

// TestCancellingQueueStillCommits: announcements whose deltas fully
// annihilate under coalescing (insert then delete of the same tuple) must
// still commit — the transaction advances the version (and with it ref′)
// even though it propagates zero atoms. Skipping the commit would leave
// ref′ behind the announcement log and break Eager Compensation's window
// arithmetic for later queries.
func TestCancellingQueueStillCommits(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	tup := relation.T(int64(60), int64(10), int64(2), int64(100))

	ins := delta.New()
	ins.Insert("R", tup)
	if _, err := e.db1.Apply(ins); err != nil {
		t.Fatal(err)
	}
	del := delta.New()
	del.Delete("R", tup)
	if _, err := e.db1.Apply(del); err != nil {
		t.Fatal(err)
	}

	before := e.med.vstore.Current()
	ran, err := e.med.RunUpdateTransaction()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fully-cancelling queue must still run a transaction")
	}
	after := e.med.vstore.Current()
	if after.Seq() != before.Seq()+1 {
		t.Errorf("version did not advance: seq %d -> %d", before.Seq(), after.Seq())
	}
	if after.RefOf("db1") <= before.RefOf("db1") {
		t.Errorf("ref'(db1) did not advance: %d -> %d", before.RefOf("db1"), after.RefOf("db1"))
	}
	// The store contents are unchanged — nothing was propagated.
	for _, node := range []string{"R'", "T"} {
		if got, want := after.Rel(node), before.Rel(node); !got.Equal(want) {
			t.Errorf("%s changed by a net-zero transaction:\n%swant\n%s", node, got, want)
		}
	}
	// And the queue is fully drained.
	if ran, err := e.med.RunUpdateTransaction(); err != nil || ran {
		t.Fatalf("queue not drained: ran=%v err=%v", ran, err)
	}
}
