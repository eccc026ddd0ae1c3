package core

import (
	"sync"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
)

// newWorkersEnv is newEnv with the kernel executor selected (useKernel).
func newWorkersEnv(t *testing.T, workers int) *testEnv {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 10, 120, 100))
	r.Insert(relation.T(3, 20, 7, 100))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	v := paperPlan(t, nil, nil, nil)
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP:      v,
		Sources:  map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	useKernel(med, workers)
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, db1: db1, db2: db2, med: med, rec: rec, vdp_: v}
}

// assertHistogramsConsistent checks the metrics contract every snapshot
// guarantees: a histogram's bucket counts sum exactly to its Count.
func assertHistogramsConsistent(t *testing.T, snap metrics.Snapshot) {
	t.Helper()
	for name, h := range snap.Histograms {
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		if sum != h.Count {
			t.Errorf("histogram %s: Σbuckets = %d, Count = %d", name, sum, h.Count)
		}
	}
}

// Hammers Stats() and MetricsSnapshot() from several goroutines while
// update transactions commit under the staged kernel, asserting the
// snapshot invariants hold throughout: counters are monotone and every
// histogram's bucket counts sum to its Count. Run with -race.
func TestStatsAndMetricsConcurrentWithUpdates(t *testing.T) {
	e := newWorkersEnv(t, 2)
	const txns = 150
	const readers = 4

	stop := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTxns int64
			var lastPolls int
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := e.med.Stats()
				if st.UpdateTxns < 0 || st.SourcePolls < 0 {
					t.Error("negative stats counter")
				}
				snap := e.med.MetricsSnapshot()
				assertHistogramsConsistent(t, snap)
				if n := snap.Counters[MetricUpdateTxnsTotal]; n < lastTxns {
					t.Errorf("update txn counter went backwards: %d -> %d", lastTxns, n)
				} else {
					lastTxns = n
				}
				if p := st.SourcePolls; p < lastPolls {
					t.Errorf("source poll counter went backwards: %d -> %d", lastPolls, p)
				} else {
					lastPolls = p
				}
			}
		}()
	}

	// One query goroutine exercises the query instruments concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.med.Query(algebra.SelectFrom("T", []string{"r1"}, nil), QueryOptions{}); err != nil {
				t.Errorf("query under load: %v", err)
				return
			}
		}
	}()

	for i := 0; i < txns; i++ {
		d := delta.New()
		d.Insert("R", relation.T(100+i, 10*(i%3+1), i, 100))
		e.db1.MustApply(d)
		if _, err := e.med.RunUpdateTransaction(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final snapshot: every committed transaction observed exactly once
	// in both the counter and the phase=total histogram.
	snap := e.med.MetricsSnapshot()
	assertHistogramsConsistent(t, snap)
	if n := snap.Counters[MetricUpdateTxnsTotal]; n != txns {
		t.Errorf("final txn counter = %d, want %d", n, txns)
	}
	total := snap.Histograms[metrics.SeriesName(MetricUpdateTxnSeconds, "phase", "total")]
	if total.Count != txns {
		t.Errorf("phase=total histogram count = %d, want %d", total.Count, txns)
	}
	if stages := snap.Histograms[metrics.SeriesName(MetricKernelStageSeconds, "phase", "total")]; stages.Count == 0 {
		t.Errorf("staged kernel ran but recorded no stage timings")
	}
	if snap.EventsTotal == 0 {
		t.Errorf("no events emitted under load")
	}
}

// The update-txn and publish events of a committed version are emitted
// after the store mutex is released. Their order must be what it was when
// they were emitted under it: update transactions report in version order
// (txnMu still serializes them), and each version's update-txn event
// directly precedes its publish event among the update path's events —
// also while another publisher (resync) commits in between.
func TestUpdateEventOrderPerVersion(t *testing.T) {
	e := newWorkersEnv(t, 2)
	const txns = 60 // well inside the event ring with stage and resync events around
	// One resync per update transaction, racing it: at most one publish
	// overtakes each attempt, so the retry bound is never reached.
	kick := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range kick {
			if err := e.med.ResyncSource("db2"); err != nil {
				t.Errorf("resync: %v", err)
				return
			}
		}
	}()
	for i := 0; i < txns; i++ {
		d := delta.New()
		d.Insert("R", relation.T(100+i, 10*(i%3+1), i, 100))
		e.db1.MustApply(d)
		select {
		case kick <- struct{}{}:
		default:
		}
		if ran, err := e.med.RunUpdateTransaction(); err != nil || !ran {
			t.Fatalf("txn %d: ran=%v err=%v", i, ran, err)
		}
	}
	close(kick)
	wg.Wait()

	events, _ := e.med.Metrics().Events().Recent(0)
	updates := 0
	var pending, last int64 // version whose publish event is due; last reported
	for _, ev := range events {
		switch ev.Type {
		case metrics.EventUpdateTxn:
			v := ev.Fields["version"]
			if pending != 0 {
				t.Fatalf("update-txn v%d emitted before the publish event of v%d", v, pending)
			}
			if v <= last {
				t.Fatalf("update-txn events out of version order: v%d after v%d", v, last)
			}
			pending, last = v, v
			updates++
		case metrics.EventPublish:
			// Resync publishes carry versions of their own; only the one
			// following an update-txn event belongs to it.
			if pending != 0 && ev.Fields["version"] == pending {
				pending = 0
			}
		}
	}
	if pending != 0 {
		t.Fatalf("update-txn v%d has no publish event", pending)
	}
	if updates != txns {
		t.Fatalf("%d update-txn events retained, want %d", updates, txns)
	}
	if got := len(e.rec.Updates()); got != txns {
		t.Fatalf("trace recorded %d update transactions, want %d", got, txns)
	}
}

// On a fully materialized plan every sibling read goes through a resident
// join index: the probe counter moves, the scan counter does not.
func TestKernelProbeCountersFullyMaterialized(t *testing.T) {
	for _, workers := range []int{0, 2} {
		e := newWorkersEnv(t, workers)
		for i := 0; i < 10; i++ {
			d := delta.New()
			d.Insert("R", relation.T(100+i, 10*(i%2+1), i, 100))
			e.db1.MustApply(d)
			d = delta.New()
			d.Insert("S", relation.T(30+i, i, 10))
			e.db2.MustApply(d)
			if _, err := e.med.RunUpdateTransaction(); err != nil {
				t.Fatal(err)
			}
		}
		snap := e.med.MetricsSnapshot()
		if n := snap.Counters[MetricKernelProbeRows]; n == 0 {
			t.Errorf("workers=%d: no sibling rows read through the join indexes", workers)
		}
		if n := snap.Counters[MetricKernelScanRows]; n != 0 {
			t.Errorf("workers=%d: %d sibling rows scanned on a fully materialized plan", workers, n)
		}
		if err := e.med.CheckJoinIndexes(); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
