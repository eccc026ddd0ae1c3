package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// This file soaks the fault boundary under -race: seeded chaos on the
// polled source while committers churn, update transactions run, and
// readers issue ServeStale queries. The invariant is the robustness
// strengthening of the versioned-store soak: EVERY answer — degraded or
// not — must equal the from-scratch evaluation of the leaf states its
// Reflect vector names, and degraded answers must carry a staleness bound
// consistent with that vector (Reflect[src] >= Committed - Staleness[src]).
//
// A deterministic single-trajectory port of this soak lives at
// testdata/scenarios/fault-chaos-port.yaml (run via `squirrel scenario`):
// it pins one outage/gap/resync timeline on virtual time with a golden
// transcript, while this file keeps the randomized -race churn.

// newChaosEnv is newEnv with S' and T hybrid (s2 virtual), so every query
// for s2 must poll db2 through the fault boundary, and with the source
// connections wrapped in a seeded fault injector plus retry/backoff.
func newChaosEnv(t testing.TB, seed int64) (*testEnv, *resilience.Injector) {
	t.Helper()
	return newChaosEnvWorkers(t, seed, 0)
}

// newChaosEnvWorkers is newChaosEnv with the kernel pool selected:
// workers == 0 keeps the mediator's own (GOMAXPROCS-sized) pool, workers
// >= 1 runs the staged kernel on a pool of that size.
func newChaosEnvWorkers(t testing.TB, seed int64, workers int) (*testEnv, *resilience.Injector) {
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
	v := paperPlan(t, nil,
		vdp.Ann([]string{"s1"}, []string{"s2"}),
		vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}))
	inj := resilience.NewInjector(seed)
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP: v,
		Sources: map[string]SourceConn{
			"db1": resilience.WrapSource(LocalSource{DB: db1}, inj),
			"db2": resilience.WrapSource(LocalSource{DB: db2}, inj),
		},
		Clock:    clk,
		Recorder: rec,
		Resilience: ResilienceConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond},
			Seed:  seed,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		useKernel(med, workers)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, db1: db1, db2: db2, med: med, rec: rec, vdp_: v}, inj
}

// degradeRefusal reports whether err is one of the two legitimate
// ServeStale refusals (cache missing or overtaken by the store) — the
// soak tolerates those and nothing else.
func degradeRefusal(err error) bool {
	return strings.Contains(err.Error(), "no cached answer") ||
		strings.Contains(err.Error(), "cached answer predates")
}

func TestFaultSoak(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			runFaultSoak(t, seed, 0)
		})
	}
}

// runFaultSoak is the soak body, parameterized by kernel pool size so an
// oversized pool is exercised under the identical chaos mix (see
// TestParallelSoak).
func runFaultSoak(t *testing.T, seed int64, workers int) {
	e, inj := newChaosEnvWorkers(t, seed, workers)
	attrs := []string{"r1", "s2"}

	// Warm the poll cache, then unleash the chaos mix on the
	// polled source: errors, latency, and occasional scripted
	// outages from the soak loop below.
	if _, err := e.med.Query(algebra.SelectFrom("T", attrs, nil), QueryOptions{KeyBased: KeyBasedOff}); err != nil {
		t.Fatal(err)
	}
	inj.Set("db2", resilience.Faults{ErrProb: 0.45, LatencyProb: 0.1, Latency: 100 * time.Microsecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	commits := 60
	if testing.Short() {
		commits = 25
	}

	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			d := delta.New()
			d.Insert("R", relation.T(int64(300000+i), int64(10+10*(i%3)), int64(i), 100))
			if _, err := e.db1.Apply(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			d := delta.New()
			d.Insert("S", relation.T(int64(400000+i), int64(i%9), int64(i%40)))
			if _, err := e.db2.Apply(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Update churn: transactions always poll fail-fast, so under
	// chaos some fail — the queue survives and the next round
	// retries. Only non-transient errors count as failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.med.RunUpdateTransaction(); err != nil &&
				!strings.Contains(err.Error(), "polling") {
				t.Errorf("update txn: %v", err)
				return
			}
		}
	}()

	// Readers under ServeStale: every answer must be exact at its
	// own Reflect vector; degraded answers must bound their own
	// staleness; refusals must be one of the two legitimate kinds.
	queries := 40
	if testing.Short() {
		queries = 15
	}
	readers := 4
	var degraded, served int64
	var cmu sync.Mutex
	var rwg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < queries; i++ {
				res, err := e.med.Query(algebra.SelectFrom("T", attrs, nil), QueryOptions{KeyBased: KeyBasedOff, Degrade: ServeStale})
				if err != nil {
					if !degradeRefusal(err) {
						t.Errorf("query: %v", err)
						return
					}
					continue
				}
				states, err := e.recomputeAt(res.Reflect)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := projectSelectLocal(states["T"], "T", attrs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Answer.Equal(want) {
					t.Errorf("answer diverged from state at Reflect %v (degraded=%v):\n%swant\n%s",
						res.Reflect, res.Degraded, res.Answer, want)
					return
				}
				cmu.Lock()
				served++
				if res.Degraded {
					degraded++
					cmu.Unlock()
					if len(res.Staleness) != 1 || res.Staleness["db2"] < 1 {
						t.Errorf("degraded answer must bound db2 only: %v", res.Staleness)
						return
					}
					if res.Reflect["db2"] < res.Committed-res.Staleness["db2"] {
						t.Errorf("staleness bound violated: reflect=%d committed=%d bound=%d",
							res.Reflect["db2"], res.Committed, res.Staleness["db2"])
						return
					}
				} else {
					cmu.Unlock()
					if len(res.Staleness) != 0 {
						t.Errorf("non-degraded answer with staleness: %v", res.Staleness)
						return
					}
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wg.Wait()

	// Recovery: clear the chaos, resync anything quarantined, and
	// drain — the store must converge to ground truth exactly.
	inj.Set("db2", resilience.Faults{})
	for _, src := range e.med.QuarantinedSources() {
		if err := e.med.ResyncSource(src); err != nil {
			t.Fatalf("resync %s: %v", src, err)
		}
	}
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
		if got.Len() != want.Len() {
			t.Errorf("%s store diverged after recovery: %d vs %d rows", node, got.Len(), want.Len())
		}
	}

	// No pinned versions or retained announcements leak, even
	// through failed polls and degraded answers.
	e.med.qmu.Lock()
	pins, done := len(e.med.pins), len(e.med.done)
	e.med.qmu.Unlock()
	if pins != 0 || done != 0 {
		t.Errorf("leaked %d pins, %d retained announcements", pins, done)
	}

	st := e.med.Stats()
	counts := inj.Counts("db2")
	t.Logf("seed %d: served=%d degraded=%d pollFailures=%d retries=%d injected(err=%d delay=%d)",
		seed, served, degraded, st.PollFailures, st.PollRetries, counts.Errors, counts.Delays)
	if counts.Errors == 0 {
		t.Error("chaos never fired; the soak proved nothing")
	}
	if st.PollRetries == 0 {
		t.Error("no retries recorded despite injected errors")
	}
}
