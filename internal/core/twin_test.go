package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/resilience"
)

// seqClock is a logical clock marked clock.Sequential: the mediator then
// polls on the caller's goroutine, so every clock reading happens in
// program order and two equally-driven mediators read equal times.
type seqClock struct{ clock.Logical }

func (*seqClock) Sequential() {}

// twinTranscript builds the random environment of seed on its own
// sequential clock, with scripted poll failures behind a retrying fault
// boundary, and drives it through the commits, faults, update
// transactions and queries the seed derives. It records every outcome a
// client can see: answers with their Reflect vectors, errors, published
// versions with their ref′ vectors, and the final Stats counters.
func twinTranscript(t *testing.T, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inj := resilience.NewInjector(seed)
	rp := buildRandomPlanWith(t, rng, randPlanOpts{
		workers: 2,
		clk:     &seqClock{},
		inj:     inj,
		resil: ResilienceConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
			Seed:  seed,
		},
	})
	var tr []string
	record := func(format string, args ...any) { tr = append(tr, fmt.Sprintf(format, args...)) }
	record("init ref′=%v", rp.med.LastProcessed())
	for step := 0; step < 30; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			rp.randomLeafCommit(t, rng)
		case op < 6:
			ran, err := rp.med.RunUpdateTransaction()
			record("step %d txn ran=%v err=%v version=%d ref′=%v",
				step, ran, err, rp.med.StoreVersion(), rp.med.LastProcessed())
		case op < 7:
			src := []string{"db1", "db2"}[rng.Intn(2)]
			inj.FailNext(src, 1+rng.Intn(3))
			record("step %d fail %s", step, src)
		default:
			n := rp.plan.Node(rp.export)
			opts := QueryOptions{
				KeyBased: []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce}[rng.Intn(3)],
				Degrade:  []DegradeMode{FailFast, ServeStale}[rng.Intn(2)],
			}
			res, err := rp.med.Query(algebra.SelectFrom(rp.export, n.Schema.AttrNames(), randomCond(rng, n.Schema)), opts)
			if err != nil {
				record("step %d query err=%v", step, err)
				continue
			}
			record("step %d query reflect=%v committed=%d polled=%d keybased=%v degraded=%v staleness=%v version=%d\n%s",
				step, res.Reflect, res.Committed, res.Polled, res.KeyBased, res.Degraded, res.Staleness, res.Version, res.Answer)
		}
	}
	st := rp.med.Stats()
	st.Sources = nil // per-source health carries wall-clock contact times
	record("stats %+v", st)
	return tr
}

// TestTwinMediatorsAgree builds each seed's environment twice and
// requires the twins' transcripts to be equal line for line. A mediator
// that visits its sources in map order (initial polls, backoff seeds,
// recovery) stamps different ref′ vectors on half of all twin pairs, so
// twenty pairs catch it with near certainty.
func TestTwinMediatorsAgree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := twinTranscript(t, seed), twinTranscript(t, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: twin transcripts have %d and %d lines", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: twins diverge at line %d:\n%s\n--- twin:\n%s", seed, i, a[i], b[i])
			}
		}
	}
}
