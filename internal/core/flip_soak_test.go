package core

import (
	"sync"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// TestFlipSoakConcurrentValidity soaks the re-annotation transaction under
// full concurrency: source committers and update churn run while a flipper
// repeatedly materializes and virtualizes T.s2 and readers hammer the
// query path. Every answer must equal the from-scratch evaluation at its
// own Reflect vector — whichever plan epoch served it — and the observed
// store version must never go backwards. Run with -race.
//
// A deterministic single-trajectory port lives at
// testdata/scenarios/flip-adapt-port.yaml (run via `squirrel scenario`):
// it pins one flip sequence on virtual time with a golden transcript,
// while this test keeps the concurrent envelope.
func TestFlipSoakConcurrentValidity(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	tSchema := e.vdp_.Node("T").Schema

	var wg sync.WaitGroup
	stop := make(chan struct{})

	commits := 60
	flipsWanted := 12
	queries := 30
	if testing.Short() {
		commits, flipsWanted, queries = 20, 4, 10
	}

	// Source committers.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			d := delta.New()
			d.Insert("R", relation.T(int64(500000+i), int64(10+10*(i%3)), int64(i), 100))
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
			d.Insert("S", relation.T(int64(600000+i), int64(i%9), int64(i%40)))
			if _, err := e.db2.Apply(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Update churn until readers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.med.RunUpdateTransaction(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// The flipper: alternate T between fully materialized and s2-virtual
	// through the full re-annotation transaction (drop on one side, VAP
	// backfill on the other).
	wg.Add(1)
	go func() {
		defer wg.Done()
		hybrid := vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"})
		full := vdp.AllMaterialized(tSchema)
		for i := 0; i < flipsWanted; i++ {
			ann := hybrid
			if i%2 == 1 {
				ann = full
			}
			anns := e.med.VDP().Annotations()
			anns["T"] = ann
			if _, err := e.med.Reannotate(anns); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: answers exact at their own Reflect vector, versions
	// monotone per reader, regardless of which epoch served them.
	readers := 4
	var rwg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			lastVersion := uint64(0)
			for i := 0; i < queries; i++ {
				res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", res.Version, lastVersion)
					return
				}
				lastVersion = res.Version
				states, err := e.recomputeAt(res.Reflect)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := projectSelectLocal(states["T"], "T", []string{"r1", "s2"}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Answer.Equal(want) {
					t.Errorf("answer diverged from state at Reflect %v (version %d):\n%swant\n%s",
						res.Reflect, res.Version, res.Answer, want)
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wg.Wait()

	// Drain and converge: the final store agrees with ground truth under
	// whichever annotation the flipper left behind.
	for {
		ran, err := e.med.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	queryTruth(t, e)
	if got := e.med.Stats().AnnotationSwitches; got != flipsWanted {
		t.Errorf("AnnotationSwitches = %d, want %d", got, flipsWanted)
	}

	// Nothing leaks: no pins, no retained announcements, no capture flags,
	// and the epoch chain has been pruned back to the live head.
	e.med.qmu.Lock()
	pins, done, captures := len(e.med.pins), len(e.med.done), len(e.med.capture)
	e.med.qmu.Unlock()
	if pins != 0 || done != 0 || captures != 0 {
		t.Errorf("leaked %d pins, %d retained announcements, %d captures", pins, done, captures)
	}
	depth := 0
	for ep := e.med.epoch(); ep != nil; ep = ep.prev.Load() {
		depth++
	}
	if depth > 1 {
		t.Errorf("epoch chain not pruned: depth %d", depth)
	}
}
