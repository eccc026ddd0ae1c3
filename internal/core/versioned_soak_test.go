package core

import (
	"fmt"
	"sync"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// This file soaks the versioned store's concurrency contract: many reader
// goroutines hammer Query / QuerySQL / StoreSnapshot / Stats /
// Snapshot while RunUpdateTransaction churns, and every answer is checked
// against a from-scratch evaluation of the leaf states its Reflect vector
// names — the per-query validity half of the §3 consistency definition,
// verified under full concurrency. Run with -race.

// recomputeAt evaluates the full view from the historical leaf states at
// the times the query's Reflect vector assigns to each leaf's source.
func (e *testEnv) recomputeAt(reflect clock.Vector) (map[string]*relation.Relation, error) {
	dbs := map[string]*source.DB{"db1": e.db1, "db2": e.db2}
	leaves := map[string]*relation.Relation{}
	for _, leaf := range e.vdp_.Leaves() {
		src := e.vdp_.Node(leaf).Source
		st, err := dbs[src].StateAt(leaf, reflect[src])
		if err != nil {
			return nil, err
		}
		leaves[leaf] = st
	}
	return e.vdp_.EvalAll(vdp.ResolverFromCatalog(leaves))
}

func TestVersionedStoreConcurrentValidity(t *testing.T) {
	configs := map[string]struct {
		annT  vdp.Annotation
		attrs []string
	}{
		// Fast path only: every query is lock-free against a published
		// version.
		"fully-materialized": {annT: nil, attrs: []string{"r1", "s1"}},
		// Hybrid T (s2 virtual): queries touching s2 take the polling path
		// with Eager Compensation against the pinned version's ref′.
		"hybrid-T": {annT: vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}), attrs: []string{"r1", "s2"}},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, nil, nil, cfg.annT)
			var wg sync.WaitGroup
			stop := make(chan struct{})

			commits := 80
			if testing.Short() {
				commits = 30
			}
			// Source committers.
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

			// Readers: every answer must match the from-scratch evaluation
			// at its own Reflect vector, and the version a reader observes
			// must never go backwards.
			queries := 40
			if testing.Short() {
				queries = 15
			}
			readers := 4
			var rwg sync.WaitGroup
			for w := 0; w < readers; w++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					lastVersion := uint64(0)
					for i := 0; i < queries; i++ {
						res, err := e.med.Query(algebra.SelectFrom("T", cfg.attrs, nil), QueryOptions{KeyBased: KeyBasedOff})
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
						want, err := projectSelectLocal(states["T"], "T", cfg.attrs, nil)
						if err != nil {
							t.Error(err)
							return
						}
						if !res.Answer.Equal(want) {
							t.Errorf("answer diverged from state at Reflect %v (version %d):\n%swant\n%s",
								res.Reflect, res.Version, res.Answer, want)
							return
						}
						// Interleave the rest of the read surface.
						_ = e.med.Stats()
						_ = e.med.StoreSnapshot("T")
						if _, err := e.med.Snapshot(); err != nil {
							t.Error(err)
							return
						}
						if mres, err := e.med.QuerySQL("SELECT r1, s1 FROM T WHERE s1 = 10", QueryOptions{}); err != nil {
							t.Error(err)
							return
						} else if mres.Version == 0 {
							t.Error("multi-export answer missing its version")
							return
						}
					}
				}()
			}
			rwg.Wait()
			close(stop)
			wg.Wait()

			// Drain and confirm convergence to ground truth.
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
					t.Errorf("%s store diverged after drain: %d vs %d rows", node, got.Len(), want.Len())
				}
			}

			// No pinned versions or retained announcements leak.
			e.med.qmu.Lock()
			pins, done := len(e.med.pins), len(e.med.done)
			e.med.qmu.Unlock()
			if pins != 0 || done != 0 {
				t.Errorf("leaked %d pins, %d retained announcements", pins, done)
			}

			// The recorded trace satisfies the full §3 consistency
			// definition for the fast path (order preservation is only
			// guaranteed for lock-free queries; concurrent POLLING queries
			// may commit out of version order — per-query validity, checked
			// above, always holds).
			if name == "fully-materialized" {
				env := checker.Environment{
					VDP:     e.vdp_,
					Sources: map[string]*source.DB{"db1": e.db1, "db2": e.db2},
					Trace:   e.rec,
				}
				if err := env.CheckConsistency(); err != nil {
					t.Errorf("consistency: %v", err)
				}
			}
		})
	}
}

// TestVersionCounters exercises the Stats surface added with the
// versioned store.
func TestVersionCounters(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	s := e.med.Stats()
	if s.CurrentVersion != 1 || s.VersionsPublished != 1 {
		t.Fatalf("after Initialize: current=%d published=%d", s.CurrentVersion, s.VersionsPublished)
	}
	if e.med.StoreVersion() != 1 {
		t.Fatalf("StoreVersion=%d", e.med.StoreVersion())
	}
	d := delta.New()
	d.Insert("R", relation.T(7, 10, 1, 100))
	e.db1.MustApply(d)
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	s = e.med.Stats()
	if s.CurrentVersion != 2 || s.VersionsPublished != 2 {
		t.Fatalf("after update: current=%d published=%d", s.CurrentVersion, s.VersionsPublished)
	}
	v := e.med.CurrentVersion()
	if v == nil || v.Seq() != 2 {
		t.Fatalf("CurrentVersion: %+v", v)
	}
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("QueryResult.Version=%d, want 2", res.Version)
	}
}

// TestTrimAnnouncements pins the queue-compaction contract: the dropped
// tail is zeroed (so burst deltas become collectible) and oversized
// backing arrays are reallocated.
func TestTrimAnnouncements(t *testing.T) {
	big := make([]source.Announcement, 200)
	for i := range big {
		big[i] = source.Announcement{Source: fmt.Sprintf("s%d", i)}
	}
	kept := big[:3]
	out := trimAnnouncements(kept, 200)
	if len(out) != 3 {
		t.Fatalf("len=%d", len(out))
	}
	if cap(out) >= 200 {
		t.Errorf("oversized backing array retained: cap=%d", cap(out))
	}
	for i := 3; i < 200; i++ {
		if big[i].Source != "" {
			t.Fatalf("tail entry %d not zeroed", i)
		}
	}
	// Small or well-utilized slices are returned as-is.
	small := make([]source.Announcement, 10, 16)
	if got := trimAnnouncements(small, 10); cap(got) != 16 {
		t.Errorf("small slice reallocated: cap=%d", cap(got))
	}
}
