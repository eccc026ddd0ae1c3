package core

import (
	"sync"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// TestConcurrentAccess hammers one mediator from many goroutines —
// committing sources, running update transactions, querying (all paths),
// reading stats — and then verifies the final state against recomputation.
// Run with -race.
func TestConcurrentAccess(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Source committers.
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d := delta.New()
				d.Insert("R", relation.T(int64(100000+w*1000+i), int64(10+10*(i%3)), int64(i), 100))
				if _, err := e.db1.Apply(d); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			d := delta.New()
			d.Insert("S", relation.T(int64(200000+i), int64(i%9), int64(i%40)))
			if _, err := e.db2.Apply(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Update-transaction loop.
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

	// Query and stats readers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s1"}, nil), QueryOptions{}); err != nil {
					t.Error(err)
					return
				}
				_ = e.med.Stats()
				_ = e.med.QueueLen()
				_ = e.med.LastProcessed()
				_ = e.med.StoreSnapshot("T")
			}
		}()
	}

	// The committers and readers are bounded; the flusher runs until
	// stopped. A separate watcher closes stop once the queue has gone
	// quiet (any leftovers are drained below).
	go func() {
		for e.med.QueueLen() > 0 {
			// busy-wait; bounded by the committers finishing
		}
		close(stop)
	}()
	wg.Wait()

	// Drain and verify.
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
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("concurrent run diverged: %d vs %d rows", got.Card(), truth["T"].Card())
	}
}
