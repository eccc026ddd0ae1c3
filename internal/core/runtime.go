package core

import (
	"fmt"
	"sync"
	"time"

	"squirrel/internal/metrics"
)

// Runtime drives a mediator's update transactions — the u_hold_delay
// policy of §7 as a deployable component. Queries go straight to the
// mediator (its transactions are internally serialized); the runtime only
// owns the flush loop.
//
// The loop is derived group commit: it sleeps on the mediator's announce
// signal and, when idle, commits at once. Whatever arrives while a
// transaction and its log sync run is the next batch, so batch size
// follows load and nothing is configured. u_hold is an upper bound in
// Theorem 7.2, never a wait before committing; here it only paces the
// retries after a failed flush or while a source is quarantined.
//
// The loop's resync-then-drain ordering relies on the mediator's narrow
// store mutex: an update transaction stuck polling a slow source holds
// only txnMu, so a flush's ResyncSource calls proceed regardless, and the
// transaction detects their publishes at commit (via the builder's base
// version) and retries rather than clobbering the resynced state.
type Runtime struct {
	med  *Mediator
	hold time.Duration // u_hold bound: the retry interval

	flushHist *metrics.Histogram

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
	// lastErr is the loop's CURRENT error condition: set when a flush's
	// resync or drain fails, cleared when a later flush drains the queue
	// with no failure at all — Err() reporting a long-recovered failure
	// forever made health checks permanently red. History survives in
	// lastFailure/errCount.
	lastErr     error
	lastFailure error
	errCount    int
	flushes     int
}

// NewRuntime wraps a mediator with the group-commit flush loop; call
// Start. hold is the u_hold bound: the longest a failed flush or a
// quarantined source waits for its retry.
func NewRuntime(med *Mediator, hold time.Duration) (*Runtime, error) {
	if med == nil {
		return nil, fmt.Errorf("core: runtime needs a mediator")
	}
	if hold <= 0 {
		return nil, fmt.Errorf("core: runtime hold bound must be positive")
	}
	return &Runtime{
		med:       med,
		hold:      hold,
		flushHist: med.obs.reg.Histogram(MetricFlushSeconds, metrics.DefLatencyBuckets),
	}, nil
}

// NewBatchedRuntime builds the same loop as NewRuntime, with window as
// the hold bound (at least a millisecond); maxBatch is ignored.
//
// Deprecated: batching is derived from load; use NewRuntime.
func NewBatchedRuntime(med *Mediator, window time.Duration, maxBatch int) (*Runtime, error) {
	if window < 0 {
		return nil, fmt.Errorf("core: group-commit window must be non-negative")
	}
	return NewRuntime(med, max(window, time.Millisecond))
}

// Start launches the flush loop. It is an error to start a running
// runtime.
func (r *Runtime) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return fmt.Errorf("core: runtime already started")
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
	return nil
}

// loop sleeps on the announce signal and flushes on every wakeup. The
// retry timer is armed only while a flush left work behind (a failure or
// a quarantined source), and all it does is raise the signal again.
func (r *Runtime) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	retry := time.AfterFunc(r.hold, r.med.signalAnnounce)
	retry.Stop()
	defer retry.Stop()
	sig := r.med.AnnounceSignal()
	for {
		select {
		case <-stop:
			// Final drain so Stop leaves nothing queued.
			r.flushAll()
			return
		case <-sig:
		}
		if r.flushAll() {
			retry.Stop()
		} else {
			retry.Reset(r.hold)
		}
	}
}

// noteErr records a flush failure: it both latches the current condition
// and appends to the history.
func (r *Runtime) noteErr(err error) {
	r.mu.Lock()
	r.lastErr = err
	r.lastFailure = err
	r.errCount++
	r.mu.Unlock()
}

// flushAll is one group commit: resync quarantined sources, run ONE
// update transaction over everything queued, then sync the commit log
// once — so under SyncBatch each drained batch is durable before the next
// transaction starts. It reports whether the flush left nothing to retry:
// no failure and no source still quarantined.
func (r *Runtime) flushAll() bool {
	start := time.Now()
	clean := true
	committed := 0
	var flushErr error
	fail := func(err error) {
		clean = false
		flushErr = err
		r.noteErr(err)
	}
	// Attempt to repair quarantined sources first: their penned
	// announcements rejoin the queue on success, and the transaction
	// below then drains everything. A failed resync is retried after the
	// hold bound — unless it was overtaken by newer penned announcements
	// (ErrResyncOvertaken), which retrying will never fix; the mediator's
	// ResyncStuck health condition flags that case for the operator.
	for _, src := range r.med.QuarantinedSources() {
		if err := r.med.ResyncSource(src); err != nil {
			fail(err)
		}
	}
	if ran, err := r.med.RunUpdateTransaction(); err != nil {
		fail(err)
	} else if ran {
		committed++
		r.mu.Lock()
		r.flushes++
		r.mu.Unlock()
	}
	// Group commit, durability half: under a batch-sync'd commit log the
	// transaction's record is buffered — one fsync now makes the whole
	// batch durable (N announcements, one disk flush).
	if err := r.med.syncCommitLog(); err != nil {
		fail(err)
	}
	if clean {
		// The queue drained with no failure: whatever condition a past
		// flush latched is over.
		r.mu.Lock()
		r.lastErr = nil
		r.mu.Unlock()
	}
	r.flushHist.ObserveSince(start)
	ev := metrics.Event{
		Type: metrics.EventFlush, Dur: time.Since(start),
		Fields: map[string]int64{"txns": int64(committed)},
	}
	if flushErr != nil {
		ev.Err = flushErr.Error()
	}
	r.med.obs.reg.Emit(ev)
	return clean && len(r.med.QuarantinedSources()) == 0
}

// Flush runs update transactions until the queue is empty, synchronously
// (useful before a query that must observe everything announced so far).
func (r *Runtime) Flush() error {
	for {
		ran, err := r.med.RunUpdateTransaction()
		if err != nil {
			return err
		}
		if !ran {
			return r.med.syncCommitLog()
		}
	}
}

// Stop terminates the loop after a final drain and reports the current
// error condition (nil when the final drain was clean). Stopping a
// never-started or already-stopped runtime is a no-op returning the
// current condition.
func (r *Runtime) Stop() error {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Flushes reports how many update transactions the loop has committed.
func (r *Runtime) Flushes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushes
}

// Err reports the loop's current error condition: the most recent flush
// failure not yet followed by a fully clean drain (nil when healthy —
// including after recovery). Use LastErr/ErrCount for history.
func (r *Runtime) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// LastErr reports the most recent flush failure ever, surviving recovery
// (nil if the loop never failed).
func (r *Runtime) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastFailure
}

// ErrCount reports how many flush failures the loop has recorded.
func (r *Runtime) ErrCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errCount
}
