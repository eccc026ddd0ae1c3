// Package sim provides a deterministic discrete-event simulator used to
// reproduce the timing-dependent results of the paper: the freshness
// bounds of Theorem 7.2 and the qualitative latency/staleness trade-offs
// of §1. The simulator's virtual clock implements clock.Clock, so source
// databases, mediators, and the trace checkers all run unmodified on
// virtual time.
//
// The simulator is single-threaded and models concurrency by
// interleaving: synchronous operations that "take time" (network hops,
// processing) call AdvanceBy, which runs any events that become due —
// e.g. a source commit landing in the middle of a mediator poll.
package sim

import (
	"container/heap"

	"squirrel/internal/clock"
)

// event is a scheduled callback.
type event struct {
	at  clock.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event scheduler with a strictly increasing virtual
// clock. The zero value is NOT ready; use New.
type Sim struct {
	now     clock.Time
	issued  clock.Time // last timestamp handed out by Now
	seq     uint64
	pq      eventHeap
	dropped int
	// Horizon, if > 0, drops events scheduled beyond it (simulation end).
	Horizon clock.Time
}

// New creates a simulator starting at virtual time 0.
func New() *Sim { return &Sim{} }

// Now implements clock.Clock: it returns a unique, strictly increasing
// timestamp at (or just after) the current virtual time. Repeated calls
// within one event advance by one tick each, modeling the paper's
// assumption that no two events share an instant.
func (s *Sim) Now() clock.Time {
	t := s.now
	if t <= s.issued {
		t = s.issued + 1
	}
	s.issued = t
	return t
}

// Sequential marks the simulator as a clock.Sequential: it is
// single-threaded, so its users must not read it from goroutines of
// their own.
func (s *Sim) Sequential() {}

var _ clock.Sequential = (*Sim)(nil)

// Time returns the current virtual time without consuming a timestamp.
func (s *Sim) Time() clock.Time { return s.now }

// At schedules fn at absolute virtual time t (clamped to now). An event
// past the horizon is dropped AND counted (see Dropped): a workload step
// that silently vanishes would make every downstream assertion pass
// vacuously, so harnesses must be able to detect truncation.
func (s *Sim) At(t clock.Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	if s.Horizon > 0 && t > s.Horizon {
		s.dropped++
		return
	}
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
}

// atUncounted is At for self-rescheduling periodic chains: a chain that
// runs off the horizon's edge ended by design, not by truncation, so the
// dropped tick is not counted.
func (s *Sim) atUncounted(t clock.Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	if s.Horizon > 0 && t > s.Horizon {
		return
	}
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d ticks from the current time.
func (s *Sim) After(d clock.Time, fn func()) { s.At(s.now+d, fn) }

// Every schedules fn at period intervals starting at start, until the
// horizon (or forever if no horizon — use RunUntil then). The periodic
// chain ending at the horizon is normal termination and does not count
// as a dropped event.
func (s *Sim) Every(start, period clock.Time, fn func()) {
	var tick func()
	next := start
	tick = func() {
		fn()
		next += period
		s.atUncounted(next, tick)
	}
	s.atUncounted(next, tick)
}

// Dropped reports how many one-shot events were discarded because they
// were scheduled past the horizon. A deterministic harness should fail
// loudly when this is non-zero at the end of a run: a truncated timeline
// proves nothing about the steps that never executed.
func (s *Sim) Dropped() int { return s.dropped }

// step runs the earliest event; reports false when none remain.
func (s *Sim) step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(*event)
	if e.at > s.now {
		s.now = e.at
	}
	e.fn()
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (s *Sim) RunUntil(t clock.Time) {
	for len(s.pq) > 0 && s.pq[0].at <= t {
		s.step()
	}
	if t > s.now {
		s.now = t
	}
}

// AdvanceBy models an in-progress synchronous operation taking d ticks:
// events falling due inside the window run (interleaved concurrency),
// then the clock lands at the end of the window.
func (s *Sim) AdvanceBy(d clock.Time) {
	s.RunUntil(s.now + d)
}

// Pending reports the number of scheduled events.
func (s *Sim) Pending() int { return len(s.pq) }
