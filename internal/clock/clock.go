// Package clock models the paper's global time (§3): a totally ordered
// set in which no two events occur at precisely the same instant. Database
// processes never read each other's clocks; the shared clock exists so the
// reproduction can *verify* consistency and freshness, exactly as the
// paper's formal development assumes an external global time.
package clock

import "sync"

// Time is a point on the global timeline. The unit is arbitrary (the
// discrete-event simulator interprets it as microseconds).
type Time int64

// Never is a sentinel earlier than every real time.
const Never Time = -1

// Clock issues strictly increasing timestamps: every call to Now returns a
// value greater than every previously returned value, giving each event a
// unique time.
type Clock interface {
	Now() Time
}

// Sequential is implemented by a clock that drives a single-threaded
// discrete-event simulation (sim.Sim), which models concurrency by
// interleaving. Everything that reads such a clock must run on the
// simulation's goroutine, so a component holding one spawns no goroutines
// of its own that could reach it.
type Sequential interface {
	Clock
	Sequential()
}

// Logical is a strictly increasing in-process clock; the zero value is
// ready to use.
type Logical struct {
	mu   sync.Mutex
	last Time
}

// Now returns the next timestamp.
func (c *Logical) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last++
	return c.last
}

// Peek returns the most recently issued timestamp without advancing.
func (c *Logical) Peek() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Vector is a time vector t̄ = ⟨t_1, ..., t_n⟩ keyed by source name (§3).
type Vector map[string]Time

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, t := range v {
		out[k] = t
	}
	return out
}

// LessEq reports v ≤ o pointwise over o's keys (missing entries in v read
// as Never, i.e. before everything).
func (v Vector) LessEq(o Vector) bool {
	for k, t := range o {
		if v[k] > t {
			return false
		}
	}
	for k, t := range v {
		if _, ok := o[k]; !ok && t > Never {
			// v has a later entry for a source o lacks: not comparable as ≤
			// unless o's implicit value dominates, which Never does not.
			return false
		}
	}
	return true
}

// AllAtOrBefore reports whether every component of v is ≤ t (chronology:
// the view never forecasts the future).
func (v Vector) AllAtOrBefore(t Time) bool {
	for _, ti := range v {
		if ti > t {
			return false
		}
	}
	return true
}
