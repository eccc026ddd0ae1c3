// Package metrics is the mediator's observability layer: lock-cheap
// instruments (atomic counters and gauges, fixed-bucket latency
// histograms) plus a bounded ring buffer of structured events, gathered
// in a Registry that snapshots programmatically and renders in the
// Prometheus text exposition format.
//
// The instruments are built for hot paths: a Counter or Gauge is one
// atomic word; a Histogram takes one short mutex-protected critical
// section per observation (a handful of integer ops), so an Observe on
// the update-transaction path costs nanoseconds against poll round trips
// measured in milliseconds. Snapshots are internally consistent per
// instrument: a histogram snapshot's bucket counts always sum to its
// Count, because observation and snapshot serialize on the same mutex.
//
// Series names may carry a Prometheus label set inline, e.g.
//
//	squirrel_source_poll_seconds{source="db1",outcome="ok"}
//
// The registry treats the full string as the instrument key; the
// Prometheus writer splits the base name from the labels so bucket lines
// can merge in their "le" label.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is a programming error; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue length, version age).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the current value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for wall-clock
// latencies, in seconds: 50µs up to 10s, roughly doubling — wide enough
// for an in-process poll and a hung-source timeout alike.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefTickBuckets are histogram bounds for logical-clock distances
// (version ages, staleness in ticks).
var DefTickBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 1000}

// Histogram is a fixed-bucket histogram. Bounds are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. One mutex
// guards the whole instrument, so snapshots are exactly consistent
// (bucket counts sum to Count) and observation stays a short critical
// section.
type Histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveSince records the elapsed wall time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations recorded so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count,
		Sum:    h.sum,
	}
	copy(s.Counts, h.counts)
	return s
}

// HistogramSnapshot is one consistent observation of a Histogram:
// Counts[i] observations fell at or below Bounds[i] (and above the
// previous bound); Counts[len(Bounds)] is the +Inf bucket. The bucket
// counts always sum to Count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket, the standard Prometheus estimation. An
// observation in the +Inf bucket reports the highest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry holds named instruments and the event log. Instrument lookup
// is get-or-create and safe for concurrent use; returned instrument
// pointers may (and should) be cached by hot paths so steady-state
// observation never touches the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	bounds   map[string][]float64 // declared bounds per histogram family
	events   *EventLog
}

// NewRegistry creates an empty registry with an event log of the given
// capacity (<= 0 means DefEventCapacity).
func NewRegistry(eventCapacity int) *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		bounds:   make(map[string][]float64),
		events:   NewEventLog(eventCapacity),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil bounds means DefLatencyBuckets). Later calls
// ignore bounds — the first declaration wins, so every series of one
// family shares a bucket layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if bounds == nil {
			// Share the family's declared bounds so labeled series line up.
			bounds = r.bounds[familyOf(name)]
		} else {
			r.bounds[familyOf(name)] = bounds
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Events returns the registry's event log.
func (r *Registry) Events() *EventLog { return r.events }

// Emit appends a structured event (see EventLog.Emit).
func (r *Registry) Emit(e Event) { r.events.Emit(e) }

// Snapshot is a consistent-per-instrument copy of every instrument plus
// the retained events, oldest first. Marshals directly to JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
	// EventsTotal counts every event ever emitted (retained or evicted).
	EventsTotal uint64 `json:"events_total"`
}

// Snapshot captures every instrument. Each instrument is read atomically
// (or under its own mutex), so per-instrument values are exact; the
// snapshot as a whole is a near-instantaneous read, not a global
// barrier.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	s.Events, s.EventsTotal = r.events.Recent(0)
	return s
}

// familyOf strips the label part of a series name: the metric family.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelsOf returns the label part of a series name without braces ("" if
// unlabeled).
func labelsOf(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// SeriesName assembles a labeled series name with deterministic label
// order (the order given).
func SeriesName(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
