package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// Phases a generated operation can fall into, by its due time.
const (
	phaseWarm = iota // unmeasured: warm-up, and a traced run's settle time
	phaseRef         // a traced run's untraced reference windows
	phaseOpen
	phaseSat
	phaseTail
)

// commitRec is what the committer keeps per commit. All times are ns on the
// tracer's clock.
type commitRec struct {
	id         int64
	src        int8
	phase      int8
	t          clock.Time // source commit time
	due        int64
	applyStart int64
	applyEnd   int64
	err        error
}

// queryRec is what the query client keeps per query.
type queryRec struct {
	phase   int8
	cold    bool
	due     int64
	start   int64
	end     int64
	rows    int
	version uint64
	err     error
}

// frameRec is what the TCP subscriber keeps per frame.
type frameRec struct {
	recv    int64
	reflect [3]clock.Time
	markers []int64 // commit ids whose marker tuple this frame inserts
	frame   core.SubFrame
}

// window is a stretch of the schedule, by due time in ns: [start, end).
type window struct{ start, end int64 }

func (w window) holds(due int64) bool { return due >= w.start && due < w.end }

// schedule is a fixed-interval open-loop schedule: operation i is due at
// start + i·interval, whatever happened to operation i−1.
type schedule struct {
	start    int64
	interval float64 // ns
}

func (s schedule) due(i int) int64 { return s.start + int64(float64(i)*s.interval) }

// sleepUntil blocks until the tracer clock reads at least due. The
// runtime wakes a sleeping goroutine through its poller, whose timeout has
// millisecond granularity, so time.Sleep alone returns 0.5–1 ms late on an
// otherwise idle process; the goroutine therefore sleeps until spinWindow
// before due and yields in a loop for the rest. (Sleeping in the kernel
// instead would be exact, but a goroutine blocked in a system call keeps its
// P from the program under test until sysmon takes it back.)
func sleepUntil(tr *tracer, due int64) {
	if d := due - tr.now() - int64(spinWindow); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for tr.now() < due {
		runtime.Gosched()
	}
}

const spinWindow = 900 * time.Microsecond

// subscriber drains the TCP subscription, keeping every frame with its
// receive time. Coverage state is published through atomics so the
// committer can tell when a given commit has reached the subscriber.
type subscriber struct {
	p    *pipeline
	done chan struct{}

	mu     sync.Mutex
	frames []frameRec
	err    error // why the stream ended

	markers atomic.Int64    // marker tuples seen so far
	reflect [3]atomic.Int64 // latest Reflect component per source
}

func startSubscriber(p *pipeline) *subscriber {
	s := &subscriber{p: p, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			f, err := p.sub.Next()
			if err != nil {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
				return
			}
			s.record(f, p.tr.now())
		}
	}()
	return s
}

func (s *subscriber) record(f core.SubFrame, recv int64) {
	r := frameRec{recv: recv, frame: f}
	for name, t := range f.Reflect {
		if i := srcIndex(name); i >= 0 {
			r.reflect[i] = t
			s.reflect[i].Store(int64(t))
		}
	}
	if f.Delta != nil {
		r.markers = frameMarkers(f.Delta, f.Export)
	}
	s.mu.Lock()
	s.frames = append(s.frames, r)
	s.mu.Unlock()
	s.markers.Add(int64(len(r.markers)))
}

// snapshot returns the frames received so far.
func (s *subscriber) snapshot() []frameRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames[:len(s.frames):len(s.frames)]
}

// frameMarkers returns the commit ids whose marker tuple is inserted by a
// delta on export. T carries ΔR markers in r3 and ΔS markers in s2; VS
// carries ΔS markers in s2.
func frameMarkers(d *delta.RelDelta, export string) []int64 {
	cols := []int{1, 3} // T(r1, r3, s1, s2)
	if export == "VS" {
		cols = []int{1} // VS(s1, s2)
	}
	var out []int64
	d.Each(func(t relation.Tuple, n int) bool {
		if n <= 0 {
			return true
		}
		for _, c := range cols {
			if v := t[c].AsInt(); v >= markerBase {
				out = append(out, v-markerBase)
			}
		}
		return true
	})
	return out
}

// loadgen drives one committer and one query client against a pipeline.
type loadgen struct {
	p   *pipeline
	tr  *tracer
	gen *commitGen
	qg  *queryGen
	sub *subscriber

	ref                [2]window // a traced run's reference windows, before and after the open window
	openStart, openEnd int64     // ns; the open window, by due time
	loopEnd            int64     // end of the open-loop schedule
	satEnd             int64
	satQueueMax        int

	commits []commitRec
	queries []queryRec

	satStart    int64
	stalled     error // the subscriber never covered the committer's last commit
	stopQueries atomic.Bool
}

// apply commits c on its source and records it.
func (g *loadgen) apply(c commit, due int64, phase int8) *commitRec {
	r := commitRec{id: c.id, src: int8(c.src), phase: phase, due: due}
	r.applyStart = g.tr.now()
	r.t, r.err = g.p.dbs[c.src].Apply(c.d)
	r.applyEnd = g.tr.now()
	g.commits = append(g.commits, r)
	return &g.commits[len(g.commits)-1]
}

// phaseOf is the phase an operation due at due belongs to.
func (g *loadgen) phaseOf(due int64) int8 {
	switch {
	case due >= g.loopEnd:
		return phaseSat
	case due >= g.openStart && due < g.openEnd:
		return phaseOpen
	case g.ref[0].holds(due) || g.ref[1].holds(due):
		return phaseRef
	}
	return phaseWarm
}

// covered reports whether every commit issued so far has reached the TCP
// subscriber: all visible markers have arrived and, where frames carry the
// leaf sources' Reflect components, those have passed the last commit of
// each source.
func (g *loadgen) covered(visible int64, last [2]clock.Time) bool {
	if g.sub.markers.Load() < visible {
		return false
	}
	if g.p.w.Tiered {
		return true // every commit is visible in T; frames reflect the tier, not the leaves
	}
	for i, t := range last {
		if clock.Time(g.sub.reflect[i].Load()) < t {
			return false
		}
	}
	return true
}

// runCommits is the committer goroutine: open loop until loopEnd, then
// closed loop until satEnd, then it waits for the frame that covers its last
// commit.
func (g *loadgen) runCommits(sched schedule) {
	var visible int64
	var last [2]clock.Time
	note := func(r *commitRec) {
		if r.err != nil {
			return
		}
		last[r.src] = r.t
		if g.p.w.markerVisible(r.src) {
			visible++
		}
	}
	for i := 0; ; i++ {
		due := sched.due(i)
		if due >= g.loopEnd {
			break
		}
		c := g.gen.next()
		sleepUntil(g.tr, due)
		note(g.apply(c, due, g.phaseOf(due)))
	}
	// Let the open window's backlog drain so the closed loop starts empty.
	if !g.awaitCovered(visible, last) {
		return
	}
	g.satStart = g.tr.now()
	first := g.p.nodes()[0].med
	for g.tr.now() < g.satEnd {
		for first.QueueLen() > g.satQueueMax {
			time.Sleep(200 * time.Microsecond)
		}
		c := g.gen.next()
		note(g.apply(c, g.tr.now(), phaseSat))
	}
	g.awaitCovered(visible, last)
}

// awaitCovered polls covered until it holds; it gives up, and records why,
// when the subscriber has not caught up within coverTimeout.
func (g *loadgen) awaitCovered(visible int64, last [2]clock.Time) bool {
	deadline := time.Now().Add(coverTimeout)
	for !g.covered(visible, last) {
		if time.Now().After(deadline) {
			g.stalled = fmt.Errorf("subscriber saw %d of %d markers, reflect (%d,%d) of (%d,%d) after %s",
				g.sub.markers.Load(), visible, g.sub.reflect[0].Load(), g.sub.reflect[1].Load(), last[0], last[1], coverTimeout)
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

const coverTimeout = 20 * time.Second

// runQueries is the query client goroutine: open loop until stopped.
func (g *loadgen) runQueries(sched schedule) {
	for i := 0; !g.stopQueries.Load(); i++ {
		due := sched.due(i)
		q := g.qg.next()
		sleepUntil(g.tr, due)
		r := queryRec{cold: q.cold, due: due, phase: g.phaseOf(due)}
		r.start = g.tr.now()
		ans, _, version, err := g.p.qc.QueryVersioned("T", q.attrs, q.cond)
		r.end = g.tr.now()
		r.err, r.version = err, version
		if err == nil {
			r.rows = ans.Len()
		}
		g.queries = append(g.queries, r)
	}
}

// Points of a run at which run calls its hook, on the calling goroutine.
// All but the two ends of the open window occur in a traced run only.
const (
	hookWarmEnd   = iota // disconnect the observers
	hookTraceOn          // the first reference window has ended
	hookOpenStart        // snapshot counters
	hookOpenEnd          // snapshot counters
	hookTraceOff         // the open window's commits have been delivered
)

// run executes warm-up, the open window and the closed-loop phase. In a
// traced run the open window lies between two reference windows of half
// sc.Ref each, still on the open-loop schedule, and there is a settle time
// wherever the harness changes what is attached.
func (g *loadgen) run(sc scale, hook func(at int)) {
	w := g.p.w
	start := g.tr.now() + int64(5*time.Millisecond)
	warmEnd := start + int64(sc.Warm)
	g.ref[0].start = warmEnd + int64(sc.Settle)
	g.ref[0].end = g.ref[0].start + int64(sc.Ref/2)
	g.openStart = g.ref[0].end + int64(sc.Settle)
	g.openEnd = g.openStart + int64(sc.Open)
	g.ref[1].start = g.openEnd + int64(sc.Settle)
	g.ref[1].end = g.ref[1].start + int64(sc.Ref/2)
	g.loopEnd = g.openEnd
	if sc.Ref > 0 {
		g.loopEnd = g.ref[1].end
	}
	g.satEnd = g.loopEnd + int64(sc.Sat)
	g.satQueueMax = sc.SatQueueMax

	commitsDone := make(chan struct{})
	queriesDone := make(chan struct{})
	go func() {
		defer close(commitsDone)
		g.runCommits(schedule{start: start, interval: 1e9 / w.CommitRate})
	}()
	// Offset the two schedules by half a commit interval so commits and
	// queries are not due at the same instant.
	go func() {
		defer close(queriesDone)
		g.runQueries(schedule{start: start + int64(0.5e9/w.CommitRate), interval: 1e9 / w.QueryRate})
	}()

	if g.tr.enabled {
		sleepUntil(g.tr, warmEnd)
		hook(hookWarmEnd)
		sleepUntil(g.tr, g.ref[0].end)
		hook(hookTraceOn)
	}
	sleepUntil(g.tr, g.openStart)
	hook(hookOpenStart)
	sleepUntil(g.tr, g.openEnd)
	hook(hookOpenEnd)
	if g.tr.enabled {
		// Half the settle time is for the window's last commits to reach
		// the subscriber with their stamps, half for tracing to go off.
		sleepUntil(g.tr, g.openEnd+int64(sc.Settle/2))
		hook(hookTraceOff)
	}
	// The committer ends the run, once the subscriber holds its last
	// commit; queries keep their schedule until then.
	<-commitsDone
	g.stopQueries.Store(true)
	<-queriesDone
}
