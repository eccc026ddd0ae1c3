package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/metrics"
	"squirrel/internal/wal"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	out     string // result file; "" writes none
	tmpRoot string // parent of the run's temp dir; "" = the system default
}

// Histogram series read from each mediator's registry.
var (
	histPrepare   = metrics.SeriesName(core.MetricUpdateTxnSeconds, "phase", "prepare")
	histPolls     = metrics.SeriesName(core.MetricUpdateTxnSeconds, "phase", "polls")
	histPropagate = metrics.SeriesName(core.MetricUpdateTxnSeconds, "phase", "propagate")
	histCommit    = metrics.SeriesName(core.MetricUpdateTxnSeconds, "phase", "commit")
	histTotal     = metrics.SeriesName(core.MetricUpdateTxnSeconds, "phase", "total")
	histStageApp  = metrics.SeriesName(core.MetricKernelStageSeconds, "phase", "apply")
	histStageRule = metrics.SeriesName(core.MetricKernelStageSeconds, "phase", "rules")
	histQueryFast = metrics.SeriesName(core.MetricQuerySeconds, "path", "fast")
	histQueryPoll = metrics.SeriesName(core.MetricQuerySeconds, "path", "polling")
	histNames     = []string{histPrepare, histPolls, histPropagate, histCommit, histTotal,
		histStageApp, histStageRule, histQueryFast, histQueryPoll,
		core.MetricCompensationSeconds, core.MetricFlushSeconds}
)

// nodeSnap is a point-in-time reading of one mediator's instruments.
type nodeSnap struct {
	hist                          map[string]metrics.HistogramSnapshot
	stats                         core.Stats
	announcements                 int64
	walWrites, walBytes, walSyncs int64
	checkpoints                   int64
}

// snap is a point-in-time reading of everything the window metrics are
// differences of.
type snap struct {
	at     int64
	cpu    time.Duration
	mem    runtime.MemStats
	nodes  [2]nodeSnap
	spans  spanTotals
	polls  [3]int64
	tuples [3]int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnap(p *pipeline) snap {
	s := snap{at: p.tr.now(), cpu: cpuTime(), spans: p.tr.totals()}
	runtime.ReadMemStats(&s.mem)
	for _, n := range p.nodes() {
		ns := nodeSnap{hist: map[string]metrics.HistogramSnapshot{}, stats: n.med.Stats()}
		for _, name := range histNames {
			ns.hist[name] = n.reg.Histogram(name, nil).Snapshot()
		}
		for _, src := range n.plan.Sources() {
			ns.announcements += n.reg.Counter(metrics.SeriesName(core.MetricAnnouncementsTotal, "source", src)).Value()
		}
		ns.walWrites, ns.walBytes, ns.walSyncs = n.walIO.writes.Load(), n.walIO.bytes.Load(), n.walIO.syncs.Load()
		ns.checkpoints = n.reg.Counter(wal.MetricCompactions).Value()
		s.nodes[n.id] = ns
	}
	for i, b := range p.backends {
		s.polls[i], s.tuples[i] = b.polls.Load(), b.tuples.Load()
	}
	if p.tierFace != nil {
		s.polls[srcTier], s.tuples[srcTier] = p.tierFace.polls.Load(), p.tierFace.tuples.Load()
	}
	return s
}

// heapSampler records the live heap (what the last GC cycle found
// reachable) every 100 ms while running.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				rtmetrics.Read(sample)
				h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() []float64 {
	close(h.stop)
	h.done.Wait()
	return h.samples
}

func countFDs() int { return len(openFDs()) }

// openFDs names what every open file descriptor of the process refers to.
func openFDs() []string {
	ents, _ := os.ReadDir("/proc/self/fd")
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		target, _ := os.Readlink("/proc/self/fd/" + e.Name())
		out = append(out, target)
	}
	return out
}

// measured is everything one run observed, before it is reduced to metrics.
type measured struct {
	cfg    runConfig
	setups []setupTimes

	gen        *loadgen
	frames     []frameRec
	cov        coverage
	before     snap // start of the open window
	after      snap // end of the open window
	heap       []float64
	wire       observed // a traced run's warm-up, as its observers saw it
	recoveries []recovery
	walDirMB   float64
	probe      probeResult
	segs       []commitSegments
	spans      []span
	barriers   int64
	tierAnns   int64
	final      [2]core.Stats
}

// execute performs one complete run: set-up, load, correctness gate,
// recovery, probe, teardown. A non-nil error means the run is invalid and no
// metrics may be reported.
func execute(cfg runConfig) (*measured, error) {
	// The runtime's network poller keeps its descriptors once created; make
	// it create them before the baseline is taken.
	if ln, err := net.Listen("tcp", loopback); err == nil {
		ln.Close()
	}
	baseGoroutines, baseFDs := runtime.NumGoroutine(), countFDs()
	sc := scaleFor(cfg.seconds, cfg.quick, cfg.trace)
	m := &measured{cfg: cfg}
	tr := newTracer(time.Now(), cfg.trace)
	ds := genDataset(cfg.seed, sc.NR, sc.NS)

	// Set-up, several times over: all but the last are torn down again, and
	// setup_s is the median.
	var p *pipeline
	for i := 0; i < sc.Setups; i++ {
		if p != nil {
			if err := p.teardown(false); err != nil {
				return nil, fmt.Errorf("teardown after set-up %d: %w", i, err)
			}
		}
		var st setupTimes
		var err error
		if p, st, err = buildPipeline(cfg.w, ds, tr, cfg.tmpRoot); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, st)
	}
	tmp := p.tmp
	torn := false
	defer func() {
		if !torn {
			p.teardown(false) //nolint:errcheck // already failing; best-effort cleanup
		}
	}()

	g := &loadgen{p: p, tr: tr, sub: startSubscriber(p),
		gen: newCommitGen(cfg.w, cfg.seed, ds), qg: newQueryGen(cfg.w, cfg.seed, ds)}
	m.gen = g
	if cfg.trace {
		if err := p.startObservers(); err != nil {
			return nil, fmt.Errorf("connecting the observers: %w", err)
		}
	}
	var heap *heapSampler
	var traceErr error
	g.run(sc, func(at int) {
		switch at {
		case hookWarmEnd:
			m.wire, traceErr = p.stopObservers()
		case hookTraceOn:
			traceErr = errors.Join(traceErr, p.startTracing())
		case hookOpenStart:
			m.before = takeSnap(p)
			heap = startHeapSampler()
		case hookOpenEnd:
			m.heap = heap.finish()
			m.after = takeSnap(p)
		case hookTraceOff:
			p.stopTracing()
		}
	})
	if traceErr != nil {
		return nil, fmt.Errorf("tracing: %w", traceErr)
	}
	if g.stalled != nil {
		return nil, g.stalled
	}
	if err := quiesce(p); err != nil {
		return nil, err
	}

	m.frames = g.sub.snapshot()
	m.cov = matchCommits(cfg.w, g.commits, m.frames, p.first.Version)
	if err := gate(p, g, m.frames, m.cov); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}

	var err error
	if m.recoveries, m.walDirMB, err = recoverPhase(p, g, sc); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if cfg.trace {
		m.probe = runProbe(p, m.frames, sc.Probe)
	}
	for _, n := range p.nodes() {
		m.final[n.id] = n.med.Stats()
	}
	if p.tierFace != nil {
		m.barriers, m.tierAnns = p.tierFace.barred.Load(), p.tierFace.announced.Load()
	}

	torn = true
	if err := p.teardown(true); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	<-g.sub.done
	if m.barriers != 0 {
		return nil, fmt.Errorf("correctness gate: the tier announced %d barriers, want 0", m.barriers)
	}
	if err := leakCheck(baseGoroutines, baseFDs, tmp); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if cfg.trace {
		m.segs = buildSegments(p, g.commits, m.frames, m.cov)
		m.spans = tr.spans
	}
	return m, nil
}

// quiesce waits until every mediator's queue is empty and its loop healthy.
func quiesce(p *pipeline) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range p.nodes() {
		for n.med.QueueLen() > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("mediator %d still has %d queued announcements", n.id, n.med.QueueLen())
			}
			time.Sleep(time.Millisecond)
		}
		if err := n.rt.Err(); err != nil {
			return fmt.Errorf("mediator %d flush loop: %w", n.id, err)
		}
	}
	return nil
}

// leakCheck verifies that teardown returned the process to its baseline.
func leakCheck(baseGoroutines, baseFDs int, tmp string) error {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines || countFDs() > baseFDs {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("after teardown: %d goroutines (baseline %d), %d fds (baseline %d): %q\n%s",
				runtime.NumGoroutine(), baseGoroutines, countFDs(), baseFDs, openFDs(), buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		return fmt.Errorf("temp dir %s still exists after teardown", tmp)
	}
	return nil
}
