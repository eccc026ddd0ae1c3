package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"squirrel/internal/metrics"
	"squirrel/internal/vdp"
)

// This file closes the §5.3 loop online: a ProfileCollector derives a
// live vdp.WorkloadProfile from the mediator's own instruments
// (observe.go), and an AdaptController periodically feeds it to the
// advisor, damps the advice with hysteresis and a cooldown, and applies
// surviving flips through the re-annotation transaction (reannotate.go).
// The paper presents the materialized/virtual trade-off as a design-time
// choice informed by workload heuristics; here the same heuristics run
// against the workload the mediator is actually serving.

// Default AdaptConfig values, exported so the CLI flags can share them.
const (
	// DefAdaptInterval is the default controller period.
	DefAdaptInterval = 30 * time.Second
	// DefAdaptHysteresis is how many consecutive rounds the advisor must
	// repeat the same flip set before it is applied.
	DefAdaptHysteresis = 2
	// DefAdaptMinQueries is the minimum number of query transactions a
	// window must contain before its profile is trusted.
	DefAdaptMinQueries = 10
)

// ProfileCollector turns the mediator's metrics into windowed
// vdp.WorkloadProfiles: each Collect reports the traffic since the
// previous Collect (attribute access frequencies normalized by the
// window's query count, per-source announcement shares) and starts a new
// window. Peek reports the same without ending the window. Safe for
// concurrent use.
type ProfileCollector struct {
	med *Mediator

	mu sync.Mutex
	// Baselines: instrument values already consumed by a previous window.
	baseQueries int64
	baseAttr    map[string]map[string]int64 // export → attr → consumed count
	baseAnn     map[string]int64            // source → consumed count
}

// NewProfileCollector builds a collector over the mediator's instruments.
// The first window starts at the mediator's current counter values as
// seen now — construct the collector when observation should begin.
func NewProfileCollector(m *Mediator) *ProfileCollector {
	c := &ProfileCollector{
		med:         m,
		baseQueries: m.obs.queryCount.Value(),
		baseAttr:    make(map[string]map[string]int64),
		baseAnn:     make(map[string]int64),
	}
	for export, byAttr := range m.obs.attrAccess {
		c.baseAttr[export] = make(map[string]int64, len(byAttr))
		for a, ctr := range byAttr {
			c.baseAttr[export][a] = ctr.Value()
		}
	}
	for src, ctr := range m.obs.announcements {
		c.baseAnn[src] = ctr.Value()
	}
	return c
}

// Peek returns the profile of the window accumulated so far and its query
// count, without starting a new window.
func (c *ProfileCollector) Peek() (vdp.WorkloadProfile, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profileLocked(false)
}

// Collect returns the profile of the window accumulated so far and its
// query count, and starts a new window.
func (c *ProfileCollector) Collect() (vdp.WorkloadProfile, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profileLocked(true)
}

// PendingQueries reports how many query transactions the current window
// has accumulated.
func (c *ProfileCollector) PendingQueries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.med.obs.queryCount.Value() - c.baseQueries
}

// profileLocked computes the window profile; consume advances the
// baselines to the values just read. Requires mu.
func (c *ProfileCollector) profileLocked(consume bool) (vdp.WorkloadProfile, int64) {
	obs := c.med.obs
	queries := obs.queryCount.Value() - c.baseQueries

	// AccessFreq is keyed by bare attribute name (the advisor's contract):
	// touches of a name are summed across exports, normalized by the
	// window's query count, and capped at 1.
	access := make(map[string]float64)
	for export, byAttr := range obs.attrAccess {
		for a, ctr := range byAttr {
			v := ctr.Value()
			d := v - c.baseAttr[export][a]
			if d > 0 {
				access[a] += float64(d)
			}
			if consume {
				c.baseAttr[export][a] = v
			}
		}
	}
	if queries > 0 {
		for a, n := range access {
			f := n / float64(queries)
			if f > 1 {
				f = 1
			}
			access[a] = f
		}
	} else {
		for a := range access {
			access[a] = 0
		}
	}

	// UpdateShare: each source's fraction of the window's announcement
	// arrivals (the full stream, including announcements the mediator
	// dropped as irrelevant — churn is churn).
	share := make(map[string]float64)
	var total int64
	deltas := make(map[string]int64, len(obs.announcements))
	for src, ctr := range obs.announcements {
		v := ctr.Value()
		d := v - c.baseAnn[src]
		if d < 0 {
			d = 0
		}
		deltas[src] = d
		total += d
		if consume {
			c.baseAnn[src] = v
		}
	}
	for src, d := range deltas {
		if total > 0 {
			share[src] = float64(d) / float64(total)
		} else {
			share[src] = 0
		}
	}

	if consume {
		c.baseQueries += queries
	}
	return vdp.WorkloadProfile{AccessFreq: access, UpdateShare: share}, queries
}

// AdaptConfig tunes an AdaptController. The zero value is usable: default
// interval, hysteresis, and minimum window, automatic apply, default
// advisor thresholds.
type AdaptConfig struct {
	// Interval is the controller loop period (<= 0 means DefAdaptInterval).
	Interval time.Duration
	// Cooldown is the minimum wall time between applied re-annotations
	// (<= 0 means twice the interval). Hysteresis guards against a
	// flapping advisor; the cooldown additionally bounds how often the
	// store can be re-laid-out even when the advice legitimately keeps
	// changing.
	Cooldown time.Duration
	// HysteresisRounds is how many consecutive rounds the advisor must
	// propose the same flip set before it is applied (<= 0 means
	// DefAdaptHysteresis).
	HysteresisRounds int
	// MinQueries is the minimum query count a window needs before its
	// profile is trusted; smaller windows are left to keep accumulating
	// (<= 0 means DefAdaptMinQueries).
	MinQueries int64
	// Manual makes the controller observe-and-report only: loop rounds
	// never apply, and switches happen through Readvise(false) or
	// Mediator.Reannotate.
	Manual bool
	// HotAttrThreshold / ChurnThreshold override the advisor defaults
	// (vdp.WorkloadProfile semantics: nil means default, Threshold(0) is
	// an explicit zero).
	HotAttrThreshold *float64
	ChurnThreshold   *float64
}

func (c AdaptConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return DefAdaptInterval
}

func (c AdaptConfig) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 2 * c.interval()
}

func (c AdaptConfig) hysteresis() int {
	if c.HysteresisRounds > 0 {
		return c.HysteresisRounds
	}
	return DefAdaptHysteresis
}

func (c AdaptConfig) minQueries() int64 {
	if c.MinQueries > 0 {
		return c.MinQueries
	}
	return DefAdaptMinQueries
}

// AdaptDecision is one controller round's outcome: the observed window,
// the advisor's proposal, and what happened to it.
type AdaptDecision struct {
	// Profile is the windowed workload profile the advisor saw (with the
	// controller's thresholds filled in).
	Profile vdp.WorkloadProfile
	// Queries is the window's query-transaction count.
	Queries int64
	// Flips are the attribute changes the advice implies against the live
	// annotation (empty when the advisor agrees with it).
	Flips []AnnotationFlip
	// Reasons are the advisor's prose justifications.
	Reasons []string
	// Applied reports whether the flips were applied this round.
	Applied bool
	// Skipped is why nothing was applied ("" when Applied, or when there
	// was nothing to apply).
	Skipped string
}

// AdaptController runs the observe → advise → apply loop against one
// mediator. Construct with NewAdaptController; drive it with Start/Stop
// (the background loop), Step (one gated round), or Readvise (an
// operator-triggered round that bypasses the damping).
type AdaptController struct {
	med *Mediator
	cfg AdaptConfig
	col *ProfileCollector

	mu            sync.Mutex
	stop          chan struct{}
	done          chan struct{}
	pendingKey    string // canonical flip set awaiting hysteresis confirmation
	pendingRounds int
	lastApplied   time.Time
	last          *AdaptDecision
	rounds        int
	applied       int
}

// NewAdaptController builds a controller over the mediator. Observation
// starts now (the first window opens at the current counter values).
func NewAdaptController(m *Mediator, cfg AdaptConfig) *AdaptController {
	return &AdaptController{med: m, cfg: cfg, col: NewProfileCollector(m)}
}

// Start launches the periodic loop. It is an error to start a running
// controller.
func (c *AdaptController) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return fmt.Errorf("core: adapt controller already started")
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.stop, c.done)
	return nil
}

// Stop terminates the loop (no final round). Stopping a never-started or
// already-stopped controller is a no-op.
func (c *AdaptController) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (c *AdaptController) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.cfg.interval())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if _, err := c.Step(); err != nil {
				c.med.obs.reg.Emit(metrics.Event{
					Type: metrics.EventAdapt, Subject: "error", Err: err.Error(),
				})
			}
		}
	}
}

// Step runs one gated controller round: skip if the window is too thin,
// otherwise consume it, advise, and apply the flips once they have
// survived hysteresis and cooldown (and the controller is not Manual).
func (c *AdaptController) Step() (*AdaptDecision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if q := c.col.PendingQueries(); q < c.cfg.minQueries() {
		// Too few queries to trust the access frequencies; leave the
		// window accumulating rather than consuming a noisy one.
		d := &AdaptDecision{
			Queries: q,
			Skipped: fmt.Sprintf("window has %d queries (< %d): keep observing", q, c.cfg.minQueries()),
		}
		c.recordLocked(d)
		return d, nil
	}

	d, anns, err := c.adviseLocked(true)
	if err != nil {
		return nil, err
	}
	if len(d.Flips) == 0 {
		c.pendingKey, c.pendingRounds = "", 0
		d.Skipped = "advice matches the live annotation"
		c.recordLocked(d)
		return d, nil
	}
	key := flipKey(d.Flips)
	if key == c.pendingKey {
		c.pendingRounds++
	} else {
		c.pendingKey, c.pendingRounds = key, 1
	}
	if c.pendingRounds < c.cfg.hysteresis() {
		d.Skipped = fmt.Sprintf("hysteresis: flip set stable for %d/%d rounds", c.pendingRounds, c.cfg.hysteresis())
		c.recordLocked(d)
		return d, nil
	}
	if since := time.Since(c.lastApplied); !c.lastApplied.IsZero() && since < c.cfg.cooldown() {
		d.Skipped = fmt.Sprintf("cooldown: %s since last switch (< %s)", since.Round(time.Second), c.cfg.cooldown())
		c.recordLocked(d)
		return d, nil
	}
	if c.cfg.Manual {
		d.Skipped = "manual mode: apply with readvise or Reannotate"
		c.recordLocked(d)
		return d, nil
	}
	return c.applyLocked(d, anns)
}

// Readvise runs one operator-triggered round. dryRun previews: the window
// is peeked (not consumed) and nothing changes. Otherwise the window is
// consumed and the advice applied immediately — hysteresis, cooldown, and
// Manual are deliberately bypassed; the operator asked.
func (c *AdaptController) Readvise(dryRun bool) (*AdaptDecision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dryRun {
		d, _, err := c.adviseLocked(false)
		if err != nil {
			return nil, err
		}
		d.Skipped = "dry run"
		return d, nil
	}
	d, anns, err := c.adviseLocked(true)
	if err != nil {
		return nil, err
	}
	if len(d.Flips) == 0 {
		d.Skipped = "advice matches the live annotation"
		c.recordLocked(d)
		return d, nil
	}
	return c.applyLocked(d, anns)
}

// adviseLocked computes the window profile (consuming it or not), runs
// the advisor against the live plan, and diffs the advice into flips.
// Requires mu.
func (c *AdaptController) adviseLocked(consume bool) (*AdaptDecision, map[string]vdp.Annotation, error) {
	var profile vdp.WorkloadProfile
	var queries int64
	if consume {
		profile, queries = c.col.Collect()
	} else {
		profile, queries = c.col.Peek()
	}
	profile.HotAttrThreshold = c.cfg.HotAttrThreshold
	profile.ChurnThreshold = c.cfg.ChurnThreshold
	d := &AdaptDecision{Profile: profile, Queries: queries}

	v := c.med.VDP()
	advice := v.Advise(profile)
	d.Reasons = advice.Reasons
	// Build (and validate) the advised plan only to diff it — Reannotate
	// below re-derives it under txnMu against the then-current epoch.
	newV, err := v.Reannotate(advice.Annotations)
	if err != nil {
		return nil, nil, err
	}
	d.Flips = diffAnnotations(v, newV)
	return d, advice.Annotations, nil
}

// applyLocked applies the advice through the re-annotation transaction
// and records the round. Requires mu.
func (c *AdaptController) applyLocked(d *AdaptDecision, anns map[string]vdp.Annotation) (*AdaptDecision, error) {
	flips, err := c.med.Reannotate(anns)
	if err != nil {
		return nil, err
	}
	d.Flips = flips
	d.Applied = true
	c.pendingKey, c.pendingRounds = "", 0
	c.lastApplied = time.Now()
	c.applied++
	c.recordLocked(d)
	return d, nil
}

// recordLocked stores the round outcome and emits its event. Requires mu.
func (c *AdaptController) recordLocked(d *AdaptDecision) {
	c.rounds++
	c.last = d
	ev := metrics.Event{
		Type:    metrics.EventAdapt,
		Subject: "observed",
		Fields:  map[string]int64{"queries": d.Queries, "flips": int64(len(d.Flips))},
	}
	if d.Applied {
		ev.Subject = "applied " + flipKey(d.Flips)
	} else if d.Skipped != "" {
		ev.Err = d.Skipped
	}
	c.med.obs.reg.Emit(ev)
}

// LastDecision returns the most recent round's outcome (nil before any).
func (c *AdaptController) LastDecision() *AdaptDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Rounds reports how many rounds the controller has recorded; Applied how
// many of them applied a re-annotation.
func (c *AdaptController) Rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// Applied reports how many rounds applied a re-annotation.
func (c *AdaptController) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// flipKey canonicalizes a flip set for hysteresis comparison.
func flipKey(flips []AnnotationFlip) string {
	parts := make([]string, len(flips))
	for i, f := range flips {
		parts[i] = f.String()
	}
	return strings.Join(parts, ", ")
}
