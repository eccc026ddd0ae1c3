package core

import (
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/metrics"
	"squirrel/internal/vdp"
)

// observe.go wires the mediator into internal/metrics. All instruments
// are resolved once at construction and cached here, so hot paths touch
// only an atomic (counters, gauges) or one short mutex-protected
// critical section (histograms) — the registry lock is never on a
// steady-state path. Event emission goes to the registry's bounded ring
// buffer; its mutex is a strict leaf (the log never acquires another
// lock), so emitting while holding qmu or mu cannot deadlock.

// Metric family names exposed on /metrics. Kept as constants so the
// smoke tests and the CLI renderer spell them identically.
const (
	MetricUpdateTxnSeconds    = "squirrel_update_txn_seconds" // labeled phase=prepare|polls|propagate|commit|total
	MetricUpdateTxnsTotal     = "squirrel_update_txns_total"  // committed update transactions
	MetricUpdateTxnRetries    = "squirrel_update_txn_retries_total"
	MetricKernelStageSeconds  = "squirrel_kernel_stage_seconds"    // labeled phase=apply|rules|total
	MetricKernelProbeRows     = "squirrel_kernel_probe_rows_total" // sibling rows rule firings read through a resident join index
	MetricKernelScanRows      = "squirrel_kernel_scan_rows_total"  // ... through an index built on the spot (a rule off the indexed path)
	MetricSourcePollSeconds   = "squirrel_source_poll_seconds"     // labeled source=...,outcome=ok|error
	MetricBreakerFastFails    = "squirrel_breaker_fastfails_total" // labeled source=...
	MetricCompensationSeconds = "squirrel_compensation_seconds"
	MetricQuerySeconds        = "squirrel_query_seconds" // labeled path=fast|polling
	MetricQueryErrors         = "squirrel_query_errors_total"
	MetricVersionAgeTicks     = "squirrel_query_version_age_ticks" // logical clock distance commit − version stamp
	MetricQueueLen            = "squirrel_queue_len"
	MetricFlushSeconds        = "squirrel_flush_seconds" // runtime flushAll duration
	// Adaptive-annotation instruments (adapt.go): per-export-attribute
	// query touch counts and the total query count they are normalized
	// by, per-source announcement arrivals (the update-share signal), and
	// applied annotation switches.
	MetricQueryTxnsTotal          = "squirrel_query_txns_total"
	MetricAttrAccessTotal         = "squirrel_query_attr_access_total" // labeled export=...,attr=...
	MetricAnnouncementsTotal      = "squirrel_announcements_total"     // labeled source=...
	MetricAnnotationSwitchesTotal = "squirrel_annotation_switches_total"
	// Subscription instruments (subscribe.go): live subscription count,
	// aggregate undelivered-frame depth across all queues, frames
	// delivered, coalesces under backpressure, MaxLag queue drops, and
	// forced snapshot resyncs.
	MetricSubscribersActive = "squirrel_subscribers_active"
	MetricSubQueueDepth     = "squirrel_sub_queue_depth"
	MetricSubFramesTotal    = "squirrel_sub_frames_total"
	MetricSubCoalescesTotal = "squirrel_sub_coalesces_total"
	MetricSubLagDropsTotal  = "squirrel_sub_lag_drops_total"
	MetricSubResyncsTotal   = "squirrel_sub_resyncs_total"
	// Operation counters that back a Stats field and have no other
	// instrument (see Stats for each one's meaning).
	MetricAtomsPropagated  = "squirrel_atoms_propagated_total"
	MetricSourcePolls      = "squirrel_source_polls_total"
	MetricTuplesPolled     = "squirrel_tuples_polled_total"
	MetricTempsBuilt       = "squirrel_temps_built_total"
	MetricKeyBasedTemps    = "squirrel_key_based_temps_total"
	MetricPollRetries      = "squirrel_poll_retries_total"
	MetricDegradedQueries  = "squirrel_degraded_queries_total"
	MetricGapsDetected     = "squirrel_gaps_detected_total"
	MetricResyncs          = "squirrel_resyncs_total"
	MetricKernelStageNodes = "squirrel_kernel_stage_nodes_total"
	MetricWALBarrierErrors = "squirrel_wal_barrier_errors_total"
)

// mediatorObs caches the mediator's instruments. Per-source series are
// pre-resolved for the fixed source set; the maps are read-only after
// construction.
type mediatorObs struct {
	reg *metrics.Registry

	txnPrepare   *metrics.Histogram
	txnPolls     *metrics.Histogram
	txnPropagate *metrics.Histogram
	txnCommit    *metrics.Histogram
	txnTotal     *metrics.Histogram
	txnsTotal    *metrics.Counter
	txnRetries   *metrics.Counter

	stageApply *metrics.Histogram
	stageRules *metrics.Histogram
	stageTotal *metrics.Histogram
	probeRows  *metrics.Counter
	scanRows   *metrics.Counter

	compensation *metrics.Histogram

	queryFast    *metrics.Histogram
	queryPolling *metrics.Histogram
	queryErrors  *metrics.Counter
	versionAge   *metrics.Histogram

	queueLen *metrics.Gauge

	pollOK    map[string]*metrics.Histogram
	pollErr   map[string]*metrics.Histogram
	fastFails map[string]*metrics.Counter

	// Adaptive-annotation signal instruments: per-source announcement
	// arrivals, per-export-attribute query touches (keyed export → attr;
	// schemas are fixed even across re-annotation, so the nested maps are
	// read-only after construction), the query count they are normalized
	// by, and applied annotation switches.
	announcements map[string]*metrics.Counter
	attrAccess    map[string]map[string]*metrics.Counter
	queryCount    *metrics.Counter
	annSwitches   *metrics.Counter

	// Subscription instruments (subscribe.go).
	subsActive    *metrics.Gauge
	subQueueDepth *metrics.Gauge
	subFrames     *metrics.Counter
	subCoalesces  *metrics.Counter
	subLagDrops   *metrics.Counter
	subResyncs    *metrics.Counter

	atoms           *metrics.Counter
	sourcePolls     *metrics.Counter
	tuplesPolled    *metrics.Counter
	tempsBuilt      *metrics.Counter
	keyBasedTemps   *metrics.Counter
	pollRetries     *metrics.Counter
	degradedQueries *metrics.Counter
	gapsDetected    *metrics.Counter
	resyncs         *metrics.Counter
	stageNodes      *metrics.Counter
	walBarrierErrs  *metrics.Counter
}

func newMediatorObs(reg *metrics.Registry, plan *vdp.VDP) *mediatorObs {
	if reg == nil {
		reg = metrics.NewRegistry(0)
	}
	sources := plan.Sources()
	txnHist := func(phase string) *metrics.Histogram {
		return reg.Histogram(metrics.SeriesName(MetricUpdateTxnSeconds, "phase", phase), metrics.DefLatencyBuckets)
	}
	stageHist := func(phase string) *metrics.Histogram {
		return reg.Histogram(metrics.SeriesName(MetricKernelStageSeconds, "phase", phase), metrics.DefLatencyBuckets)
	}
	o := &mediatorObs{
		reg:           reg,
		txnPrepare:    txnHist("prepare"),
		txnPolls:      txnHist("polls"),
		txnPropagate:  txnHist("propagate"),
		txnCommit:     txnHist("commit"),
		txnTotal:      txnHist("total"),
		txnsTotal:     reg.Counter(MetricUpdateTxnsTotal),
		txnRetries:    reg.Counter(MetricUpdateTxnRetries),
		stageApply:    stageHist("apply"),
		stageRules:    stageHist("rules"),
		stageTotal:    stageHist("total"),
		probeRows:     reg.Counter(MetricKernelProbeRows),
		scanRows:      reg.Counter(MetricKernelScanRows),
		compensation:  reg.Histogram(MetricCompensationSeconds, metrics.DefLatencyBuckets),
		queryFast:     reg.Histogram(metrics.SeriesName(MetricQuerySeconds, "path", "fast"), metrics.DefLatencyBuckets),
		queryPolling:  reg.Histogram(metrics.SeriesName(MetricQuerySeconds, "path", "polling"), metrics.DefLatencyBuckets),
		queryErrors:   reg.Counter(MetricQueryErrors),
		versionAge:    reg.Histogram(MetricVersionAgeTicks, metrics.DefTickBuckets),
		queueLen:      reg.Gauge(MetricQueueLen),
		pollOK:        make(map[string]*metrics.Histogram, len(sources)),
		pollErr:       make(map[string]*metrics.Histogram, len(sources)),
		fastFails:     make(map[string]*metrics.Counter, len(sources)),
		announcements: make(map[string]*metrics.Counter, len(sources)),
		attrAccess:    make(map[string]map[string]*metrics.Counter),
		queryCount:    reg.Counter(MetricQueryTxnsTotal),
		annSwitches:   reg.Counter(MetricAnnotationSwitchesTotal),
		subsActive:    reg.Gauge(MetricSubscribersActive),
		subQueueDepth: reg.Gauge(MetricSubQueueDepth),
		subFrames:     reg.Counter(MetricSubFramesTotal),
		subCoalesces:  reg.Counter(MetricSubCoalescesTotal),
		subLagDrops:   reg.Counter(MetricSubLagDropsTotal),
		subResyncs:    reg.Counter(MetricSubResyncsTotal),

		atoms:           reg.Counter(MetricAtomsPropagated),
		sourcePolls:     reg.Counter(MetricSourcePolls),
		tuplesPolled:    reg.Counter(MetricTuplesPolled),
		tempsBuilt:      reg.Counter(MetricTempsBuilt),
		keyBasedTemps:   reg.Counter(MetricKeyBasedTemps),
		pollRetries:     reg.Counter(MetricPollRetries),
		degradedQueries: reg.Counter(MetricDegradedQueries),
		gapsDetected:    reg.Counter(MetricGapsDetected),
		resyncs:         reg.Counter(MetricResyncs),
		stageNodes:      reg.Counter(MetricKernelStageNodes),
		walBarrierErrs:  reg.Counter(MetricWALBarrierErrors),
	}
	for _, src := range sources {
		o.pollOK[src] = reg.Histogram(metrics.SeriesName(MetricSourcePollSeconds, "source", src, "outcome", "ok"), metrics.DefLatencyBuckets)
		o.pollErr[src] = reg.Histogram(metrics.SeriesName(MetricSourcePollSeconds, "source", src, "outcome", "error"), metrics.DefLatencyBuckets)
		o.fastFails[src] = reg.Counter(metrics.SeriesName(MetricBreakerFastFails, "source", src))
		o.announcements[src] = reg.Counter(metrics.SeriesName(MetricAnnouncementsTotal, "source", src))
	}
	for _, name := range plan.Exports() {
		n := plan.Node(name)
		byAttr := make(map[string]*metrics.Counter, n.Schema.Arity())
		for _, a := range n.Schema.AttrNames() {
			byAttr[a] = reg.Counter(metrics.SeriesName(MetricAttrAccessTotal, "export", name, "attr", a))
		}
		o.attrAccess[name] = byAttr
	}
	return o
}

// noteQuery bumps the adaptive-annotation workload signal for one query
// transaction: the per-attribute touch counters of the export it read and
// the query count they are normalized by. attrs is the requirement's
// closed attribute list (projection plus condition attributes).
func (o *mediatorObs) noteQuery(export string, attrs []string) {
	o.queryCount.Inc()
	byAttr := o.attrAccess[export]
	for _, a := range attrs {
		if c := byAttr[a]; c != nil {
			c.Inc()
		}
	}
}

// observeQuery records one committed query transaction: its latency
// under its path (polling when the VAP ran) and how far, in logical
// ticks, the answer's version lagged the query's commit instant — the
// freshness the u_hold_delay / MaxStaleness knobs trade away.
func (o *mediatorObs) observeQuery(polling bool, start time.Time, age clock.Time) {
	if polling {
		o.queryPolling.ObserveSince(start)
	} else {
		o.queryFast.ObserveSince(start)
	}
	if age >= 0 {
		o.versionAge.Observe(float64(age))
	}
}

// observePollAttempt records one source round trip's latency under its
// outcome series and emits a poll event for failures (success polls are
// summarized by the per-transaction events; failures are rare and worth
// a line each).
func (o *mediatorObs) observePollAttempt(src string, start time.Time, err error) {
	d := time.Since(start)
	if err == nil {
		if h := o.pollOK[src]; h != nil {
			h.Observe(d.Seconds())
		}
		return
	}
	if h := o.pollErr[src]; h != nil {
		h.Observe(d.Seconds())
	}
	o.reg.Emit(metrics.Event{Type: metrics.EventPoll, Subject: src, Dur: d, Err: err.Error()})
}

// observeBreaker emits a breaker-transition event when the state changed
// across one breaker interaction.
func (o *mediatorObs) observeBreaker(src, before, after string, trips uint64) {
	if before == after {
		return
	}
	o.reg.Emit(metrics.Event{
		Type:    metrics.EventBreaker,
		Subject: src + " " + before + "->" + after,
		Fields:  map[string]int64{"trips": int64(trips)},
	})
}

// Metrics returns the mediator's metrics registry. Always non-nil: when
// Config.Metrics is unset the mediator creates a private registry, so
// instrumentation is unconditional (its cost is the overhead budget
// DESIGN.md documents, not a mode).
func (m *Mediator) Metrics() *metrics.Registry { return m.obs.reg }

// MetricsSnapshot captures every instrument and the retained events; see
// metrics.Registry.Snapshot for the consistency contract.
func (m *Mediator) MetricsSnapshot() metrics.Snapshot { return m.obs.reg.Snapshot() }
