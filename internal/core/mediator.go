// Package core implements the Squirrel integration mediator (§4, Fig. 3) —
// the paper's primary contribution. A Mediator owns:
//
//   - a versioned snapshot store (internal/store) holding the materialized
//     portion of every annotated VDP node (full relations for fully
//     materialized nodes, attribute projections for hybrid nodes, nothing
//     for virtual nodes) as a sequence of immutable published versions;
//   - an update queue fed by source-database announcements;
//   - the Incremental Update Processor (IUP, §6.4): the Kernel Algorithm
//     plus the general three-phase algorithm that materializes needed
//     virtual data before propagating;
//   - the Query Processor (QP) and Virtual Attribute Processor (VAP,
//     §6.3), including Eager Compensation when polling hybrid
//     contributors and key-based construction of temporaries
//     (Example 2.3).
//
// Update transactions keep the paper's sequential transaction model: one
// at a time, each building the next store version copy-on-write and
// publishing it in a single atomic swap. Query transactions pin a
// published version and run entirely outside the update mutex — purely
// materialized queries are lock-free while the IUP runs; VAP-polling
// queries coordinate only on the queue lock, for Eager Compensation
// against the pinned version's ref′. All methods are safe for concurrent
// use.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/store"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// ContributorKind classifies how a source database relates to the mediator
// (§4).
type ContributorKind uint8

const (
	// MaterializedContributor sources contribute only to materialized
	// data; they must announce updates and are never polled.
	MaterializedContributor ContributorKind = iota
	// HybridContributor sources contribute to both portions; they announce
	// updates and may be polled (with Eager Compensation).
	HybridContributor
	// VirtualContributor sources contribute only virtual data; they are
	// polled and need no active capabilities (legacy systems).
	VirtualContributor
)

// String names the kind.
func (k ContributorKind) String() string {
	switch k {
	case MaterializedContributor:
		return "materialized-contributor"
	case HybridContributor:
		return "hybrid-contributor"
	case VirtualContributor:
		return "virtual-contributor"
	}
	return "unknown"
}

// SourceConn is the mediator's connection to one source database: snapshot
// queries packaged as a single transaction. The returned time is the
// serialization instant of the read (the answer is exactly the source
// state at that instant). Implementations must preserve FIFO ordering
// between announcements and answers from the same source.
type SourceConn interface {
	Name() string
	QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error)
}

// LocalSource adapts an in-process source.DB to SourceConn.
type LocalSource struct {
	DB *source.DB
}

// Name implements SourceConn.
func (l LocalSource) Name() string { return l.DB.Name() }

// QueryMulti implements SourceConn.
func (l LocalSource) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	return l.DB.QueryMulti(specs)
}

// Stats is a point-in-time view of the mediator's operation counters —
// the counts §5.3's materialize-or-stay-virtual decision rests on — for
// the experiments, the CLI and the benchmark. Every counter field reads
// a metrics-registry series (DESIGN.md §4 names the series behind each
// one), so Stats and /metrics never disagree. QueueHighWater, the
// version fields, ResyncsStuck and Sources are state, not counts.
type Stats struct {
	UpdateTxns      int
	QueryTxns       int
	AtomsPropagated int // delta atoms applied across all nodes
	SourcePolls     int // QueryMulti round trips
	TuplesPolled    int // tuples received from sources
	TempsBuilt      int // temporary relations constructed
	KeyBasedTemps   int // temporaries built via key-based construction
	QueueHighWater  int
	// CurrentVersion is the sequence number of the published store version
	// (0 before initialization); VersionsPublished counts publishes by
	// this mediator instance.
	CurrentVersion    uint64
	VersionsPublished uint64
	// Fault-boundary counters (see health.go): failed poll attempts,
	// retries after them, polls fast-failed by an open breaker, queries
	// answered from stale cached polls, announcement gaps detected
	// (including proactive quarantines), and resyncs completed.
	PollFailures     int
	PollRetries      int
	BreakerFastFails int
	DegradedQueries  int
	GapsDetected     int
	Resyncs          int
	// ResyncsStuck counts sources currently flagged ResyncStuck (their
	// consecutive overtaken-resync count reached the threshold); see
	// SourceHealth.ResyncStuck for the per-source condition.
	ResyncsStuck int
	// Kernel counters (parallel.go): stages that had dirty nodes to
	// process, dirty nodes processed across those stages, sibling rows
	// rule firings read through a resident join index and through an
	// index built on the spot, and update transactions retried because a
	// concurrent resync published while the transaction was polling
	// outside the store mutex.
	KernelStages     int
	KernelStageNodes int
	KernelProbeRows  int
	KernelScanRows   int
	UpdateTxnRetries int
	// AnnotationSwitches counts attribute materialization flips applied by
	// re-annotation transactions (reannotate.go).
	AnnotationSwitches int
	// WALBarrierErrs counts barrier records the attached commit log failed
	// to persist (commitlog.go). Non-zero is survivable — replay's
	// version-continuity check still stops recovery at the unlogged
	// publish — but it means the log lost its early-stop marker.
	WALBarrierErrs int
	// Subscription counters (subscribe.go): live subscriptions, frames
	// delivered to consumers (snapshot and delta), frames folded into a
	// slow subscriber's queue tail under backpressure, queues dropped for
	// exceeding their MaxLag staleness bound, and snapshot resyncs forced
	// on subscribers (barriers, continuity gaps, expired resume points).
	ActiveSubscribers  int
	SubFramesDelivered int
	SubCoalesces       int
	SubLagDrops        int
	SubSnapshotResyncs int
	// Sources is the per-source health view (breaker state, quarantine,
	// last contact).
	Sources map[string]SourceHealth
}

// Config assembles a Mediator.
type Config struct {
	// VDP is the annotated plan; required.
	VDP *vdp.VDP
	// Sources maps every source database named in the VDP to a connection.
	Sources map[string]SourceConn
	// Clock stamps mediator transactions; it must be the integration
	// environment's global clock for the correctness checkers to apply.
	Clock clock.Clock
	// Recorder, if non-nil, receives the transaction trace.
	Recorder *trace.Recorder
	// Resilience tunes the per-source fault boundary (health.go). The
	// zero value means fail-fast: one attempt, no timeout, no breaker.
	Resilience ResilienceConfig
	// Deprecated: PropagateWorkers is ignored. Update transactions always
	// run the staged kernel (parallel.go) on a pool of GOMAXPROCS workers,
	// and VAP polls fan out one goroutine per polled source.
	PropagateWorkers int
	// Metrics, if non-nil, is the registry the mediator instruments
	// itself into (observe.go). A registry instruments one mediator: its
	// WAL and servers may share it, to be scraped from a single endpoint,
	// but a second mediator may not — Stats reads the registry's series,
	// so two mediators' counts would merge. Nil means a private registry,
	// still reachable via Mediator.Metrics().
	Metrics *metrics.Registry
}

// versionPin tracks how many in-flight query transactions are reading a
// published version. While a version is pinned, processed announcements
// newer than its ref′ are retained (in done) so Eager Compensation can
// roll polls back to the pinned state.
type versionPin struct {
	v    *store.Version
	refs int
}

// planEpoch is one annotated plan together with everything derived from
// the annotation: the contributor classification and the first store
// version sequence the plan governs. Re-annotation (reannotate.go) pushes
// a new epoch onto an intrusive chain; queries resolve the epoch that
// matches their pinned version via planFor, so a transaction never mixes
// one epoch's plan with another epoch's store layout. Epochs whose
// versions can no longer be pinned are pruned (pruneEpochsLocked).
type planEpoch struct {
	v            *vdp.VDP
	contributors map[string]ContributorKind
	// since is the first store version seq this epoch's annotation
	// applies to (0 for the construction epoch).
	since uint64
	// prev links to the epoch governing versions before since. Atomic so
	// lock-free readers can walk the chain while the pruner unlinks
	// tails.
	prev atomic.Pointer[planEpoch]
}

// Mediator is a Squirrel integration mediator.
type Mediator struct {
	// plan is the head of the epoch chain: the current annotated plan
	// plus the contributor classification derived from it. Swapped only
	// by Reannotate (under txnMu+mu+qmu) and Restore; read lock-free
	// everywhere else. Holders of txnMu or mu see a stable head.
	plan     atomic.Pointer[planEpoch]
	sources  map[string]SourceConn
	clk      clock.Clock
	recorder *trace.Recorder

	// txnMu serializes RunUpdateTransaction end to end: one update
	// transaction at a time, held across its VAP polls and kernel run.
	// Nothing else takes it. Lock order: txnMu before mu before qmu.
	txnMu sync.Mutex
	// commitLog, when non-nil, makes every update-transaction commit
	// durable before its version is published (commitlog.go). Guarded by
	// mu: every caller — commit, barrier publishers, SetCommitLog — holds
	// it.
	commitLog CommitLog

	// mu guards the store's write side (Begin/Publish and the state they
	// must agree with). Initialize, Restore, and ResyncSource hold it for
	// their whole run; RunUpdateTransaction holds it only to snapshot the
	// queue + begin the builder and again to commit, so a slow source
	// poll no longer blocks resyncs or anything else that needs mu. A
	// commit whose builder base is no longer the current version (a
	// resync published meanwhile) is discarded and the transaction
	// retried. Query transactions do NOT take mu: they pin a published
	// version from vstore instead.
	mu     sync.Mutex
	vstore *store.Store
	// kernel is phase (c) of an update transaction: the staged kernel on
	// a GOMAXPROCS-sized pool, fixed at construction. Tests swap in the
	// serial reference kernel through this field (export_test.go).
	kernel func(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error)
	// fanOutPolls issues a transaction's per-source polls concurrently.
	// It is off when the clock drives a single-threaded simulation
	// (clock.Sequential), whose sources must be polled on its goroutine.
	fanOutPolls bool

	leafSchemas map[string]*relation.Schema

	// viewInit is written (under mu) before the first version is
	// published; readers access it only after observing a published
	// version, so the atomic publish provides the happens-before edge.
	viewInit clock.Time

	// qmu guards the queue, the ref′ bookkeeping, and version pins; it is
	// the ONLY lock OnAnnouncement takes, so a source database can deliver
	// an announcement from inside its own commit while the mediator is
	// polling it. Lock order: mu before qmu; never qmu before mu — qmu is
	// a leaf lock, and no other lock is ever acquired while holding it.
	qmu   sync.Mutex
	queue []source.Announcement // announced, not yet processed
	// done retains processed announcements while some pinned version may
	// still need them: a polling query pinned to version V compensates
	// polls back to ref′(V), which requires every announcement with time
	// in (ref′(V)[src], poll instant] — including ones an update
	// transaction has already folded into a newer version.
	done           []source.Announcement
	pins           map[uint64]*versionPin // seq → pin
	lastProcessed  clock.Vector           // ref′: per announcing source
	initialized    bool
	queueHighWater int
	// announceCh is the group-commit wakeup: a buffered-1 signal sent
	// (non-blocking) whenever an announcement actually joins the queue or
	// a source is quarantined, so the runtime sleeps until work arrives.
	// Sends coalesce; receivers must re-check the queue.
	announceCh chan struct{}
	// Fault-boundary bookkeeping, also under qmu: the latest instant each
	// source's state is known at, the last accepted announcement sequence
	// number per source (0 = adopt the next one seen), quarantine reasons,
	// the pen holding announcements that arrived while quarantined, and
	// the per-source resync barrier — compensation for a version whose
	// ref′[src] predates the barrier must fail, because the announcement
	// gap lost the deltas its window needs.
	lastContact   clock.Vector
	lastSeq       map[string]uint64
	quarantined   map[string]string
	gapPen        map[string][]source.Announcement
	resyncBarrier clock.Vector
	// resyncOvertaken counts consecutive ErrResyncOvertaken failures per
	// source (reset on success) — the basis of the ResyncStuck health
	// condition.
	resyncOvertaken map[string]int
	// capture marks sources whose announcements must be queued even
	// though every retained epoch classifies them as virtual
	// contributors: a re-annotation transaction that is about to make
	// the source announcing sets the flag before its backfill poll, so
	// no commit between the poll and the epoch swap can be lost.
	capture map[string]bool
	// refRing holds, per federated tier source, the time-to-base-
	// coordinates translation ring (feed.go). Under qmu.
	refRing map[string][]refMapEntry

	// feed, when non-nil, observes every publish from inside the commit
	// path (feed.go) — the export-as-source adapter hangs off it. Under
	// mu, like the publishes it orders with.
	feed CommitFeed

	// Per-source fault boundary (health.go). resil and health are fixed
	// at construction; sleep is the retry-backoff pause, replaceable in
	// tests.
	resil  ResilienceConfig
	health map[string]*sourceHealth
	sleep  func(time.Duration)

	// cmu guards the raw poll cache for ServeStale degradation; a strict
	// leaf lock, never held while acquiring any other.
	cmu       sync.Mutex
	pollCache map[string]*cachedPoll

	// obs caches the metrics instruments (observe.go); fixed at
	// construction, never nil.
	obs *mediatorObs

	// subs is the push-delivery subscription registry (subscribe.go);
	// fixed at construction, never nil. Its lock nests strictly inside mu.
	subs *subRegistry
}

// New builds a mediator from the configuration. Call Initialize before
// querying.
func New(cfg Config) (*Mediator, error) {
	if cfg.VDP == nil {
		return nil, fmt.Errorf("core: config needs a VDP")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: config needs a clock")
	}
	m := &Mediator{
		sources:         make(map[string]SourceConn),
		clk:             cfg.Clock,
		recorder:        cfg.Recorder,
		vstore:          store.New(),
		pins:            make(map[uint64]*versionPin),
		lastProcessed:   make(clock.Vector),
		leafSchemas:     make(map[string]*relation.Schema),
		lastContact:     make(clock.Vector),
		lastSeq:         make(map[string]uint64),
		quarantined:     make(map[string]string),
		gapPen:          make(map[string][]source.Announcement),
		resyncBarrier:   make(clock.Vector),
		resyncOvertaken: make(map[string]int),
		capture:         make(map[string]bool),
		announceCh:      make(chan struct{}, 1),
		resil:           cfg.Resilience,
	}
	pool := runtime.GOMAXPROCS(0)
	m.kernel = func(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error) {
		return m.kernelStaged(b, combined, temps, pool)
	}
	_, sequential := cfg.Clock.(clock.Sequential)
	m.fanOutPolls = !sequential
	m.plan.Store(&planEpoch{v: cfg.VDP, contributors: classifyContributors(cfg.VDP)})
	for _, s := range cfg.VDP.Sources() {
		conn, ok := cfg.Sources[s]
		if !ok {
			return nil, fmt.Errorf("core: no connection for source database %q", s)
		}
		m.sources[s] = conn
	}
	for _, leaf := range cfg.VDP.Leaves() {
		m.leafSchemas[leaf] = cfg.VDP.Node(leaf).Schema
	}
	m.initHealth()
	m.obs = newMediatorObs(cfg.Metrics, cfg.VDP)
	m.subs = newSubRegistry(m, cfg.VDP)
	return m, nil
}

// classifyContributors implements the §4 taxonomy by reachability: a
// source contributes to the materialized (virtual) portion iff some node
// reachable from one of its leaves has a materialized (virtual) attribute.
func classifyContributors(v *vdp.VDP) map[string]ContributorKind {
	out := make(map[string]ContributorKind)
	for _, src := range v.Sources() {
		mat, virt := false, false
		reach := make(map[string]bool)
		var walk func(name string)
		walk = func(name string) {
			if reach[name] {
				return
			}
			reach[name] = true
			for _, p := range v.Parents(name) {
				walk(p)
			}
		}
		for _, leaf := range v.LeavesOf(src) {
			walk(leaf)
		}
		for name := range reach {
			n := v.Node(name)
			if n.IsLeaf() {
				continue
			}
			for _, a := range n.Schema.AttrNames() {
				if n.Ann.IsMaterialized(a) {
					mat = true
				} else {
					virt = true
				}
			}
		}
		switch {
		case mat && virt:
			out[src] = HybridContributor
		case virt:
			out[src] = VirtualContributor
		default:
			out[src] = MaterializedContributor
		}
	}
	return out
}

// epoch returns the current plan epoch (the chain head). Lock-free; the
// head is stable for holders of txnMu or mu, because every epoch swap
// happens under both.
func (m *Mediator) epoch() *planEpoch { return m.plan.Load() }

// curVDP returns the current epoch's plan. See epoch for stability.
func (m *Mediator) curVDP() *vdp.VDP { return m.epoch().v }

// planFor resolves the epoch governing store version seq: the newest
// epoch whose since ≤ seq. Returns nil when that epoch has been pruned
// (its versions can no longer be pinned) — callers retry with a fresh
// version. Lock-free.
func (m *Mediator) planFor(seq uint64) *planEpoch {
	for ep := m.plan.Load(); ep != nil; ep = ep.prev.Load() {
		if ep.since <= seq {
			return ep
		}
	}
	return nil
}

// announcingAnywhere reports whether any retained epoch classifies src as
// an announcing (non-virtual) contributor. While an old epoch is
// retained, a query pinned to one of its versions may still need to
// compensate src's polls, so src's announcements keep flowing into the
// queue even after a re-annotation made it virtual. Lock-free.
func (m *Mediator) announcingAnywhere(src string) bool {
	for ep := m.plan.Load(); ep != nil; ep = ep.prev.Load() {
		if k, ok := ep.contributors[src]; ok && k != VirtualContributor {
			return true
		}
	}
	return false
}

// pruneEpochsLocked unlinks epochs no pinnable version can resolve
// anymore: the newest epoch whose since is ≤ every pinned (and the
// current) version's seq covers everything reachable, so its prev chain
// is dropped. Caller holds qmu.
func (m *Mediator) pruneEpochsLocked() {
	cur := m.vstore.Current()
	if cur == nil {
		return
	}
	minSeq := cur.Seq()
	for _, p := range m.pins {
		if s := p.v.Seq(); s < minSeq {
			minSeq = s
		}
	}
	for ep := m.plan.Load(); ep != nil; ep = ep.prev.Load() {
		if ep.since <= minSeq {
			ep.prev.Store(nil)
			return
		}
	}
}

// Contributor returns the current classification of a source database
// (§4). Re-annotation can change it; use the QueryResult's version to
// attribute an answer to the plan that produced it.
func (m *Mediator) Contributor(src string) ContributorKind {
	return m.epoch().contributors[src]
}

// VDP returns the mediator's current plan (the head epoch's — Reannotate
// swaps it).
func (m *Mediator) VDP() *vdp.VDP { return m.curVDP() }

// Annotations returns a deep copy of the current plan's per-node
// annotations — the live annotation an adaptive mediator has drifted to,
// as opposed to the one it was constructed with.
func (m *Mediator) Annotations() map[string]vdp.Annotation {
	return m.curVDP().Annotations()
}

// Stats reads the operation counters from the mediator's metrics
// instruments (each field names its series in DESIGN.md §4) plus the
// queue and version state. Counters and gauges are atomic loads, each
// histogram count takes only that histogram's leaf mutex, the queue
// high-water mark comes from queueStats (which takes only the leaf lock
// qmu), and the version counters come from the store — no lock is ever
// held while acquiring another.
func (m *Mediator) Stats() Stats {
	o := m.obs
	s := Stats{
		UpdateTxns:         int(o.txnsTotal.Value()),
		QueryTxns:          int(o.queryFast.Count() + o.queryPolling.Count()),
		AtomsPropagated:    int(o.atoms.Value()),
		SourcePolls:        int(o.sourcePolls.Value()),
		TuplesPolled:       int(o.tuplesPolled.Value()),
		TempsBuilt:         int(o.tempsBuilt.Value()),
		KeyBasedTemps:      int(o.keyBasedTemps.Value()),
		PollRetries:        int(o.pollRetries.Value()),
		DegradedQueries:    int(o.degradedQueries.Value()),
		GapsDetected:       int(o.gapsDetected.Value()),
		Resyncs:            int(o.resyncs.Value()),
		KernelStages:       int(o.stageTotal.Count()),
		KernelStageNodes:   int(o.stageNodes.Value()),
		KernelProbeRows:    int(o.probeRows.Value()),
		KernelScanRows:     int(o.scanRows.Value()),
		UpdateTxnRetries:   int(o.txnRetries.Value()),
		AnnotationSwitches: int(o.annSwitches.Value()),
		WALBarrierErrs:     int(o.walBarrierErrs.Value()),
		ActiveSubscribers:  int(o.subsActive.Value()),
		SubFramesDelivered: int(o.subFrames.Value()),
		SubCoalesces:       int(o.subCoalesces.Value()),
		SubLagDrops:        int(o.subLagDrops.Value()),
		SubSnapshotResyncs: int(o.subResyncs.Value()),
	}
	for _, h := range o.pollErr {
		s.PollFailures += int(h.Count())
	}
	for _, c := range o.fastFails {
		s.BreakerFastFails += int(c.Value())
	}
	s.Sources = m.sourceHealthStats()
	for _, sh := range s.Sources {
		if sh.ResyncStuck {
			s.ResyncsStuck++
		}
	}
	s.QueueHighWater = m.queueStats()
	if v := m.vstore.Current(); v != nil {
		s.CurrentVersion = v.Seq()
	}
	s.VersionsPublished = m.vstore.VersionsPublished()
	return s
}

// queueStats reads the queue-side counters. It takes qmu alone — the
// documented lock order (mu before qmu, qmu strictly a leaf) means callers
// must not hold qmu already and may hold mu or nothing.
func (m *Mediator) queueStats() (highWater int) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return m.queueHighWater
}

// StoreVersion returns the sequence number of the currently published
// store version (0 before initialization). Every query answer is
// attributable to exactly one version; QueryResult.Version names it.
func (m *Mediator) StoreVersion() uint64 {
	if v := m.vstore.Current(); v != nil {
		return v.Seq()
	}
	return 0
}

// CurrentVersion returns the currently published store version (nil
// before initialization). A version is immutable: holding the pointer
// pins that state for as long as the caller needs it, at zero cost to
// writers. The relations it exposes are shared and must not be modified.
func (m *Mediator) CurrentVersion() *store.Version { return m.vstore.Current() }

// ViewInit returns t_view_init (zero until Initialize).
func (m *Mediator) ViewInit() clock.Time {
	if m.vstore.Current() == nil {
		return 0
	}
	return m.viewInit
}

// pinVersion pins the current version for a polling query transaction:
// while pinned, processed announcements newer than the version's ref′ are
// retained for Eager Compensation. Returns nil before initialization.
// Callers must release with unpinVersion.
func (m *Mediator) pinVersion() *store.Version {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	v := m.vstore.Current()
	if v == nil {
		return nil
	}
	p := m.pins[v.Seq()]
	if p == nil {
		p = &versionPin{v: v}
		m.pins[v.Seq()] = p
	}
	p.refs++
	return v
}

// unpinVersion releases a pin taken by pinVersion and prunes the retained
// announcement log.
func (m *Mediator) unpinVersion(v *store.Version) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	p := m.pins[v.Seq()]
	if p == nil {
		return
	}
	p.refs--
	if p.refs <= 0 {
		delete(m.pins, v.Seq())
		m.pruneDoneLocked()
		m.pruneEpochsLocked()
	}
}

// pruneDoneLocked drops retained announcements no pinned version can still
// need. Caller holds qmu.
func (m *Mediator) pruneDoneLocked() {
	if len(m.done) == 0 {
		return
	}
	if len(m.pins) == 0 {
		m.done = nil
		return
	}
	oldLen := len(m.done)
	kept := m.done[:0]
	for _, a := range m.done {
		for _, p := range m.pins {
			if a.Time > p.v.RefOf(a.Source) {
				kept = append(kept, a)
				break
			}
		}
	}
	m.done = trimAnnouncements(kept, oldLen)
}

// setQueueLocked installs q as the announcement queue and keeps what
// observes the queue in step with it: the high-water mark and the
// squirrel_queue_len gauge. Every rewrite of the queue goes through it.
// Requires qmu.
func (m *Mediator) setQueueLocked(q []source.Announcement) {
	m.queue = q
	if len(q) > m.queueHighWater {
		m.queueHighWater = len(q)
	}
	m.obs.queueLen.Set(int64(len(q)))
}

// trimAnnouncements zeroes the dropped tail of the slice's backing array
// (so the dropped announcements' deltas become collectible) and
// reallocates when capacity greatly exceeds length — without this, a
// one-time announcement burst would pin its full backing array forever.
// oldLen is the slice's length before it was resliced down.
func trimAnnouncements(s []source.Announcement, oldLen int) []source.Announcement {
	if oldLen > len(s) {
		tail := s[len(s):oldLen]
		for i := range tail {
			tail[i] = source.Announcement{}
		}
	}
	if cap(s) > 64 && cap(s) >= 4*len(s) {
		out := make([]source.Announcement, len(s))
		copy(out, s)
		return out
	}
	return s
}

// storeSchema returns the schema of a node's materialized portion.
func storeSchema(n *vdp.Node) (*relation.Schema, error) {
	mats := n.MaterializedAttrs()
	if len(mats) == 0 {
		return nil, nil
	}
	return n.Schema.Project(n.Name, mats)
}

// storePortion installs a node's materialized portion in the builder: the
// projection of from — the node's state over at least its materialized
// attributes — onto the node's store schema, under its store semantics
// (bag for hybrid portions: a projection of a set node can carry
// duplicates). A node with nothing materialized has its portion dropped.
func storePortion(b *store.Builder, v *vdp.VDP, n *vdp.Node, from *relation.Relation) error {
	schema, err := storeSchema(n)
	if err != nil {
		return err
	}
	if schema == nil {
		b.Delete(n.Name)
		return nil
	}
	positions, err := from.Schema().Positions(schema.AttrNames())
	if err != nil {
		return err
	}
	sem := n.Semantics()
	if n.Hybrid() {
		sem = relation.Bag
	}
	rel := relation.New(schema, sem)
	from.Each(func(t relation.Tuple, c int) bool {
		rel.Add(t.Project(positions), c)
		return true
	})
	setStored(b, v, n.Name, rel)
	return nil
}

// setStored is the one place a relation enters the store (initialization,
// resync, re-annotation, snapshot and checkpoint restore): it declares the
// join indexes the plan's rules probe the node on, then hands the relation
// to the builder. From there the indexes ride along on their own —
// Builder.Mutable clones them and every delta apply maintains them.
func setStored(b *store.Builder, v *vdp.VDP, name string, rel *relation.Relation) {
	for _, attrs := range v.JoinIndexes(name) {
		// The only failure is a join attribute the portion does not store
		// (a hybrid node): no index then — rules over that node read a VAP
		// temporary, indexed on the spot.
		_ = rel.EnsureIndex(attrs...)
	}
	b.Set(name, rel)
}

// CheckJoinIndexes verifies the index lifecycle on the current store
// version: every stored relation carries exactly the join indexes the
// plan declares over its stored attributes, and each index agrees with a
// scan of the relation. An invariant check for tests and soaks, meant for
// quiescence (it reads every row).
func (m *Mediator) CheckJoinIndexes() error {
	cur := m.vstore.Current()
	if cur == nil {
		return fmt.Errorf("core: mediator not initialized")
	}
	v := m.curVDP()
	for _, name := range cur.Nodes() {
		rel := cur.Rel(name)
		var want [][]string
		for _, attrs := range v.JoinIndexes(name) {
			if _, err := rel.Schema().Positions(attrs); err == nil {
				want = append(want, attrs)
			}
		}
		if got := rel.IndexedAttrs(); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("core: node %s carries join indexes %v, plan declares %v", name, got, want)
		}
		if err := rel.CheckIndexes(); err != nil {
			return fmt.Errorf("core: node %s: %w", name, err)
		}
	}
	return nil
}

// Initialize populates the materialized store by polling every source for
// its current leaf states and evaluating the VDP bottom-up, then publishes
// the result as store version 1. Announcements already subscribed are
// deduplicated against the poll times, so it is safe (and required for
// consistency) to connect announcement feeds before initializing.
func (m *Mediator) Initialize() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.qmu.Lock()
	inited := m.initialized
	m.qmu.Unlock()
	if inited {
		return fmt.Errorf("core: mediator already initialized")
	}
	// Poll every source for the full contents of its leaves, one
	// transaction per source, through the fault boundary (retry/backoff,
	// breaker, per-attempt deadline — no-ops under the zero config).
	v := m.curVDP()
	leafStates := make(map[string]*relation.Relation)
	for src := range m.sources {
		leaves := v.LeavesOf(src)
		if len(leaves) == 0 {
			continue
		}
		specs := make([]source.QuerySpec, len(leaves))
		for i, leaf := range leaves {
			specs[i] = source.QuerySpec{Rel: leaf}
		}
		answers, asOf, err := m.pollSource(src, specs, true)
		if err != nil {
			return fmt.Errorf("core: initializing from %s: %w", src, err)
		}
		m.obs.sourcePolls.Inc()
		for i, leaf := range leaves {
			leafStates[leaf] = answers[i]
			m.obs.tuplesPolled.Add(int64(answers[i].Len()))
		}
		m.qmu.Lock()
		m.lastProcessed[src] = asOf
		m.qmu.Unlock()
	}
	states, err := v.EvalAll(vdp.ResolverFromCatalog(leafStates))
	if err != nil {
		return fmt.Errorf("core: initial evaluation: %w", err)
	}
	b := m.vstore.Begin()
	for _, name := range v.NonLeaves() {
		if err := storePortion(b, v, v.Node(name), states[name]); err != nil {
			return err
		}
	}
	// Drop queued announcements already reflected in the initial poll,
	// and publish version 1 while holding qmu so pinners always observe a
	// version consistent with the queue state.
	m.qmu.Lock()
	oldLen := len(m.queue)
	kept := m.queue[:0]
	for _, a := range m.queue {
		if a.Time > m.lastProcessed[a.Source] {
			kept = append(kept, a)
		}
	}
	m.setQueueLocked(trimAnnouncements(kept, oldLen))
	// A gap detected among pre-initialization announcements is covered by
	// the full poll: reconcile each quarantined stream against its poll
	// instant (sources whose pen outruns the poll stay quarantined for a
	// later ResyncSource).
	for src := range m.quarantined {
		m.resolveSourceLocked(src, m.lastProcessed[src])
	}
	m.initialized = true
	m.viewInit = m.clk.Now()
	m.vstore.Publish(b, m.lastProcessed.Clone(), m.viewInit)
	m.qmu.Unlock()
	m.obs.reg.Emit(metrics.Event{Type: metrics.EventPublish, Subject: "v1", Fields: map[string]int64{"version": 1}})
	return nil
}

// OnAnnouncement enqueues a source update announcement. Wire this to
// source.DB.Subscribe (see ConnectLocal) or to a network feed. It takes
// only the queue lock, so sources can announce while the mediator is
// mid-transaction (even while it is polling them).
//
// Announcements from virtual contributors are dropped: per §4 those
// sources need no active capabilities, nothing materialized depends on
// them, and their polls are served (uncompensated) from their current
// state. Two adaptive-annotation exceptions keep the stream flowing: a
// re-annotation transaction capturing the source (it is about to become
// announcing), and a retained older epoch that still classifies it as
// announcing (pinned queries may need its announcements to compensate).
// Sequence checking: announcements carrying sequence numbers (Seq > 0)
// must arrive densely per source. A duplicate (Seq ≤ last seen) is
// dropped; a hole (FirstSeq > last+1) proves announcements were lost, so
// the source is quarantined — its stream is untrusted until ResyncSource
// re-derives the materialized state from a snapshot poll. While
// quarantined, arrivals are penned rather than queued.
func (m *Mediator) OnAnnouncement(a source.Announcement) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	// Count every arrival — including ones dropped below — so the
	// adaptive profile's per-source update shares see the full stream.
	if c := m.obs.announcements[a.Source]; c != nil {
		c.Inc()
	}
	if !m.capture[a.Source] && !m.announcingAnywhere(a.Source) {
		return
	}
	if a.Time > m.lastContact[a.Source] {
		m.lastContact[a.Source] = a.Time
	}
	// A federated tier's announcement carries its ref′ in base-source
	// coordinates: record the translation point even when the
	// announcement itself is penned or dropped below — the mapping
	// describes the tier's published state at that time regardless.
	if a.Reflect != nil {
		m.noteBaseReflectLocked(a.Source, a.Time, a.Reflect)
	}
	// A barrier announcement says the tier published a state NOT derived
	// from its previous announcement by a delta (a resync or a
	// re-annotation downstream): the delta stream cannot be trusted
	// across it, exactly like a detected gap, so quarantine and let the
	// next flush snapshot-resync the tier. The barrier consumed a
	// sequence number downstream, so even a receiver that misses this
	// message detects the hole when the next commit announces.
	if a.Barrier != "" {
		m.quarantineLocked(a.Source, "downstream barrier: "+a.Barrier)
		return
	}
	if m.quarantined[a.Source] != "" {
		m.penAppendLocked(a)
		return
	}
	if a.Seq != 0 {
		last := m.lastSeq[a.Source]
		first := a.FirstSeq
		if first == 0 {
			first = a.Seq
		}
		if last != 0 {
			if a.Seq <= last {
				return // duplicate / replayed announcement
			}
			if first > last+1 {
				m.quarantineLocked(a.Source, fmt.Sprintf("announcement gap: expected seq %d, got %d", last+1, first))
				m.penAppendLocked(a)
				return
			}
		}
		m.lastSeq[a.Source] = a.Seq
	}
	if m.initialized && a.Time <= m.lastProcessed[a.Source] {
		return // already reflected by a poll
	}
	m.setQueueLocked(append(m.queue, a))
	m.signalAnnounce()
}

// signalAnnounce raises the (coalescing) announce signal without blocking.
func (m *Mediator) signalAnnounce() {
	select {
	case m.announceCh <- struct{}{}:
	default:
	}
}

// AnnounceSignal returns a channel that receives a (coalesced) signal
// whenever an announcement joins the queue or a source is quarantined —
// whenever a flush has new work. Consumers must treat it as a wakeup, not
// a count: re-check the queue after each receive.
func (m *Mediator) AnnounceSignal() <-chan struct{} { return m.announceCh }

// QueueLen reports the number of pending announcements.
func (m *Mediator) QueueLen() int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.queue)
}

// ConnectLocal subscribes the mediator to an in-process source database
// and registers the connection. Call before Initialize.
func ConnectLocal(m *Mediator, db *source.DB) {
	db.Subscribe(m.OnAnnouncement)
}

// StoreSnapshot returns a clone of a node's materialized portion in the
// current version (nil for fully virtual nodes or before initialization).
// Lock-free: it reads the published version. Intended for inspection and
// tests.
func (m *Mediator) StoreSnapshot(node string) *relation.Relation {
	v := m.vstore.Current()
	if v == nil {
		return nil
	}
	r := v.Rel(node)
	if r == nil {
		return nil
	}
	return r.Clone()
}

// LastProcessed returns a copy of the ref′ vector.
func (m *Mediator) LastProcessed() clock.Vector {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return m.lastProcessed.Clone()
}
