package core

import (
	"fmt"
	"sort"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// This file implements the re-annotation transaction: switching a running
// mediator to a different annotation of the same plan structure with no
// downtime — §5.3's materialized/virtual trade-off as a live control
// action instead of a construction-time choice. The transaction is
// serialized with update transactions (txnMu), builds the relaid-out
// store copy-on-write, and publishes it together with a new plan epoch,
// so every concurrent query still resolves a (version, plan) pair that
// agree (see planEpoch).
//
// Consistency (Theorem 7.1 across the switch): a backfilled column is
// computed by the VAP under the OLD plan against the builder's base
// version — polls of announcing sources are compensated back to the
// base's ref′, so the new columns agree exactly with every untouched
// store portion; polls of newly-announcing sources are adopted at their
// serialization instant asOf, which is sound because a source that was a
// virtual contributor had NO materialized state derived from it, so
// advancing ref′[src] to asOf invalidates nothing. Dropping a column
// never changes ref′ at all. Queries pinned to pre-switch versions keep
// answering under the old epoch (their compensation log is retained while
// the pin lives), so every answer remains exact at its Reflect vector.

// AnnotationFlip describes one attribute's materialization change applied
// (or proposed) by a re-annotation.
type AnnotationFlip struct {
	// Node and Attr name the annotated attribute.
	Node string
	Attr string
	// Materialize is true for a virtual→materialized flip, false for
	// materialized→virtual.
	Materialize bool
}

// String renders the flip like "T.s2 v->m".
func (f AnnotationFlip) String() string {
	dir := "m->v"
	if f.Materialize {
		dir = "v->m"
	}
	return f.Node + "." + f.Attr + " " + dir
}

// diffAnnotations lists the attribute flips taking oldV's annotation to
// newV's, in plan order.
func diffAnnotations(oldV, newV *vdp.VDP) []AnnotationFlip {
	var flips []AnnotationFlip
	for _, name := range newV.NonLeaves() {
		on, nn := oldV.Node(name), newV.Node(name)
		for _, a := range nn.Schema.AttrNames() {
			was, is := on.Ann.IsMaterialized(a), nn.Ann.IsMaterialized(a)
			if was != is {
				flips = append(flips, AnnotationFlip{Node: name, Attr: a, Materialize: is})
			}
		}
	}
	return flips
}

// Reannotate switches the mediator to the given annotations (applied on
// top of the current ones; see vdp.VDP.Reannotate) while it keeps serving
// queries and updates. Newly materialized attributes are backfilled from
// source polls pinned to a consistent store state; newly virtual ones
// have their stored columns dropped. It returns the attribute flips
// applied — nil (with nil error) when the new annotation equals the
// current one.
func (m *Mediator) Reannotate(anns map[string]vdp.Annotation) ([]AnnotationFlip, error) {
	m.txnMu.Lock()
	defer m.txnMu.Unlock()
	start := time.Now()

	old := m.epoch()
	newV, err := old.v.Reannotate(anns)
	if err != nil {
		return nil, err
	}
	flips := diffAnnotations(old.v, newV)
	if len(flips) == 0 {
		return nil, nil
	}
	newContribs := classifyContributors(newV)

	// Partition the changed nodes by what the store must do: grown nodes
	// (some attribute newly materialized) are backfilled via the VAP,
	// shrunk-only nodes are re-projected locally from their stored
	// portion, and nodes with nothing materialized anymore are dropped.
	var grown, shrunk, dropped []string
	for _, name := range newV.NonLeaves() {
		oldMats := old.v.Node(name).MaterializedAttrs()
		newMats := newV.Node(name).MaterializedAttrs()
		if sameStrings(oldMats, newMats) {
			continue
		}
		switch {
		case len(newMats) == 0:
			dropped = append(dropped, name)
		case anyNewString(newMats, oldMats):
			grown = append(grown, name)
		default:
			shrunk = append(shrunk, name)
		}
	}

	// Sources flipping virtual→announcing need their announcement stream
	// captured before the backfill polls them.
	var capture []string
	for src, k := range old.contributors {
		if k == VirtualContributor && newContribs[src] != VirtualContributor {
			capture = append(capture, src)
		}
	}
	sort.Strings(capture)

	for attempt := 0; ; attempt++ {
		retry, err := m.reannotateOnce(old, newV, newContribs, grown, shrunk, dropped, capture)
		if err != nil {
			m.abortCapture(capture)
			return nil, err
		}
		if !retry {
			break
		}
		if attempt == maxUpdateRetries {
			m.abortCapture(capture)
			return nil, fmt.Errorf("core: re-annotation overtaken by %d concurrent publishes; giving up", attempt+1)
		}
		m.stats.txnRetries.Add(1)
		m.obs.txnRetries.Inc()
	}

	seq := uint64(0)
	if v := m.vstore.Current(); v != nil {
		seq = v.Seq()
	}
	for _, f := range flips {
		m.stats.annotationSwitches.Add(1)
		m.obs.annSwitches.Inc()
		m.obs.reg.Emit(metrics.Event{
			Type: metrics.EventAnnotation, Subject: f.String(), Dur: time.Since(start),
			Fields: map[string]int64{"version": int64(seq)},
		})
	}
	m.obs.reg.Emit(metrics.Event{
		Type: metrics.EventPublish, Subject: fmt.Sprintf("v%d", seq),
		Fields: map[string]int64{"version": int64(seq)},
	})
	return flips, nil
}

// reannotateOnce is one attempt: begin under mu, backfill outside it,
// commit under mu. retry reports that a concurrent publish (a resync)
// superseded the builder's base and the caller should start over.
func (m *Mediator) reannotateOnce(old *planEpoch, newV *vdp.VDP, newContribs map[string]ContributorKind, grown, shrunk, dropped, capture []string) (retry bool, err error) {
	m.mu.Lock()
	if m.vstore.Current() == nil {
		m.mu.Unlock()
		return false, fmt.Errorf("core: mediator not initialized")
	}
	b := m.vstore.Begin()
	m.mu.Unlock()

	// From here on, announcements from the about-to-announce sources are
	// queued even though every retained epoch still classifies them as
	// virtual: the backfill poll below anchors each stream at asOf, and
	// commits landing in the poll-to-switch gap must not be lost. Sequence
	// tracking restarts for streams that were dropped untracked while the
	// source was fully virtual.
	if len(capture) > 0 {
		m.qmu.Lock()
		for _, src := range capture {
			if !m.capture[src] && !m.announcingAnywhere(src) {
				m.lastSeq[src] = 0
			}
			m.capture[src] = true
		}
		m.qmu.Unlock()
	}

	// Backfill grown nodes under the OLD plan (see the file comment for
	// why this is exact at the builder base's ref′ / the new asOf).
	res := &tempResult{temps: map[string]*relation.Relation{}, polledAt: map[string]clock.Time{}}
	if len(grown) > 0 {
		reqs := make([]vdp.Requirement, 0, len(grown))
		for _, name := range grown {
			req, err := vdp.NewRequirement(old.v, name, newV.Node(name).MaterializedAttrs(), nil)
			if err != nil {
				return false, err
			}
			reqs = append(reqs, req)
		}
		plan, err := old.v.PlanTemporaries(reqs)
		if err != nil {
			return false, err
		}
		res, err = m.buildTemporaries(old, plan, b, FailFast)
		if err != nil {
			return false, err
		}
	}
	for _, src := range capture {
		if res.polledAt[src] == 0 {
			// Unreachable by construction: src becomes announcing only
			// because some grown node is reachable from its leaves, and that
			// node's backfill expands through src's (fully virtual under the
			// old plan) subtree, polling it. Fail loudly rather than publish
			// a ref′ component the store does not actually reflect.
			return false, fmt.Errorf("core: re-annotation backfill did not poll newly announcing source %q", src)
		}
	}

	for _, name := range grown {
		temp, ok := res.temps[name]
		if !ok {
			return false, fmt.Errorf("core: re-annotation backfill built no temporary for %q", name)
		}
		if err := storePortion(b, newV, newV.Node(name), temp); err != nil {
			return false, err
		}
	}
	for _, name := range shrunk {
		cur := b.Rel(name)
		if cur == nil {
			return false, fmt.Errorf("core: no stored portion for %q to shrink", name)
		}
		if err := storePortion(b, newV, newV.Node(name), cur); err != nil {
			return false, err
		}
	}
	for _, name := range dropped {
		b.Delete(name)
	}

	// Commit: adopt the captured sources' poll instants, swap the plan
	// epoch, publish — mu first (discard and retry if a resync published
	// while we were polling), then everything else under qmu like every
	// other publisher.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vstore.Current() != b.Base() {
		return true, nil
	}
	newEp := &planEpoch{v: newV, contributors: newContribs, since: b.Base().Seq() + 1}
	m.qmu.Lock()
	for _, src := range capture {
		asOf := res.polledAt[src]
		// The backfill reflects every commit of src up to asOf: drop the
		// captured announcements it covers (to the done log while pinned
		// versions from an epoch that classified src as announcing might
		// still compensate with them), and adopt asOf as ref′[src]. A
		// quarantine raised during capture (a gap in the newly adopted
		// stream) deliberately survives: the switch itself is exact at
		// asOf, and the runtime's next tick resyncs the now-announcing
		// source.
		oldLen := len(m.queue)
		kept := m.queue[:0]
		for _, a := range m.queue {
			if a.Source == src && a.Time <= asOf {
				if len(m.pins) > 0 {
					m.done = append(m.done, a)
				}
				continue
			}
			kept = append(kept, a)
		}
		m.queue = trimAnnouncements(kept, oldLen)
		if asOf > m.lastProcessed[src] {
			m.lastProcessed[src] = asOf
		}
		delete(m.capture, src)
	}
	// Swap the epoch head BEFORE publishing: a lock-free reader that
	// captured the old current version must still resolve the old epoch
	// (the new head's since is past that version's seq), and one that
	// observes the new version resolves the new head. Publishing first
	// would let a reader pair the new version with the old plan.
	newEp.prev.Store(m.plan.Load())
	m.plan.Store(newEp)
	m.vstore.Publish(b, m.lastProcessed.Clone(), m.clk.Now())
	m.pruneDoneLocked()
	m.pruneEpochsLocked()
	m.obs.queueLen.Set(int64(len(m.queue)))
	m.qmu.Unlock()
	// A re-annotation publish rebuilt store portions from backfill polls
	// the commit log never saw: replay cannot cross it (and the restored
	// annotation would not match the older records' layout anyway). mu is
	// held by the caller for the whole commit.
	m.logBarrierLocked("reannotate")
	// The relaid-out store was not produced by deltas, and the eligible
	// export set may have changed with the annotation: clear the resume
	// rings and drop every subscriber to snapshot-resync (or fail it, if
	// its export lost full materialization).
	m.subs.barrier("reannotate")
	m.feedBarrierLocked("reannotate", m.vstore.Current())
	return false, nil
}

// abortCapture undoes the capture flags after a failed re-annotation.
// Sources that stay virtual in every retained epoch have their
// provisionally adopted announcements dropped and their stream state
// reset (the next capture re-anchors it); sources some retained epoch
// still classifies as announcing keep everything but the flag — their
// entries were flowing regardless of the capture.
func (m *Mediator) abortCapture(capture []string) {
	if len(capture) == 0 {
		return
	}
	m.qmu.Lock()
	for _, src := range capture {
		if !m.capture[src] {
			continue
		}
		delete(m.capture, src)
		if m.announcingAnywhere(src) {
			continue
		}
		oldLen := len(m.queue)
		kept := m.queue[:0]
		for _, a := range m.queue {
			if a.Source != src {
				kept = append(kept, a)
			}
		}
		m.queue = trimAnnouncements(kept, oldLen)
		delete(m.gapPen, src)
		delete(m.quarantined, src)
		m.lastSeq[src] = 0
	}
	m.obs.queueLen.Set(int64(len(m.queue)))
	m.qmu.Unlock()
}

// anyNewString reports whether next contains a string absent from prev.
func anyNewString(next, prev []string) bool {
	have := make(map[string]bool, len(prev))
	for _, s := range prev {
		have[s] = true
	}
	for _, s := range next {
		if !have[s] {
			return true
		}
	}
	return false
}

// sameStrings reports element-wise equality.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
