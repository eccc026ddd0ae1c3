package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// ErrResyncOvertaken classifies a resync failure: the snapshot poll
// completed, but announcements penned during the quarantine carry times
// past the poll instant, so the snapshot cannot vouch for the commits
// the gap may have lost after it. This is NOT a "source still down"
// failure — the source answered — and unlike one it will never succeed
// while the source keeps committing ahead of every poll; consecutive
// occurrences raise the ResyncStuck health condition. Test with
// errors.Is.
var ErrResyncOvertaken = errors.New("resync overtaken by newer penned announcements")

// Resync re-establishes materialized consistency for a source whose
// announcement stream broke (a detected sequence gap, or a transport
// reconnect that may have dropped announcements silently). Applying the
// post-gap deltas would be unsound — the materialized state would skip
// the lost commits forever — so the mediator instead re-derives every
// materialized node the source feeds from a fresh full snapshot poll,
// rolling the helper sources' answers back to the current ref′ with Eager
// Compensation so the rebuilt nodes agree exactly with the untouched
// ones.

// resyncClosure computes, for src: the non-leaf nodes with a materialized
// portion reachable from its leaves (the nodes to rebuild), the
// evaluation set (those nodes plus every descendant), and the leaves
// feeding that evaluation, sorted.
func resyncClosure(v *vdp.VDP, src string) (affected, needEval map[string]bool, leaves []string) {
	reach := make(map[string]bool)
	var up func(string)
	up = func(name string) {
		if reach[name] {
			return
		}
		reach[name] = true
		for _, p := range v.Parents(name) {
			up(p)
		}
	}
	for _, leaf := range v.LeavesOf(src) {
		up(leaf)
	}
	affected = make(map[string]bool)
	for name := range reach {
		n := v.Node(name)
		if !n.IsLeaf() && len(n.MaterializedAttrs()) > 0 {
			affected[name] = true
		}
	}
	needEval = make(map[string]bool)
	var down func(string)
	down = func(name string) {
		if needEval[name] {
			return
		}
		needEval[name] = true
		if v.Node(name).IsLeaf() {
			leaves = append(leaves, name)
			return
		}
		for _, c := range v.Children(name) {
			down(c)
		}
	}
	for name := range affected {
		down(name)
	}
	sort.Strings(leaves)
	return affected, needEval, leaves
}

// ResyncSource rebuilds every materialized node fed by src from a fresh
// full snapshot poll and lifts its quarantine. It runs as an update
// transaction (serialized under mu, published atomically). Safe to call
// on a healthy source (an idempotent repair); a no-op for virtual
// contributors, whose announcements the mediator never consumes.
//
// The helper sources' poll answers are rolled back to the current
// version's ref′ via Eager Compensation; this is always possible because
// every leaf below a materialized node belongs to an announcing source
// (classifyContributors: a source with materialized reach is never a
// virtual contributor). src's own answer is adopted uncompensated at its
// poll instant asOf, which becomes ref′[src]. In-flight queries pinned to
// pre-resync versions can no longer compensate src's polls — the gap lost
// the deltas their window needs — so compensate refuses them via the
// per-source resync barrier instead of answering wrong.
func (m *Mediator) ResyncSource(src string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vstore.Current() == nil {
		return fmt.Errorf("core: mediator not initialized")
	}
	if _, ok := m.sources[src]; !ok {
		return fmt.Errorf("core: unknown source %q", src)
	}
	// The epoch is stable while mu is held: swaps happen under mu.
	v := m.curVDP()
	if m.epoch().contributors[src] == VirtualContributor {
		if !m.announcingAnywhere(src) {
			// A quarantine can survive a flip to virtual. Announcements
			// from a fully virtual source are dropped anyway and its polls
			// are fresh snapshots, so there is nothing to re-derive — just
			// clear the stale stream state so polls work again.
			m.qmu.Lock()
			delete(m.quarantined, src)
			delete(m.gapPen, src)
			m.lastSeq[src] = 0
			m.qmu.Unlock()
		}
		return nil
	}
	start := time.Now()

	affected, needEval, leaves := resyncClosure(v, src)
	bySource := make(map[string][]string)
	for _, leaf := range leaves {
		ls := v.Node(leaf).Source
		bySource[ls] = append(bySource[ls], leaf)
	}
	if len(bySource[src]) == 0 {
		// Degenerate plan where src feeds nothing materialized: still poll
		// it so the stream can be re-anchored at a known instant.
		bySource[src] = v.LeavesOf(src)
	}
	srcs := make([]string, 0, len(bySource))
	for s := range bySource {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)

	b := m.vstore.Begin()
	states := make(map[string]*relation.Relation)
	var asOfSrc clock.Time
	for _, s := range srcs {
		ls := bySource[s]
		specs := make([]source.QuerySpec, len(ls))
		for i, leaf := range ls {
			specs[i] = source.QuerySpec{Rel: leaf}
		}
		answers, asOf, err := m.pollSource(s, specs, true)
		if err != nil {
			err = fmt.Errorf("core: resync poll of %s: %w", s, err)
			m.obs.reg.Emit(metrics.Event{Type: metrics.EventResync, Subject: src, Dur: time.Since(start), Err: err.Error()})
			return err
		}
		m.stats.sourcePolls.Add(1)
		if s == src {
			asOfSrc = asOf
		}
		for i, leaf := range ls {
			ans := answers[i]
			m.stats.tuplesPolled.Add(int64(ans.Len()))
			if s != src {
				if err := m.compensate(ans, s, vdp.PollSpec{Source: s, Leaf: leaf}, asOf, b); err != nil {
					return fmt.Errorf("core: resync compensation for %s/%s: %w", s, leaf, err)
				}
			}
			states[leaf] = ans
		}
	}

	// Re-evaluate the affected sub-DAG bottom-up (Order is topological and
	// the evaluation set is child-closed, so every input is in states).
	for _, name := range v.Order() {
		if !needEval[name] || v.Node(name).IsLeaf() {
			continue
		}
		r, err := vdp.EvalDef(v.Node(name), vdp.ResolverFromCatalog(states))
		if err != nil {
			return fmt.Errorf("core: resync evaluation of %s: %w", name, err)
		}
		states[name] = r
	}
	for _, name := range v.Order() {
		if !affected[name] {
			continue
		}
		if err := storePortion(b, v, v.Node(name), states[name]); err != nil {
			return err
		}
	}

	// Commit: reconcile the announcement stream against the snapshot and
	// publish — all under qmu, like every other publish.
	m.qmu.Lock()
	if !m.resolveSourceLocked(src, asOfSrc) {
		m.resyncOvertaken[src]++
		overtaken := m.resyncOvertaken[src]
		m.qmu.Unlock()
		err := fmt.Errorf("core: resync of %q: %w; retry", src, ErrResyncOvertaken)
		m.obs.reg.Emit(metrics.Event{
			Type: metrics.EventResync, Subject: src, Dur: time.Since(start), Err: err.Error(),
			Fields: map[string]int64{"overtaken": int64(overtaken)},
		})
		return err
	}
	delete(m.resyncOvertaken, src)
	if asOfSrc > m.lastProcessed[src] {
		m.lastProcessed[src] = asOfSrc
	}
	m.resyncBarrier[src] = m.lastProcessed[src]
	m.vstore.Publish(b, m.lastProcessed.Clone(), m.clk.Now())
	m.pruneDoneLocked()
	m.pruneEpochsLocked()
	m.qmu.Unlock()
	// A resync publish folds a fresh source snapshot the commit log never
	// saw: replay cannot cross it. Mark it (mu is held for the whole
	// resync) so recovery stops here and the log schedules a checkpoint.
	m.logBarrierLocked("resync:" + src)
	// The rebuilt state was never expressed as deltas either: subscribers
	// cannot apply their way across it, so force them to snapshot-resync.
	m.subs.barrier("resync:" + src)
	m.feedBarrierLocked("resync:"+src, m.vstore.Current())
	m.stats.resyncs.Add(1)
	m.obs.reg.Emit(metrics.Event{Type: metrics.EventResync, Subject: src, Dur: time.Since(start)})
	seq := uint64(0)
	if v := m.vstore.Current(); v != nil {
		seq = v.Seq()
	}
	m.obs.reg.Emit(metrics.Event{
		Type: metrics.EventPublish, Subject: fmt.Sprintf("v%d", seq),
		Fields: map[string]int64{"version": int64(seq)},
	})
	return nil
}
