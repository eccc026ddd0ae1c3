package core

import (
	"fmt"
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

// This file implements the Incremental Update Processor (§6.4): the
// three-phase general algorithm — (a) determine needed temporaries by
// simulating the kernel (vdp.KernelRequirements), (b) populate them with
// the VAP (to the pre-transaction state ref′(t_{i-1}), via Eager
// Compensation), (c) run the Kernel Algorithm, processing nodes in
// topological order with the sibling-state discipline that avoids the
// Example 6.1 anomaly. The kernel writes into a store.Builder — touched
// nodes are cloned copy-on-write, untouched relations stay shared — and
// the commit publishes the builder as the next version in one atomic
// swap, so concurrent readers never observe a partially propagated state.
//
// Locking: the transaction holds txnMu end to end (one update transaction
// at a time) but holds the store mutex mu only to prepare (queue snapshot
// + Begin) and to commit. The VAP polls and the kernel run outside mu, so
// a slow or hung source stalls only this transaction — queries were
// always lock-free, and now resyncs and sync'd readers stay unblocked
// too. The price is a race with ResyncSource, the one other post-init
// publisher: if it publishes while this transaction is in flight, the
// builder extends a superseded version and the commit-time base check
// discards it and retries the whole transaction against the new state.

// maxUpdateRetries bounds how often one RunUpdateTransaction call may be
// overtaken by concurrent publishes before giving up. Each retry means a
// ResyncSource committed during our poll window; back-to-back resyncs are
// pathological, so a small bound suffices.
const maxUpdateRetries = 8

// RunUpdateTransaction drains the update queue (the snapshot present when
// the transaction starts) and propagates the combined delta through the
// VDP. It reports whether a transaction ran (false when the queue was
// empty).
func (m *Mediator) RunUpdateTransaction() (bool, error) {
	m.txnMu.Lock()
	defer m.txnMu.Unlock()
	for attempt := 0; ; attempt++ {
		ran, retry, err := m.runUpdateOnce(attempt)
		if err != nil || !retry {
			return ran, err
		}
		if attempt == maxUpdateRetries {
			return false, fmt.Errorf("core: update transaction overtaken by %d concurrent publishes; giving up", attempt+1)
		}
		m.obs.txnRetries.Inc()
	}
}

// runUpdateOnce is one attempt: prepare under mu, poll and propagate
// outside it, commit under mu. retry reports that a concurrent publish
// superseded the builder's base and the caller should start over.
// attempt is the retry ordinal, recorded on the commit event.
func (m *Mediator) runUpdateOnce(attempt int) (ran, retry bool, err error) {
	start := time.Now()
	// The epoch is stable for the whole transaction: swaps happen only
	// under txnMu, which this transaction holds.
	ep := m.epoch()
	v := ep.v
	// Prepare: the queue prefix this transaction covers (empty_queue
	// time) and the builder's base version must name the same state, so
	// both are captured under mu — the lock every publisher holds.
	m.mu.Lock()
	if m.vstore.Current() == nil {
		m.mu.Unlock()
		return false, false, fmt.Errorf("core: mediator not initialized")
	}
	m.qmu.Lock()
	snapshot := append([]source.Announcement(nil), m.queue...)
	m.qmu.Unlock()
	b := m.vstore.Begin()
	m.mu.Unlock()
	if len(snapshot) == 0 {
		return false, false, nil
	}
	m.obs.txnPrepare.ObserveSince(start)

	combined, newRef := m.coalesceAnnouncements(snapshot)
	var temps *tempResult
	var captured map[string]*delta.RelDelta
	polled := 0
	if !combined.IsEmpty() {
		// Phase (a): which node states will the rules read, and — for a
		// sibling read only through probes — at which keys?
		reqs, err := v.KernelRequirements(combined)
		if err != nil {
			return false, false, err
		}
		var needed []vdp.Requirement
		for _, r := range reqs {
			if r.NeedsVirtual(v) {
				needed = append(needed, r)
			}
		}
		// Phase (b): populate them (the VAP compensates polls back to the
		// pre-transaction state ref′(t_{i-1}) — the builder's base view).
		// Always fail-fast: propagating deltas onto stale helper states
		// would corrupt the store; the queue survives for a later retry.
		if len(needed) > 0 {
			pollStart := time.Now()
			plan, err := v.PlanTemporaries(needed)
			if err != nil {
				return false, false, err
			}
			res, err := m.buildTemporaries(ep, plan, b, FailFast)
			if err != nil {
				return false, false, err
			}
			temps = res
			polled = res.polls
			m.obs.txnPolls.ObserveSince(pollStart)
		}
		// Phase (c): the Kernel Algorithm, writing copy-on-write into b.
		propStart := time.Now()
		captured, err = m.runKernel(b, combined, temps)
		if err != nil {
			return false, false, err
		}
		m.obs.txnPropagate.ObserveSince(propStart)
	}

	commitStart := time.Now()
	published, retry, err := m.commitUpdate(b, snapshot, combined, newRef, captured)
	if err != nil || retry {
		return false, retry, err
	}
	// Everything below reports a commit that is already visible, so none of
	// it runs inside the store mutex: the histograms, the two events (their
	// Fields maps and the formatted subject) and the trace record. txnMu is
	// still held, which keeps their order across update transactions; per
	// version the update-txn event still precedes its publish event.
	atoms := combined.Card()
	m.obs.atoms.Add(int64(atoms))
	m.obs.txnCommit.ObserveSince(commitStart)
	m.obs.txnTotal.ObserveSince(start)
	m.obs.txnsTotal.Inc()
	seq := int64(published.Seq())
	m.obs.reg.Emit(metrics.Event{
		Type: metrics.EventUpdateTxn, Dur: time.Since(start),
		Fields: map[string]int64{
			"atoms": int64(atoms), "polls": int64(polled),
			"announcements": int64(len(snapshot)), "attempt": int64(attempt),
			"version": seq,
		},
	})
	m.obs.reg.Emit(metrics.Event{
		Type: metrics.EventPublish, Subject: fmt.Sprintf("v%d", seq),
		Fields: map[string]int64{"version": seq},
	})
	m.recorder.RecordUpdate(trace.UpdateTxn{
		Committed: published.Stamp(),
		Reflect:   published.Reflect(),
		Atoms:     atoms,
		Polled:    polled,
	})
	return true, false, nil
}

// commitUpdate is the commit critical section of an update transaction:
// under mu it removes the processed queue prefix, advances ref′, logs the
// commit record and publishes the builder as the next version, returning
// it. retry reports that another writer published while the transaction
// was polling: the builder extends a superseded version — applying it
// would resurrect pre-resync state — so it is discarded. While the base
// is unchanged the snapshot is still exactly the queue's prefix: only
// publishers remove queue entries, and they all hold mu.
func (m *Mediator) commitUpdate(b *store.Builder, snapshot []source.Announcement, combined *delta.Delta, newRef clock.Vector, captured map[string]*delta.RelDelta) (published *store.Version, retry bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vstore.Current() != b.Base() {
		return nil, true, nil
	}
	// Durability point: the commit record must be on stable storage before
	// the version is published — a crash after the publish then recovers
	// this transaction from the log. Computed under mu but OUTSIDE qmu
	// (never hold the announcement lock across an fsync): every
	// lastProcessed writer holds mu, so the reflect vector computed here
	// is exactly what the qmu section below will install. A log failure
	// aborts the transaction — the queue still holds the announcements,
	// so a later flush retries once the log heals.
	reflect := m.lastProcessed.Clone()
	for src, t := range newRef {
		if t > reflect[src] {
			reflect[src] = t
		}
	}
	committed := m.clk.Now()
	if m.commitLog != nil {
		rec := &CommitRecord{
			Version:       b.Base().Seq() + 1,
			Stamp:         committed,
			Reflect:       reflect,
			NewRef:        newRef,
			Announcements: len(snapshot),
			Delta:         combined,
		}
		if err := m.commitLog.LogCommit(rec); err != nil {
			return nil, false, fmt.Errorf("core: commit log: %w", err)
		}
	}
	// Under qmu, so a query pinning a version always sees a queue/done
	// state consistent with it. If some older version is pinned by an
	// in-flight polling query, the processed announcements move to the
	// done log (Eager Compensation against that version still needs their
	// deltas); otherwise they are dropped.
	m.qmu.Lock()
	if len(m.pins) > 0 {
		m.done = append(m.done, snapshot...)
	}
	oldLen := len(m.queue)
	kept := append(m.queue[:0], m.queue[len(snapshot):]...)
	m.setQueueLocked(trimAnnouncements(kept, oldLen))
	for src, t := range newRef {
		if t > m.lastProcessed[src] {
			m.lastProcessed[src] = t
		}
	}
	published = m.vstore.Publish(b, reflect, committed)
	m.pruneDoneLocked()
	m.pruneEpochsLocked()
	m.qmu.Unlock()
	// Fan the committed version out to subscribers (subscribe.go): one
	// frame per eligible export, built from the kernel's captured ΔR.
	// Still under mu — publishes and subscription state stay ordered —
	// but never blocking: a slow subscriber coalesces, it cannot stall
	// the commit.
	m.subs.publish(published, captured)
	// And to the commit feed (feed.go): the export-as-source adapter
	// re-announces this commit as the tier's own, keyed by the version's
	// sequence number, before the next publish can happen.
	m.feedCommitLocked(published, captured)
	return published, false, nil
}

// coalesceAnnouncements combines a queue snapshot into one net delta per
// VDP leaf, tracking the latest announcement time per source (the new
// ref′ components). Multi-source announcements for the same relation
// smash additively, so duplicate or self-cancelling updates annihilate
// here — one combined RelDelta per leaf enters the kernel, and a fully
// cancelled queue still commits (advancing ref′) while propagating
// nothing.
func (m *Mediator) coalesceAnnouncements(snapshot []source.Announcement) (*delta.Delta, clock.Vector) {
	v := m.curVDP()
	combined := delta.New()
	newRef := make(clock.Vector)
	for _, a := range snapshot {
		for _, relName := range a.Delta.Relations() {
			leaf := v.Node(relName)
			if leaf == nil || !leaf.IsLeaf() || leaf.Source != a.Source {
				continue // irrelevant to this mediator
			}
			combined.Rel(relName).Smash(a.Delta.Get(relName))
		}
		if a.Time > newRef[a.Source] {
			newRef[a.Source] = a.Time
		}
	}
	return combined.Compact(), newRef
}

// runKernel runs phase (c), the Kernel Algorithm (§6.4), on the
// mediator's kernel executor. It returns the store-schema-projected ΔR
// applied to each stored node — the per-export delta stream the
// subscription registry ships (subscribe.go). Retaining the deltas by
// reference is safe: a node's pending accumulator receives no further
// Smash once the node is processed (its children all precede it in the
// topological order).
func (m *Mediator) runKernel(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error) {
	// Sibling rows the rules read, by access path: the kernel runs under
	// txnMu, so the plan's cumulative counts move only on its behalf here.
	v := m.curVDP()
	probed0, scanned0 := v.JoinRowCounts()
	defer func() {
		probed, scanned := v.JoinRowCounts()
		m.obs.probeRows.Add(probed - probed0)
		m.obs.scanRows.Add(scanned - scanned0)
	}()
	return m.kernel(b, combined, temps)
}

// projectRelDelta narrows a full-width node delta onto the attributes of a
// narrower target (a temporary or a hybrid store projection).
func projectRelDelta(d *delta.RelDelta, full *relation.Schema, target *relation.Schema) (*delta.RelDelta, error) {
	if full.Arity() == target.Arity() {
		return d, nil
	}
	positions, err := full.Positions(target.AttrNames())
	if err != nil {
		return nil, err
	}
	return d.Project(d.Rel(), positions), nil
}
