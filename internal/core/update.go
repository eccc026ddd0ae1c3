package core

import (
	"fmt"
	"time"

	"squirrel/internal/algebra"
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
		m.stats.txnRetries.Add(1)
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
	m.stats.updateTxns.Add(1)
	m.stats.atomsPropagated.Add(int64(atoms))
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
	m.queue = trimAnnouncements(kept, oldLen)
	for src, t := range newRef {
		if t > m.lastProcessed[src] {
			m.lastProcessed[src] = t
		}
	}
	published = m.vstore.Publish(b, reflect, committed)
	m.pruneDoneLocked()
	m.pruneEpochsLocked()
	m.obs.queueLen.Set(int64(len(m.queue)))
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

// runKernel dispatches phase (c) to the configured executor: the serial
// reference kernel (PropagateWorkers == 0, the differential oracle's
// ground truth) or the staged kernel (parallel.go). Both return the
// store-schema-projected ΔR applied to each stored node — the per-export
// delta stream the subscription registry ships (subscribe.go). Retaining
// the deltas by reference is safe: a node's pending accumulator receives
// no further Smash once the node is processed (its children all precede
// it in the topological order).
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
	if m.workers >= 1 {
		return m.kernelStaged(b, combined, temps, m.workers)
	}
	return m.kernel(b, combined, temps)
}

// kernel runs the IUP Kernel Algorithm (§6.4) over the combined leaf delta
// with the given temporaries standing in for virtual/hybrid node states.
// All materialized reads and writes go through the builder, whose reads
// see the transaction's own writes first — the sibling-state discipline
// the in-place store used to provide. This serial form is the reference
// implementation: the staged kernel must produce byte-identical stores
// (randplan_test.go's differential oracle enforces it).
func (m *Mediator) kernel(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error) {
	var tempRels map[string]*relation.Relation
	if temps != nil {
		tempRels = temps.temps
	}
	resolve := resolverFor(b, tempRels)
	pending := make(map[string]*delta.RelDelta)
	captured := make(map[string]*delta.RelDelta)
	v := m.curVDP() // stable: the kernel runs under txnMu
	for _, name := range v.Order() {
		n := v.Node(name)
		var dn *delta.RelDelta
		if n.IsLeaf() {
			dn = combined.Get(name)
		} else {
			dn = pending[name]
		}
		if dn == nil || dn.IsEmpty() {
			continue
		}
		// Fire the rules of the in-edges: propagate Δ(name) to parents —
		// but only along paths that reach materialized data; virtual-only
		// subgraphs are the VAP's job.
		for _, parent := range v.Parents(name) {
			if !v.MaterializationRelevant(parent) {
				continue
			}
			contrib, err := v.Propagate(parent, name, dn, resolve)
			if err != nil {
				return nil, fmt.Errorf("core: rule (%s, %s): %w", parent, name, err)
			}
			if acc, ok := pending[parent]; ok {
				acc.Smash(contrib)
			} else {
				pending[parent] = contrib
			}
		}
		if n.IsLeaf() {
			continue // leaves hold no mediator state
		}
		// Process the node: apply Δ to its temporary (if any) and to the
		// materialized portion of its store. A temporary holds
		// π_B σ_cond of the node, so the delta passes through the same
		// selection before the projection (both commute with apply, §6.2).
		if temp, ok := tempRels[name]; ok {
			toApply := dn
			if cond := temps.conds[name]; !algebra.IsTrue(cond) {
				filtered, err := dn.Select(algebra.Compile(cond, n.Schema))
				if err != nil {
					return nil, err
				}
				toApply = filtered
			}
			narrowed, err := projectRelDelta(toApply, n.Schema, temp.Schema())
			if err != nil {
				return nil, err
			}
			if err := narrowed.ApplyTo(temp, true); err != nil {
				return nil, fmt.Errorf("core: applying Δ%s to temporary: %w", name, err)
			}
		}
		if st := b.Mutable(name); st != nil {
			narrowed, err := projectRelDelta(dn, n.Schema, st.Schema())
			if err != nil {
				return nil, err
			}
			if err := narrowed.ApplyTo(st, true); err != nil {
				return nil, fmt.Errorf("core: applying Δ%s to store: %w", name, err)
			}
			captured[name] = narrowed
		}
	}
	return captured, nil
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
