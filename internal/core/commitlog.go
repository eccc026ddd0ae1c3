package core

import (
	"errors"
	"fmt"
	"sort"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/source"
)

// This file is the mediator's durability seam. A CommitLog (implemented
// by internal/wal; core deliberately does not import it) receives every
// committed update transaction BEFORE its store version is published —
// Theorem 7.1's per-transaction commit points become durable recovery
// points. Recovery runs the records back through ReplayCommitRecord, the
// same queue → coalesce → kernel → publish path that produced them, so a
// replayed store is bit-for-bit the store the original commits built.

// CommitRecord is one committed update transaction, exactly as the commit
// path decided it: the store version it published, the commit stamp, the
// published Reflect vector, the per-source announcement high-water marks
// the transaction folded in (NewRef), and the combined per-leaf delta
// that entered the kernel.
type CommitRecord struct {
	// Version is the store version the transaction published (base + 1).
	Version uint64
	// Stamp is the commit's logical time. Informational: replay restamps
	// with the recovering mediator's clock (query answers depend on the
	// Reflect vector, never on the stamp).
	Stamp clock.Time
	// Reflect is the ref′ vector published with the version.
	Reflect clock.Vector
	// NewRef holds, per source that announced in this transaction, the
	// latest announcement time folded in — what replay must feed back so
	// ref′ advances identically.
	NewRef clock.Vector
	// Announcements counts the queue entries the transaction coalesced
	// (observability only; replay synthesizes one announcement per source).
	Announcements int
	// Delta is the combined per-leaf net delta that entered the kernel.
	Delta *delta.Delta
}

// CommitLog is the durability hook the mediator calls while holding its
// store mutex. LogCommit must make rec durable (subject to the log's sync
// policy) before returning nil; a non-nil error ABORTS the transaction —
// nothing is published, the queue keeps its announcements, and a later
// flush retries. LogBarrier marks a publish that did NOT flow through the
// update-transaction path (resync, re-annotation): the log cannot replay
// past it, so recovery stops there and the implementation should schedule
// a fresh checkpoint. Sync flushes any buffered records to stable storage
// (group commit: a batched runtime calls it once per drained batch).
type CommitLog interface {
	LogCommit(rec *CommitRecord) error
	LogBarrier(version uint64, reason string) error
	Sync() error
}

// ErrReplayGap reports a commit record that does not extend the
// mediator's current store version — the log skipped a publish (a lost
// barrier, a checkpoint/log mismatch). Replay must stop; the recovered
// prefix is still consistent.
var ErrReplayGap = errors.New("core: commit record does not extend current version")

// SetCommitLog attaches (or, with nil, detaches) the durability hook.
// Attach after Initialize/Restore/replay and before sources start
// announcing: recovery itself must not append to the log it is reading.
func (m *Mediator) SetCommitLog(l CommitLog) {
	m.mu.Lock()
	m.commitLog = l
	m.mu.Unlock()
}

// syncCommitLog flushes buffered log records, if a log is attached.
func (m *Mediator) syncCommitLog() error {
	m.mu.Lock()
	l := m.commitLog
	m.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Sync()
}

// logBarrierLocked (mu held) records that the version just published did
// not come from an update transaction. Best-effort: the publish already
// happened and cannot be unwound, and replay's version-continuity check
// (ErrReplayGap) stops recovery at this point even if the barrier record
// itself never reaches the disk.
func (m *Mediator) logBarrierLocked(reason string) {
	if m.commitLog == nil {
		return
	}
	seq := uint64(0)
	if v := m.vstore.Current(); v != nil {
		seq = v.Seq()
	}
	if err := m.commitLog.LogBarrier(seq, reason); err != nil {
		m.obs.walBarrierErrs.Inc()
	}
}

// ReplayCommitRecord re-applies one logged commit through the normal
// update-transaction path. The record must extend the current store
// version exactly (ErrReplayGap otherwise): callers replay a log tail in
// order, starting from the checkpoint the tail was logged against, and
// stop at the first gap. Call after Restore/Initialize and before any
// source announces or a CommitLog is attached.
//
// Replay synthesizes one announcement per source named in NewRef — the
// source's slice of the combined delta, stamped at its NewRef time — and
// drains them in a single transaction. Because announcement coalescing is
// additive and the kernel is deterministic, the published version is
// byte-identical to the original commit's; the version number and Reflect
// vector are asserted to match the record.
func (m *Mediator) ReplayCommitRecord(rec *CommitRecord) error {
	if rec == nil {
		return fmt.Errorf("core: nil commit record")
	}
	cur := m.vstore.Current()
	if cur == nil {
		return fmt.Errorf("core: replay on uninitialized mediator")
	}
	if rec.Version != cur.Seq()+1 {
		return fmt.Errorf("%w: record v%d after store v%d", ErrReplayGap, rec.Version, cur.Seq())
	}
	if len(rec.NewRef) == 0 {
		return fmt.Errorf("core: commit record v%d names no announcing source", rec.Version)
	}
	// Slice the combined delta back into per-source announcements.
	plan := m.curVDP()
	bySource := make(map[string]*delta.Delta)
	if rec.Delta != nil {
		for _, relName := range rec.Delta.Relations() {
			n := plan.Node(relName)
			if n == nil || !n.IsLeaf() {
				return fmt.Errorf("core: commit record v%d has delta for unknown leaf %q", rec.Version, relName)
			}
			d := bySource[n.Source]
			if d == nil {
				d = delta.New()
				bySource[n.Source] = d
			}
			d.Rel(relName).Smash(rec.Delta.Get(relName))
		}
	}
	sources := make([]string, 0, len(rec.NewRef))
	for src := range rec.NewRef {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		d := bySource[src]
		if d == nil {
			d = delta.New() // announced, but every delta cancelled or irrelevant
		}
		delete(bySource, src)
		// Seq 0: replay bypasses gap detection — continuity was already
		// proven when the record was logged.
		m.OnAnnouncement(source.Announcement{Source: src, Time: rec.NewRef[src], Delta: d})
	}
	if len(bySource) > 0 {
		return fmt.Errorf("core: commit record v%d has deltas from sources outside NewRef", rec.Version)
	}
	ran, err := m.RunUpdateTransaction()
	if err != nil {
		return fmt.Errorf("core: replaying record v%d: %w", rec.Version, err)
	}
	if !ran {
		return fmt.Errorf("core: replaying record v%d produced no transaction (announcements dropped)", rec.Version)
	}
	got := m.vstore.Current()
	if got.Seq() != rec.Version {
		return fmt.Errorf("core: replay published v%d, record says v%d", got.Seq(), rec.Version)
	}
	if ref := got.Reflect(); !ref.LessEq(rec.Reflect) || !rec.Reflect.LessEq(ref) {
		return fmt.Errorf("core: replay of v%d diverged: reflect %v, record says %v", rec.Version, ref, rec.Reflect)
	}
	return nil
}
