package core

import (
	"errors"
	"fmt"
	"sync"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/store"
	"squirrel/internal/vdp"
)

// This file implements push-based continuous queries (ROADMAP item 4): a
// subscriber registers for a fully materialized view export and receives
// its incremental delta stream — the per-node ΔR the IUP already computes
// and used to discard. The delivery contract:
//
//   - Every committed store version v publishes exactly one frame per
//     eligible export (empty deltas included), tagged with v's sequence
//     number, commit stamp, and Reflect vector. A subscriber that applies
//     its frames in order reconstructs, after the frame for version v,
//     a relation byte-identical to a pull query pinned at v.
//   - Queues are bounded per subscriber. On overflow the newest frames
//     coalesce via the vectorized delta.Smash, so a slow subscriber costs
//     O(maxQueue + |export|) memory and never stalls the commit path or
//     other subscribers. A coalesced frame covers a contiguous version
//     range (First..Version] and is exactly the smash of its parts.
//   - Theorem 7.2 as a delivery contract: with MaxLag set, a subscriber
//     whose oldest queued frame trails the newest commit by more than
//     MaxLag is dropped to snapshot-resync (the queue is cleared and the
//     next Recv returns a fresh SubSnapshot frame), surfaced in
//     Stats.SubLagDrops and squirrel_sub_lag_drops_total.
//   - Resume: Subscribe with FromVersion > 0 replays delta frames from
//     the registry's per-export ring when it still covers
//     (FromVersion, current]; otherwise the subscriber falls back to a
//     snapshot (counted in SubResyncs). WAL recovery replays committed
//     transactions through the normal commit path, so the rings are
//     rehydrated before the wire listener comes up.
//   - Publishes that bypass the kernel (ResyncSource rebuilding from a
//     snapshot poll, Reannotate relaying out the store) have no sound
//     delta stream: they act as subscription barriers — rings are cleared
//     and every live subscriber is forced to snapshot-resync (or failed,
//     if its export is no longer fully materialized).
//
// Locking: the registry lock reg.mu orders ring appends, membership, and
// frame offers against Subscribe; each subscriber's own mu guards its
// queue. Order: m.mu → reg.mu → sub.mu, all strictly after the locks the
// commit path already holds (reg.mu is only ever taken under mu or from
// subscriber goroutines holding nothing). Frames are shared: ring frames,
// queued frames, and delivered frames alias the same immutable deltas and
// relations — a subscriber coalescing under backpressure clones the tail
// frame's delta before smashing into it (tailOwned), so shared state is
// never mutated.

// ErrSubscriptionClosed is returned by Recv/TryRecv after Close.
var ErrSubscriptionClosed = errors.New("core: subscription closed")

// subRingCap bounds the per-export frame ring used for
// resume-from-version; older frames fall off and resumes beyond the ring
// degrade to a snapshot.
const subRingCap = 64

// SubFrameKind classifies a subscription frame.
type SubFrameKind uint8

const (
	// SubDelta carries the net delta taking the export from version
	// First-1 to version Version (one commit, or a coalesced range).
	SubDelta SubFrameKind = iota
	// SubSnapshot carries the export's full relation at version Version
	// (initial delivery, or a forced resync).
	SubSnapshot
)

// String names the kind.
func (k SubFrameKind) String() string {
	if k == SubSnapshot {
		return "snapshot"
	}
	return "delta"
}

// SubFrame is one unit of subscription delivery. Snapshot and Delta are
// shared with the store and with other subscribers: treat them as
// read-only (clone before mutating).
type SubFrame struct {
	Kind   SubFrameKind
	Export string
	// First and Version bound the committed store versions the frame
	// covers: a delta frame takes the subscriber from version First-1 to
	// Version (First == Version unless coalesced); a snapshot frame IS
	// version Version (First == Version).
	First   uint64
	Version uint64
	// Stamp and Reflect are version Version's commit stamp and Reflect
	// vector — the same consistency metadata a pull query at that version
	// carries.
	Stamp   clock.Time
	Reflect clock.Vector
	// Snapshot is the export's relation (SubSnapshot only).
	Snapshot *relation.Relation
	// Delta is the net change (SubDelta only; may be empty).
	Delta *delta.RelDelta
	// Coalesced counts the extra commits folded into this frame under
	// backpressure (0 = one commit per frame).
	Coalesced int
}

// SubscribeOptions tunes one subscription.
type SubscribeOptions struct {
	// FromVersion resumes delivery after the given committed version: the
	// subscriber has state as of FromVersion and wants the deltas since.
	// 0 (or a version the ring no longer covers) starts with a snapshot.
	FromVersion uint64
	// MaxQueue bounds the undelivered frame queue (default 256). At the
	// bound, new frames coalesce into the tail.
	MaxQueue int
	// MaxLag, when > 0, is the Theorem 7.2 staleness bound on delivery:
	// if the oldest undelivered frame's stamp trails a newly committed
	// frame's stamp by more than MaxLag, the queue is dropped and the
	// subscriber resyncs from a snapshot.
	MaxLag clock.Time
}

// Subscription is one registered consumer of an export's delta stream.
// Recv/TryRecv/Close are safe for concurrent use with the mediator's
// commit path; a Subscription is not meant to be shared by multiple
// consumer goroutines.
type Subscription struct {
	id       uint64
	export   string
	reg      *subRegistry
	maxQueue int
	maxLag   clock.Time

	// signal is a coalescing wakeup (cap 1) poked whenever the queue or
	// terminal state changes; done closes on Close/failure.
	signal chan struct{}
	done   chan struct{}

	mu    sync.Mutex
	queue []SubFrame
	// tailOwned marks the queue's last frame as this subscription's
	// private copy (its delta was cloned for coalescing and may be
	// smashed into); every other frame aliases shared state.
	tailOwned bool
	// needSnapshot forces the next delivery to be a fresh snapshot;
	// while set, offered frames are discarded (the snapshot covers them).
	needSnapshot bool
	// delivered is the last version handed to the consumer (or adopted
	// via FromVersion); frame continuity is checked against it.
	delivered uint64
	closed    bool
	err       error
}

// Export returns the subscribed export name.
func (s *Subscription) Export() string { return s.export }

// Delivered returns the last version delivered to the consumer — the
// FromVersion to resume with after a disconnect.
func (s *Subscription) Delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// Done returns a channel closed when the subscription terminates
// (Close, or a registry-side failure).
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err returns the terminal error (nil while live, ErrSubscriptionClosed
// after Close, or the registry's reason for failing the subscription).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close terminates the subscription and unregisters it. Idempotent.
func (s *Subscription) Close() { s.reg.remove(s, ErrSubscriptionClosed) }

// notifyLocked pokes the consumer; sends coalesce. Caller holds s.mu.
func (s *Subscription) notifyLocked() {
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// failLocked moves the subscription to its terminal state. Caller holds
// s.mu.
func (s *Subscription) failLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	if n := len(s.queue); n > 0 {
		s.reg.m.obs.subQueueDepth.Add(int64(-n))
	}
	s.queue = nil
	s.tailOwned = false
	close(s.done)
}

// offer enqueues a committed frame, applying backpressure policy. It
// never blocks: at the queue bound the frame coalesces into the tail via
// Smash, and past the staleness bound the queue drops to snapshot-resync.
// Called by the registry with reg.mu held.
func (s *Subscription) offer(f SubFrame) {
	m := s.reg.m
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.needSnapshot || f.Version <= s.delivered {
		return
	}
	if s.maxLag > 0 && len(s.queue) > 0 && f.Stamp-s.queue[0].Stamp > s.maxLag {
		// The consumer is lagging beyond the Theorem 7.2 bound: delivering
		// the backlog would violate the freshness contract, so drop to a
		// snapshot at the current (fresh) version instead.
		m.obs.subQueueDepth.Add(int64(-len(s.queue)))
		s.queue = nil
		s.tailOwned = false
		s.needSnapshot = true
		m.obs.subLagDrops.Inc()
		s.notifyLocked()
		return
	}
	if len(s.queue) >= s.maxQueue {
		tail := &s.queue[len(s.queue)-1]
		if !s.tailOwned {
			tail.Delta = tail.Delta.Clone()
			s.tailOwned = true
		}
		tail.Delta.Smash(f.Delta)
		tail.Version = f.Version
		tail.Stamp = f.Stamp
		tail.Reflect = f.Reflect
		tail.Coalesced += 1 + f.Coalesced
		m.obs.subCoalesces.Inc()
	} else {
		s.queue = append(s.queue, f)
		s.tailOwned = false
		m.obs.subQueueDepth.Add(1)
	}
	s.notifyLocked()
}

// resyncLocked forces the next delivery to be a snapshot (a barrier, or
// a frame-continuity gap). Caller holds s.mu.
func (s *Subscription) resyncLocked() {
	if s.closed || s.needSnapshot {
		return
	}
	m := s.reg.m
	if n := len(s.queue); n > 0 {
		m.obs.subQueueDepth.Add(int64(-n))
	}
	s.queue = nil
	s.tailOwned = false
	s.needSnapshot = true
	m.obs.subResyncs.Inc()
	s.notifyLocked()
}

// TryRecv returns the next frame without blocking. ok is false when no
// frame is ready; err is terminal (the subscription is dead).
func (s *Subscription) TryRecv() (f SubFrame, ok bool, err error) {
	m := s.reg.m
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return SubFrame{}, false, s.err
		}
		if s.needSnapshot {
			cur := m.vstore.Current()
			rel := cur.Rel(s.export)
			if rel == nil {
				err := fmt.Errorf("core: export %q is no longer fully materialized", s.export)
				s.failLocked(err)
				s.reg.forget(s.id)
				return SubFrame{}, false, err
			}
			s.needSnapshot = false
			s.delivered = cur.Seq()
			m.obs.subFrames.Inc()
			return SubFrame{
				Kind: SubSnapshot, Export: s.export,
				First: cur.Seq(), Version: cur.Seq(),
				Stamp: cur.Stamp(), Reflect: cur.Reflect(),
				Snapshot: rel,
			}, true, nil
		}
		if len(s.queue) == 0 {
			return SubFrame{}, false, nil
		}
		f := s.queue[0]
		s.queue[0] = SubFrame{}
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			s.queue = nil
			s.tailOwned = false
		}
		m.obs.subQueueDepth.Add(-1)
		if f.First != s.delivered+1 {
			// Continuity gap (a barrier publish slipped between frames):
			// applying f would silently skip versions, so resync instead.
			s.resyncLocked()
			continue
		}
		s.delivered = f.Version
		m.obs.subFrames.Inc()
		return f, true, nil
	}
}

// Recv blocks until the next frame (or the subscription terminates).
func (s *Subscription) Recv() (SubFrame, error) {
	for {
		f, ok, err := s.TryRecv()
		if err != nil {
			return SubFrame{}, err
		}
		if ok {
			return f, nil
		}
		select {
		case <-s.signal:
		case <-s.done:
		}
	}
}

// subRegistry owns the mediator's subscriptions and the per-export frame
// rings that serve resume-from-version.
type subRegistry struct {
	m *Mediator

	mu     sync.Mutex
	nextID uint64
	// subs holds the live subscriptions; the squirrel_subscribers_active
	// gauge moves with its length under mu (Stats.ActiveSubscribers).
	subs map[uint64]*Subscription
	// rings holds, per eligible export, the most recent delta frames in
	// ascending, dense version order.
	rings map[string][]SubFrame
	// eligible is the set of exports a subscriber may register for:
	// fully materialized exports of the current plan epoch. Recomputed on
	// barriers (the only time the plan changes).
	eligible map[string]bool
}

func newSubRegistry(m *Mediator, plan *vdp.VDP) *subRegistry {
	r := &subRegistry{
		m:     m,
		subs:  make(map[uint64]*Subscription),
		rings: make(map[string][]SubFrame),
	}
	r.eligible = eligibleExports(plan)
	return r
}

// eligibleExports lists the exports whose full state lives in the store —
// the only ones whose IUP delta stream reconstructs the export exactly.
func eligibleExports(plan *vdp.VDP) map[string]bool {
	out := make(map[string]bool)
	for _, name := range plan.Exports() {
		if plan.Node(name).FullyMaterialized() {
			out[name] = true
		}
	}
	return out
}

// publish fans a committed version out: one frame per eligible export
// (captured kernel delta, or empty), appended to the resume ring and
// offered to every matching subscriber. Called from the commit path with
// m.mu held, after the version is published; it never blocks on a
// subscriber.
func (r *subRegistry) publish(v *store.Version, captured map[string]*delta.RelDelta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.eligible) == 0 {
		return
	}
	reflect := v.Reflect()
	for export := range r.eligible {
		d := captured[export]
		if d == nil {
			d = delta.NewRel(export)
		}
		f := SubFrame{
			Kind: SubDelta, Export: export,
			First: v.Seq(), Version: v.Seq(),
			Stamp: v.Stamp(), Reflect: reflect,
			Delta: d,
		}
		ring := append(r.rings[export], f)
		if len(ring) > subRingCap {
			copy(ring, ring[len(ring)-subRingCap:])
			ring = ring[:subRingCap]
		}
		r.rings[export] = ring
		for _, s := range r.subs {
			if s.export == export {
				s.offer(f)
			}
		}
	}
}

// barrier invalidates the delta streams after a publish the kernel did
// not produce (resync, re-annotation): rings are cleared, eligibility is
// recomputed against the current plan, subscribers on now-ineligible
// exports fail, and the rest are forced to snapshot-resync. Called with
// m.mu held.
func (r *subRegistry) barrier(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rings = make(map[string][]SubFrame)
	r.eligible = eligibleExports(r.m.curVDP())
	for id, s := range r.subs {
		if !r.eligible[s.export] {
			s.mu.Lock()
			s.failLocked(fmt.Errorf("core: subscription barrier (%s): export %q is no longer fully materialized", reason, s.export))
			s.mu.Unlock()
			delete(r.subs, id)
			r.m.obs.subsActive.Add(-1)
			continue
		}
		s.mu.Lock()
		s.resyncLocked()
		s.mu.Unlock()
	}
}

// remove terminates and unregisters a subscription.
func (r *subRegistry) remove(s *Subscription, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.mu.Lock()
	wasLive := !s.closed
	s.failLocked(err)
	s.mu.Unlock()
	if _, ok := r.subs[s.id]; ok && wasLive {
		delete(r.subs, s.id)
		r.m.obs.subsActive.Add(-1)
	}
}

// forget unregisters a subscription that already failed itself (it holds
// sub.mu, so it cannot call remove). Safe to call with sub.mu held:
// lock order reg.mu → sub.mu is only for offers, and offers skip closed
// subscriptions, so taking reg.mu here cannot deadlock — forget is the
// exception that inverts the order, which is sound because it touches
// only the membership map, never another subscription's lock.
func (r *subRegistry) forget(id uint64) {
	// Deferred to a goroutine to keep the lock order strict: the caller
	// holds sub.mu, and reg.mu must never be acquired under it.
	m := r.m
	go func() {
		r.mu.Lock()
		if _, ok := r.subs[id]; ok {
			delete(r.subs, id)
			m.obs.subsActive.Add(-1)
		}
		r.mu.Unlock()
	}()
}

// Subscribe registers a consumer for an export's delta stream. The
// export must be a fully materialized export of the current plan and the
// mediator must be initialized. With FromVersion > 0 and the resume ring
// still covering (FromVersion, current], delivery starts with the delta
// frames since FromVersion; otherwise (including FromVersion == 0) the
// first frame is a snapshot of the current version.
func (m *Mediator) Subscribe(export string, opts SubscribeOptions) (*Subscription, error) {
	if m.vstore.Current() == nil {
		return nil, fmt.Errorf("core: mediator not initialized")
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 256
	}
	r := m.subs
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.eligible[export] {
		return nil, fmt.Errorf("core: export %q is not a fully materialized export of the current plan", export)
	}
	r.nextID++
	s := &Subscription{
		id: r.nextID, export: export, reg: r,
		maxQueue: maxQueue, maxLag: opts.MaxLag,
		signal: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	resumed := false
	if ring := r.rings[export]; opts.FromVersion > 0 && len(ring) > 0 {
		first, last := ring[0].Version, ring[len(ring)-1].Version
		if opts.FromVersion >= first-1 && opts.FromVersion <= last {
			s.delivered = opts.FromVersion
			for _, f := range ring {
				if f.Version > opts.FromVersion {
					s.queue = append(s.queue, f)
				}
			}
			if n := len(s.queue); n > 0 {
				m.obs.subQueueDepth.Add(int64(n))
				s.notifyLocked()
			}
			resumed = true
		}
	}
	if !resumed {
		s.needSnapshot = true
		s.notifyLocked()
		if opts.FromVersion > 0 {
			// The requested resume point fell off the ring (or never
			// existed): the reconnect degrades to a snapshot.
			m.obs.subResyncs.Inc()
		}
	}
	r.subs[s.id] = s
	m.obs.subsActive.Add(1)
	return s, nil
}
