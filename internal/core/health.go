package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
)

// This file is the mediator's per-source fault boundary. Every poll of an
// autonomous source goes through pollSource: a quarantine gate (sources
// with a detected announcement gap are not polled until resynced), a
// circuit breaker, a retry loop with capped jittered backoff, and a
// per-attempt deadline. Successful raw poll answers are cached so that a
// ServeStale query can still be answered — with an explicit, enforced
// staleness bound — when a source is down (§7's f̄ as a runtime contract
// instead of a silently violated assumption).

// ResilienceConfig tunes the mediator's fault boundary. The zero value is
// exactly the pre-resilience behavior: one attempt, no timeout, no
// breaker — required by the sequential transaction model's tests, which
// expect a single poll failure to surface immediately.
type ResilienceConfig struct {
	// PollTimeout is the per-attempt deadline for one source round trip
	// (0 = none). The attempt's goroutine is abandoned on expiry — the
	// transport must eventually fail it (wire connections do); an
	// in-process source that truly hangs forever leaks that goroutine.
	PollTimeout time.Duration
	// Retry bounds repeated attempts per poll.
	Retry resilience.RetryPolicy
	// Breaker configures the per-source circuit breaker.
	Breaker resilience.BreakerPolicy
	// Seed makes the retry jitter deterministic: the i-th source in name
	// order draws from Seed+i.
	Seed int64
}

// sourceHealth is the per-source fault-boundary state.
type sourceHealth struct {
	breaker *resilience.Breaker // nil when disabled
	backoff *resilience.Backoff
}

// initHealth builds the per-source health state; called from New.
func (m *Mediator) initHealth() {
	m.health = make(map[string]*sourceHealth, len(m.sources))
	for i, src := range m.sourceNames() {
		m.health[src] = &sourceHealth{
			breaker: resilience.NewBreaker(m.resil.Breaker),
			backoff: resilience.NewBackoff(m.resil.Retry, m.resil.Seed+int64(i)),
		}
	}
	if m.sleep == nil {
		m.sleep = time.Sleep
	}
}

// pollSource runs one logical poll of src through the fault boundary:
// quarantine gate, breaker, per-attempt deadline, retry with backoff.
// allowQuarantined bypasses the gate for the resync/initialize polls that
// re-establish consistency.
func (m *Mediator) pollSource(src string, specs []source.QuerySpec, allowQuarantined bool) ([]*relation.Relation, clock.Time, error) {
	conn, ok := m.sources[src]
	if !ok {
		return nil, 0, fmt.Errorf("core: no connection for source %q", src)
	}
	if !allowQuarantined {
		if reason := m.quarantineReason(src); reason != "" {
			return nil, 0, fmt.Errorf("core: source %q quarantined (%s); resync pending", src, reason)
		}
	}
	h := m.health[src]
	attempts := m.resil.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		// Capture the breaker state around every interaction so
		// transitions (open → half-open happens inside Allow) become
		// events.
		before := h.breaker.State().String()
		if !h.breaker.Allow() {
			m.obs.fastFails[src].Inc()
			m.obs.observeBreaker(src, before, h.breaker.State().String(), h.breaker.Trips())
			if lastErr != nil {
				return nil, 0, fmt.Errorf("core: source %q circuit open after %w", src, lastErr)
			}
			return nil, 0, fmt.Errorf("core: source %q circuit open", src)
		}
		m.obs.observeBreaker(src, before, h.breaker.State().String(), h.breaker.Trips())
		start := time.Now()
		answers, asOf, base, err := m.callSource(conn, specs)
		m.obs.observePollAttempt(src, start, err)
		if err == nil {
			before = h.breaker.State().String()
			h.breaker.Success()
			m.obs.observeBreaker(src, before, h.breaker.State().String(), h.breaker.Trips())
			m.noteContact(src, asOf)
			if base != nil {
				// A federated tier's answer carries its ref′ in base
				// coordinates: extend the translation ring so the poll
				// instant this query will report maps exactly (feed.go).
				m.noteBaseReflect(src, asOf, base)
			}
			return answers, asOf, nil
		}
		lastErr = err
		before = h.breaker.State().String()
		h.breaker.Failure()
		m.obs.observeBreaker(src, before, h.breaker.State().String(), h.breaker.Trips())
		if attempt < attempts {
			m.obs.pollRetries.Inc()
			m.sleep(h.backoff.Delay(attempt))
		}
	}
	return nil, 0, lastErr
}

// callSource performs one attempt, bounded by the configured per-attempt
// deadline. Connections to federated tiers (TieredConn) additionally
// return the answer's ref′ in base-source coordinates; plain sources
// return a nil vector.
func (m *Mediator) callSource(conn SourceConn, specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	call := func() ([]*relation.Relation, clock.Time, clock.Vector, error) {
		if tc, ok := conn.(TieredConn); ok {
			return tc.QueryMultiBase(specs)
		}
		a, t, err := conn.QueryMulti(specs)
		return a, t, nil, err
	}
	to := m.resil.PollTimeout
	if to <= 0 {
		return call()
	}
	type reply struct {
		answers []*relation.Relation
		asOf    clock.Time
		base    clock.Vector
		err     error
	}
	ch := make(chan reply, 1)
	go func() {
		a, t, base, err := call()
		ch <- reply{a, t, base, err}
	}()
	timer := time.NewTimer(to)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.answers, r.asOf, r.base, r.err
	case <-timer.C:
		return nil, 0, nil, fmt.Errorf("core: poll timed out after %s", to)
	}
}

// noteContact records the latest instant src's state is known at: the
// serialization instant of a successful poll or the time of a delivered
// announcement. The ServeStale bound is measured from this.
func (m *Mediator) noteContact(src string, t clock.Time) {
	m.qmu.Lock()
	if t > m.lastContact[src] {
		m.lastContact[src] = t
	}
	m.qmu.Unlock()
}

// quarantineReason returns why src is quarantined ("" when it is not).
func (m *Mediator) quarantineReason(src string) string {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return m.quarantined[src]
}

// QuarantineSource marks an announcing source's announcement stream as
// untrusted — used on a detected gap, and proactively on a transport
// reconnect (the outage may have dropped announcements silently). New
// announcements are penned rather than queued, polls of the source fail,
// and ResyncSource re-establishes consistency. No-op for virtual
// contributors (nothing materialized depends on their announcements) and
// for already-quarantined sources.
func (m *Mediator) QuarantineSource(src, reason string) {
	if m.Contributor(src) == VirtualContributor && !m.announcingAnywhere(src) {
		return
	}
	if _, ok := m.sources[src]; !ok {
		return
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	m.quarantineLocked(src, reason)
}

// quarantineLocked requires qmu. The event log's mutex is a strict
// leaf, so emitting under qmu is safe. It raises the announce signal: the
// runtime's next flush resyncs the source even if nothing else announces.
func (m *Mediator) quarantineLocked(src, reason string) {
	if m.quarantined[src] != "" {
		return
	}
	m.quarantined[src] = reason
	m.obs.reg.Emit(metrics.Event{Type: metrics.EventQuarantine, Subject: src, Err: reason})
	m.signalAnnounce()
}

// sourceNames lists the connected sources, sorted: every loop whose
// order reaches a clock or a seed runs in this order, so twin mediators
// behave alike.
func (m *Mediator) sourceNames() []string {
	names := make([]string, 0, len(m.sources))
	for src := range m.sources {
		names = append(names, src)
	}
	sort.Strings(names)
	return names
}

// QuarantinedSources lists the currently quarantined sources, sorted.
func (m *Mediator) QuarantinedSources() []string {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	out := make([]string, 0, len(m.quarantined))
	for src := range m.quarantined {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// penAppendLocked holds back an announcement that arrived while its
// source is quarantined. The pen is maintained as a single seq-contiguous
// run: an inner gap restarts the run (its prefix is unusable anyway — the
// snapshot resync covers it). Requires qmu.
func (m *Mediator) penAppendLocked(a source.Announcement) {
	pen := m.gapPen[a.Source]
	first := a.FirstSeq
	if first == 0 {
		first = a.Seq
	}
	if len(pen) > 0 {
		tail := pen[len(pen)-1]
		switch {
		case a.Seq != 0 && tail.Seq != 0 && a.Seq <= tail.Seq:
			return // duplicate / replay
		case a.Seq == 0 || tail.Seq == 0 || first == tail.Seq+1:
			m.gapPen[a.Source] = append(pen, a)
		default:
			m.gapPen[a.Source] = []source.Announcement{a} // inner gap: restart
		}
		return
	}
	m.gapPen[a.Source] = []source.Announcement{a}
}

// resolveSourceLocked re-establishes src's announcement stream after a
// full snapshot poll serialized at asOf: queued and penned announcements
// the snapshot covers (time ≤ asOf) are dropped, the penned tail beyond
// it is promoted to the queue, sequence tracking restarts from whatever
// survives, and the quarantine is lifted. It refuses (returns false) when
// the pen starts after asOf — then the commits lost in the gap might also
// be after asOf, so the snapshot cannot vouch for them; poll again later.
// Requires qmu.
func (m *Mediator) resolveSourceLocked(src string, asOf clock.Time) bool {
	pen := m.gapPen[src]
	if len(pen) > 0 && pen[0].Time > asOf {
		return false
	}
	oldLen := len(m.queue)
	kept := m.queue[:0]
	var lastSeq uint64
	for _, a := range m.queue {
		if a.Source == src && a.Time <= asOf {
			continue
		}
		if a.Source == src {
			lastSeq = a.Seq
		}
		kept = append(kept, a)
	}
	q := trimAnnouncements(kept, oldLen)
	for _, a := range pen {
		if a.Time <= asOf {
			continue
		}
		q = append(q, a)
		lastSeq = a.Seq
	}
	m.setQueueLocked(q)
	m.lastSeq[src] = lastSeq
	delete(m.gapPen, src)
	delete(m.quarantined, src)
	return true
}

// --- raw poll cache (for ServeStale degradation) ---

// cachedPoll is a successful poll's raw (pre-compensation) answers, kept
// so a later query can be served when the source is down.
type cachedPoll struct {
	answers []*relation.Relation
	asOf    clock.Time
}

// pollKey identifies a poll shape: the source plus every spec's relation,
// projection, and selection.
func pollKey(src string, specs []source.QuerySpec) string {
	var b strings.Builder
	b.WriteString(src)
	for _, s := range specs {
		b.WriteByte(0x1f)
		b.WriteString(s.Rel)
		b.WriteByte('|')
		b.WriteString(strings.Join(s.Attrs, ","))
		b.WriteByte('|')
		if s.Cond != nil {
			b.WriteString(s.Cond.String())
		}
	}
	return b.String()
}

// cachePoll stores clones of a successful poll's raw answers. cmu is a
// strict leaf lock: never held while acquiring any other.
func (m *Mediator) cachePoll(key string, answers []*relation.Relation, asOf clock.Time) {
	clones := make([]*relation.Relation, len(answers))
	for i, r := range answers {
		clones[i] = r.Clone()
	}
	m.cmu.Lock()
	if m.pollCache == nil {
		m.pollCache = make(map[string]*cachedPoll)
	}
	m.pollCache[key] = &cachedPoll{answers: clones, asOf: asOf}
	m.cmu.Unlock()
}

// cachedAnswers returns clones of the cached raw answers for key (nil if
// none); clones, because compensation mutates its input.
func (m *Mediator) cachedAnswers(key string) ([]*relation.Relation, clock.Time, bool) {
	m.cmu.Lock()
	c := m.pollCache[key]
	m.cmu.Unlock()
	if c == nil {
		return nil, 0, false
	}
	out := make([]*relation.Relation, len(c.answers))
	for i, r := range c.answers {
		out[i] = r.Clone()
	}
	return out, c.asOf, true
}

// SourceHealth is the externally visible per-source fault-boundary state.
type SourceHealth struct {
	// Contributor is the §4 classification.
	Contributor string
	// Breaker is the circuit state ("closed", "open", "half-open";
	// "closed" when disabled). Trips counts breaker openings.
	Breaker string
	Trips   uint64
	// Quarantined is the quarantine reason ("" when healthy).
	Quarantined string
	// LastContact is the latest instant the source's state is known at
	// (successful poll or announcement).
	LastContact clock.Time
	// LastSeq is the last accepted announcement sequence number (0 before
	// any, or right after a resync restarts tracking).
	LastSeq uint64
	// PennedAnnouncements counts announcements held back by quarantine.
	PennedAnnouncements int
	// ResyncOvertaken counts consecutive resync attempts that failed
	// because penned announcements outran the snapshot poll (see
	// ErrResyncOvertaken); reset by a successful resync. ResyncStuck is
	// set once the count reaches resyncStuckThreshold — the source keeps
	// committing faster than it can be snapshotted, and retrying on the
	// same cadence will never converge without operator action (pause
	// the source's writes, or poll it with a longer window).
	ResyncOvertaken int
	ResyncStuck     bool
}

// resyncStuckThreshold is how many consecutive overtaken resyncs flag a
// source as stuck.
const resyncStuckThreshold = 3

// sourceHealthStats assembles the per-source health map for Stats.
// Breaker state is read before taking qmu (qmu stays a leaf lock).
func (m *Mediator) sourceHealthStats() map[string]SourceHealth {
	out := make(map[string]SourceHealth, len(m.sources))
	contribs := m.epoch().contributors
	for src := range m.sources {
		h := m.health[src]
		out[src] = SourceHealth{
			Contributor: contribs[src].String(),
			Breaker:     h.breaker.State().String(),
			Trips:       h.breaker.Trips(),
		}
	}
	m.qmu.Lock()
	for src := range out {
		sh := out[src]
		sh.Quarantined = m.quarantined[src]
		sh.LastContact = m.lastContact[src]
		sh.LastSeq = m.lastSeq[src]
		sh.PennedAnnouncements = len(m.gapPen[src])
		sh.ResyncOvertaken = m.resyncOvertaken[src]
		sh.ResyncStuck = sh.ResyncOvertaken >= resyncStuckThreshold
		out[src] = sh
	}
	m.qmu.Unlock()
	return out
}
