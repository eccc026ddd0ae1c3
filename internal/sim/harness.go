package sim

import (
	"fmt"
	"maps"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/federate"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// Delays parameterizes the integration environment with the delay
// vocabulary of Theorem 7.2 (all in virtual ticks).
type Delays struct {
	// Ann is the per-source announcement delay (ann_delay_i): the lag
	// between a commit and its publication. Sources also answer mediator
	// queries from their published snapshot, preserving the in-order
	// message assumption of §4.
	Ann map[string]clock.Time
	// Comm is the per-source one-way communication delay (comm_delay_i).
	Comm map[string]clock.Time
	// QProcSource is the per-source query processing delay (q_proc_delay_i).
	QProcSource map[string]clock.Time
	// UHold is the mediator's queue-flush period (u_hold_delay_med).
	UHold clock.Time
	// UProc is the update-transaction processing time excluding source
	// queries (u_proc_delay_med).
	UProc clock.Time
	// QProcMed is the mediator-side query processing time (q_proc_delay_med).
	QProcMed clock.Time
}

// Bounds computes the freshness vector f̄ of Theorem 7.2 for the given
// environment. For an announcing (materialized/hybrid-contributor) source
// DB_i, data can age by the announcement and transfer lag, wait out a full
// hold period, and survive through two transaction processing windows
// (the one that misses it plus the one that incorporates it, including
// any polling round trips); a query then adds its own processing time:
//
//	f_i = ann_i + comm_i + 2·(u_hold + u_proc + Σ_k(2·comm_k + q_proc_k))
//	      + q_proc_med + Σ_k(2·comm_k + q_proc_k)
//
// For a virtual contributor DB_j the answer is at most one query round
// trip old: f_j = Σ_k(q_proc_k + 2·comm_k) + q_proc_med.
func (d Delays) Bounds(med *core.Mediator, sources []string) clock.Vector {
	pollRTT := clock.Time(0)
	for _, k := range sources {
		pollRTT += 2*d.Comm[k] + d.QProcSource[k]
	}
	out := make(clock.Vector, len(sources))
	for _, s := range sources {
		if med.Contributor(s) == core.VirtualContributor {
			out[s] = pollRTT + d.QProcMed
			continue
		}
		out[s] = d.Ann[s] + d.Comm[s] + 2*(d.UHold+d.UProc+pollRTT) + d.QProcMed + pollRTT
	}
	return out
}

// SourceFault is the controllable failure state of one simulated link
// (scenario steps flip these; the zero value is a healthy link).
type SourceFault struct {
	// Down fails every poll after the request's one-way trip, and drops
	// announcements (the crashed source's feed is gone with it).
	Down bool
	// HangTicks, if > 0, models a hung source: a poll burns the hang
	// window in virtual time before failing (a timeout, not a fast error).
	HangTicks clock.Time
	// DropNextAnns silently discards the next n announcements (a lossy
	// feed: the mediator sees a sequence gap when delivery resumes).
	DropNextAnns int
	// DroppedAnns counts announcements discarded by Down or DropNextAnns.
	DroppedAnns int
}

// LinkDelays is the delay vocabulary of one federation hop — the top
// mediator's view of a middle tier, mirroring a source's {ann, comm,
// q_proc} triple: announcement lag from tier commit to publication,
// one-way communication, and the exporter's answer processing time.
type LinkDelays struct {
	Ann, Comm, QProc clock.Time
}

// TierSpec declares one middle-tier mediator: its name (the source name
// the top mediator binds), its plan over leaf sources, and the link
// delays of its hop to the top.
type TierSpec struct {
	Name string
	Plan *vdp.VDP
	Link LinkDelays
}

// Tier is one constructed middle tier: its mediator and the
// export-as-source adapter the top mediator reads it through.
type Tier struct {
	TierSpec
	Med *core.Mediator
	Exp *federate.Exporter
}

// Harness is the simulated integration environment (DESIGN.md §11) on
// ONE virtual clock: leaf source databases, zero or more middle-tier
// mediators each served upward by a federate.Exporter, and a top
// mediator. A top-plan source named like a tier reads that tier through
// a link with its own delay triple; any other source is a leaf database.
// With no tiers the top mediator reads only leaves: the flat environment
// of Theorem 7.2.
//
// Faults are addressed by name and cover both hops: a leaf source name
// fails polls of that leaf and drops its announcements; a tier name
// fails the top's polls of that tier and drops the tier's announcements
// (the link is down — the tier itself keeps materializing, like a
// crashed leaf's database keeps committing).
type Harness struct {
	Sim   *Sim
	DBs   map[string]*source.DB
	Tiers []*Tier
	Top   *core.Mediator
	// Rec is the trace in base-source coordinates that the §3/§7
	// checkers read (Environment). A top mediator over leaves records
	// itself; a federation's top answers in tier coordinates, so Query
	// records its answers translated (BaseReflect).
	Rec   *trace.Recorder
	Plan  *vdp.VDP // the top mediator's plan
	Delay Delays   // leaf-side delays, shared by every mediator

	// OnTxnError, if non-nil, receives errors from the periodic update
	// loop instead of panicking — a scenario deliberately crashing a
	// source expects its polls to fail.
	OnTxnError func(error)

	busy   bool // a mediator transaction is in progress (serial execution)
	faults map[string]*SourceFault
}

// Fault returns the mutable fault state for a leaf source or tier name
// (created on demand).
func (h *Harness) Fault(name string) *SourceFault {
	f, ok := h.faults[name]
	if !ok {
		f = &SourceFault{}
		h.faults[name] = f
	}
	return f
}

// request models a poll's outbound trip to name (comm ticks), then
// name's fault state: a hung link burns its hang window and fails, a
// down one fails at once. kind names the far end in the error.
func (h *Harness) request(kind, name string, comm clock.Time) error {
	h.Sim.AdvanceBy(comm)
	f := h.faults[name]
	switch {
	case f == nil:
	case f.HangTicks > 0:
		h.Sim.AdvanceBy(f.HangTicks)
		return fmt.Errorf("sim: %s %s hung (gave up after %d ticks)", kind, name, f.HangTicks)
	case f.Down:
		return fmt.Errorf("sim: %s %s is down", kind, name)
	}
	return nil
}

// announce delivers announcement a from name to every consumer after
// delay, unless name's fault state drops it (Down, or a pending
// DropNextAnns). The check runs once per announcement, so a dropped
// announcement is lost for every consumer.
func (h *Harness) announce(name string, delay clock.Time, a source.Announcement, to []*core.Mediator) {
	if f := h.faults[name]; f != nil && (f.Down || f.DropNextAnns > 0) {
		if !f.Down {
			f.DropNextAnns--
		}
		f.DroppedAnns++
		return
	}
	for _, med := range to {
		h.Sim.After(delay, func() { med.OnAnnouncement(a) })
	}
}

// leafConn is the path between one consuming mediator (a tier, or the
// top when it reads a leaf directly) and one leaf source: requests and
// answers each take Comm ticks, the source takes QProcSource ticks to
// answer, and a source announcing to its consumer answers from its
// published snapshot (commits older than Ann), preserving FIFO ordering
// between announcements and answers.
type leafConn struct {
	h   *Harness
	med **core.Mediator // the consumer's slot, filled once it is built
	db  *source.DB
	src string
}

func (c leafConn) Name() string { return c.src }

func (c leafConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	d := c.h.Delay
	if err := c.h.request("source", c.src, d.Comm[c.src]); err != nil {
		return nil, 0, err
	}
	var answers []*relation.Relation
	var asOf clock.Time
	var err error
	if med := *c.med; med != nil && med.Contributor(c.src) != core.VirtualContributor {
		// Published snapshot: the latest commit whose announcement has
		// been sent by the time the request arrives.
		cutoff := c.db.LastCommitAtOrBefore(c.h.Sim.Time() - d.Ann[c.src])
		answers, asOf, err = c.db.QueryMultiAt(specs, cutoff)
	} else {
		answers, asOf, err = c.db.QueryMulti(specs)
	}
	c.h.Sim.AdvanceBy(d.QProcSource[c.src] + d.Comm[c.src]) // processing + answer travels
	return answers, asOf, err
}

// tierConn is the top mediator's path to one middle tier: link delays
// plus the tier's fault state, answering from the federate.Exporter.
// It implements core.TieredConn so the top mediator's answers carry
// base-source coordinates.
type tierConn struct {
	h    *Harness
	tier *Tier
}

func (c tierConn) Name() string { return c.tier.Name }

func (c tierConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	out, asOf, _, err := c.QueryMultiBase(specs)
	return out, asOf, err
}

func (c tierConn) QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	d := c.tier.Link
	if err := c.h.request("tier", c.tier.Name, d.Comm); err != nil {
		return nil, 0, nil, err
	}
	answers, asOf, base, err := c.tier.Exp.QueryMultiBase(specs)
	c.h.Sim.AdvanceBy(d.QProc + d.Comm) // processing + answer travels
	return answers, asOf, base, err
}

// tier returns the tier named name, or nil when name is a leaf source.
func (h *Harness) tier(name string) *Tier {
	for _, t := range h.Tiers {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// conns binds every source of plan for the mediator that will live in
// slot: a tier through its link, anything else as a leaf.
func (h *Harness) conns(plan *vdp.VDP, slot **core.Mediator) map[string]core.SourceConn {
	out := map[string]core.SourceConn{}
	for _, src := range plan.Sources() {
		if t := h.tier(src); t != nil {
			out[src] = tierConn{h: h, tier: t}
		} else {
			out[src] = leafConn{h: h, med: slot, db: h.DBs[src], src: src}
		}
	}
	return out
}

// NewHarness builds the simulated environment: one source DB per leaf
// source (shared by every mediator that reads it) loaded with the given
// initial relations, one mediator plus export-as-source adapter per
// TierSpec, and a top mediator with plan top. Announcements flow
// leaf→consumer with the per-source delays and tier→top with each
// tier's link delays; a periodic update loop with period UHold drains
// every tier and then the top (FlushAll). With no tiers this is a single
// mediator over its sources.
func NewHarness(top *vdp.VDP, initial map[string]map[string]*relation.Relation, d Delays, tiers ...TierSpec) (*Harness, error) {
	s := New()
	h := &Harness{Sim: s, DBs: map[string]*source.DB{}, Rec: trace.NewRecorder(), Plan: top, Delay: d,
		faults: map[string]*SourceFault{}}
	plans := make([]*vdp.VDP, 0, len(tiers)+1)
	for _, ts := range tiers {
		h.Tiers = append(h.Tiers, &Tier{TierSpec: ts})
		plans = append(plans, ts.Plan)
	}
	plans = append(plans, top)

	// Leaf databases, each relation loaded once.
	for _, p := range plans {
		for _, src := range p.Sources() {
			if _, ok := h.DBs[src]; ok || h.tier(src) != nil {
				continue
			}
			db := source.NewDB(src, s)
			for _, rel := range initialOrEmpty(p, src, initial) {
				if err := db.LoadRelation(rel); err != nil {
					return nil, err
				}
			}
			h.DBs[src] = db
		}
	}

	// Middle-tier mediators over their leaves, then their exporters.
	for _, t := range h.Tiers {
		med, err := core.New(core.Config{VDP: t.Plan, Sources: h.conns(t.Plan, &t.Med), Clock: s})
		if err != nil {
			return nil, fmt.Errorf("tier %s: %w", t.Name, err)
		}
		t.Med = med
	}
	for _, t := range h.Tiers {
		if err := t.Med.Initialize(); err != nil {
			return nil, fmt.Errorf("tier %s: %w", t.Name, err)
		}
		exp, err := federate.New(t.Med, t.Name)
		if err != nil {
			return nil, fmt.Errorf("tier %s: %w", t.Name, err)
		}
		t.Exp = exp
	}

	cfg := core.Config{VDP: top, Sources: h.conns(top, &h.Top), Clock: s}
	if len(h.Tiers) == 0 {
		cfg.Recorder = h.Rec
	}
	med, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	h.Top = med
	if err := med.Initialize(); err != nil {
		return nil, err
	}

	// Announcement feeds: each leaf to every mediator reading it, each
	// tier to the top.
	consumers, toTop := map[string][]*core.Mediator{}, []*core.Mediator{med}
	for _, t := range h.Tiers {
		for _, src := range t.Plan.Sources() {
			consumers[src] = append(consumers[src], t.Med)
		}
		t.Exp.Subscribe(func(a source.Announcement) {
			h.announce(t.Name, t.Link.Ann+t.Link.Comm, a, toTop)
		})
	}
	for _, src := range top.Sources() {
		if h.tier(src) == nil {
			consumers[src] = append(consumers[src], med)
		}
	}
	for src, db := range h.DBs {
		to := consumers[src]
		db.Subscribe(func(a source.Announcement) { h.announce(src, d.Ann[src]+d.Comm[src], a, to) })
	}

	// Periodic update transactions (the u_hold policy).
	if d.UHold > 0 {
		s.Every(d.UHold, d.UHold, func() {
			h.withTransaction(func() {
				if err := h.FlushAll(nil); err != nil {
					if h.OnTxnError != nil {
						h.OnTxnError(err)
						return
					}
					panic(fmt.Sprintf("sim: update transaction: %v", err))
				}
			})
		})
	}
	return h, nil
}

func initialOrEmpty(plan *vdp.VDP, src string, initial map[string]map[string]*relation.Relation) []*relation.Relation {
	var out []*relation.Relation
	for _, leaf := range plan.LeavesOf(src) {
		if m := initial[src]; m != nil {
			if r, ok := m[leaf]; ok {
				out = append(out, r)
				continue
			}
		}
		out = append(out, relation.NewSet(plan.Node(leaf).Schema))
	}
	return out
}

// FlushAll runs one update transaction on every tier (in declaration
// order) and then on the top mediator, modeling UProc before each, so a
// leaf commit whose announcements have arrived crosses both hops in one
// call. report, if non-nil, sees each outcome (tier is "" for the top);
// a failing tier does not stop the rest. It returns the first error.
// Callers outside the periodic loop must wrap it in Exclusive.
func (h *Harness) FlushAll(report func(tier string, med *core.Mediator, ran bool, err error)) error {
	var first error
	run := func(tier string, med *core.Mediator) {
		h.Sim.AdvanceBy(h.Delay.UProc)
		ran, err := med.RunUpdateTransaction()
		if report != nil {
			report(tier, med, ran, err)
		}
		if err != nil && first == nil {
			if tier != "" {
				err = fmt.Errorf("tier %s: %w", tier, err)
			}
			first = err
		}
	}
	for _, t := range h.Tiers {
		run(t.Name, t.Med)
	}
	run("", h.Top)
	return first
}

// withTransaction runs fn unless a mediator transaction is already in
// progress (transactions are serial; an event landing mid-transaction is
// deferred by a tick).
func (h *Harness) withTransaction(fn func()) {
	if h.busy {
		h.Sim.After(1, func() { h.withTransaction(fn) })
		return
	}
	h.busy = true
	fn()
	h.busy = false
}

// Exclusive runs fn as a serialized mediator transaction at the current
// virtual time: periodic update transactions falling due while fn
// advances the clock are deferred (by a tick at a time) until fn
// returns, exactly as withTransaction serializes scheduled work. The
// scenario runner drives queries, manual flushes, and re-annotations
// through this.
func (h *Harness) Exclusive(fn func()) { h.withTransaction(fn) }

// ScheduleCommit schedules a leaf-source transaction at virtual time t.
// The build callback runs at commit time (so it can consult current
// state); returning nil skips the commit.
func (h *Harness) ScheduleCommit(t clock.Time, src string, build func() *delta.Delta) {
	h.Sim.At(t, func() {
		d := build()
		if d == nil || d.IsEmpty() {
			return
		}
		if _, err := h.DBs[src].Apply(d); err != nil {
			panic(fmt.Sprintf("sim: commit to %s: %v", src, err))
		}
	})
}

// Query runs one query transaction on the top mediator at the current
// virtual time, after the mediator-side processing delay, and leaves
// the answer in Rec in base-source coordinates. Callers outside a
// scheduled event wrap it in Exclusive.
func (h *Harness) Query(export string, attrs []string, cond algebra.Expr, opts core.QueryOptions) (*core.QueryResult, error) {
	h.Sim.AdvanceBy(h.Delay.QProcMed)
	res, err := h.Top.QueryOpts(export, attrs, cond, opts)
	if err == nil && len(h.Tiers) > 0 {
		h.Rec.RecordQuery(trace.QueryTxn{
			Committed: res.Committed, Reflect: res.BaseReflect,
			Export: export, Attrs: attrs, Cond: cond, Answer: res.Answer,
		})
	}
	return res, err
}

// ScheduleQuery schedules a top-mediator query at virtual time t; the
// answer lands in the trace.
func (h *Harness) ScheduleQuery(t clock.Time, export string, attrs []string) {
	h.Sim.At(t, func() {
		h.withTransaction(func() {
			if _, err := h.Query(export, attrs, nil, core.QueryOptions{}); err != nil {
				panic(fmt.Sprintf("sim: query: %v", err))
			}
		})
	})
}

// Bounds computes the environment's Theorem 7.2 bound in base-source
// coordinates: the top mediator's bound over its sources (each tier
// hop's LinkDelays standing in for the source delay triple) composed
// with every tier's own bound over its leaves
// (resilience.ComposeFreshness). With no tiers it is Delays.Bounds of
// the top mediator.
func (h *Harness) Bounds() clock.Vector {
	top := h.Delay
	top.Ann, top.Comm, top.QProcSource = map[string]clock.Time{}, map[string]clock.Time{}, map[string]clock.Time{}
	maps.Copy(top.Ann, h.Delay.Ann)
	maps.Copy(top.Comm, h.Delay.Comm)
	maps.Copy(top.QProcSource, h.Delay.QProcSource)
	lower := map[string]clock.Vector{}
	for _, t := range h.Tiers {
		top.Ann[t.Name], top.Comm[t.Name], top.QProcSource[t.Name] = t.Link.Ann, t.Link.Comm, t.Link.QProc
		lower[t.Name] = h.Delay.Bounds(t.Med, t.Plan.Sources())
	}
	return resilience.ComposeFreshness(top.Bounds(h.Top, h.Plan.Sources()), lower)
}

// Environment exposes the run for the correctness checkers in
// base-source coordinates: flat is the single-mediator plan over the
// leaf sources whose views the answers must equal — the top plan
// itself with no tiers, the composed plan (tier views and top views)
// for a federation.
func (h *Harness) Environment(flat *vdp.VDP) checker.Environment {
	return checker.Environment{VDP: flat, Sources: h.DBs, Trace: h.Rec}
}
