package scenario

import (
	"fmt"
	"sort"
	"strings"

	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/sim"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// Result is one executed scenario: the full transcript (always complete,
// byte-for-byte deterministic for a given spec) and the failure, if any.
type Result struct {
	Spec       *Spec
	Transcript []byte
	// Err is the first assertion failure (or truncation failure). Steps
	// that merely produce errors — a query against a crashed source, a
	// failed flush — are recorded in the transcript and only fail the
	// scenario when an expect/assert says otherwise.
	Err error
}

// Passed reports whether the scenario ran to completion with every
// assertion satisfied.
func (r *Result) Passed() bool { return r.Err == nil }

// runner executes one spec. Exactly one of h (flat scenario) and th
// (tiered federation scenario) is non-nil.
type runner struct {
	spec *Spec
	h    *sim.Harness
	th   *sim.TieredHarness
	flat *vdp.VDP // tiered only: the composed plan the checkers evaluate
	out  strings.Builder
	fail error
	subs map[string]*scenSub
}

// scenSub is one named push subscription plus the replica its frames are
// applied to. The replica outlives unsubscribe/resubscribe so a later
// subscribe with `from` can resume onto it, mirroring a reconnecting
// client that kept its local copy.
type scenSub struct {
	export  string
	sub     *core.Subscription
	replica *relation.Relation
}

// Run executes the scenario on deterministic virtual time. The returned
// error is reserved for environment construction failures on a spec that
// ParseSpec accepted (it should not happen); scenario failures land in
// Result.Err with the transcript recording what happened.
func Run(spec *Spec) (*Result, error) {
	r := &runner{spec: spec}
	var err error
	if spec.Tiered() {
		err = r.setupTiered()
	} else {
		err = r.setupFlat()
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	r.out.WriteString("scenario: " + spec.Name + "\n")
	if spec.Description != "" {
		r.out.WriteString("description: " + spec.Description + "\n")
	}
	if r.th != nil {
		for _, t := range r.th.Tiers {
			fmt.Fprintf(&r.out, "tier %s: sources=[%s] exports=[%s]\n",
				t.Name, strings.Join(t.Plan.Sources(), " "), strings.Join(t.Plan.Exports(), " "))
		}
		fmt.Fprintf(&r.out, "plan: mediators=[%s] exports=[%s]\n",
			strings.Join(r.th.TierNames(), " "), strings.Join(r.th.Plan.Exports(), " "))
		r.linef("init version=%d", r.th.Top.StoreVersion())
	} else {
		fmt.Fprintf(&r.out, "plan: sources=[%s] exports=[%s]\n",
			strings.Join(r.h.Plan.Sources(), " "), strings.Join(r.h.Plan.Exports(), " "))
		r.linef("init version=%d", r.h.Med.StoreVersion())
	}

	for i := range spec.Steps {
		r.step(&spec.Steps[i])
		if r.fail != nil {
			break
		}
	}

	if r.fail == nil {
		if n := r.simc().Dropped(); n > 0 {
			// A truncated timeline must fail loudly: events that silently
			// vanished past the horizon would make the run prove nothing.
			r.failf("%d timeline event(s) dropped past horizon %d — raise the horizon or shorten the timeline", n, spec.Horizon)
		}
	}
	if r.th != nil {
		_, q := r.th.Rec.Len()
		r.linef("end updates=%d queries=%d dropped_events=%d", r.th.Top.Stats().UpdateTxns, q, r.simc().Dropped())
	} else {
		u, q := r.h.Rec.Len()
		r.linef("end updates=%d queries=%d dropped_events=%d", u, q, r.simc().Dropped())
	}
	if r.fail != nil {
		r.out.WriteString("result: FAIL: " + r.fail.Error() + "\n")
	} else {
		r.out.WriteString("result: PASS\n")
	}
	return &Result{Spec: spec, Transcript: []byte(r.out.String()), Err: r.fail}, nil
}

func (r *runner) setupFlat() error {
	spec := r.spec
	plan, err := spec.BuildPlan()
	if err != nil {
		return err
	}
	initial, err := spec.SeedRelations(plan)
	if err != nil {
		return err
	}
	h, err := sim.NewHarness(plan, initial, r.delays())
	if err != nil {
		return err
	}
	h.Sim.Horizon = spec.Horizon
	h.OnTxnError = func(err error) { r.linef("update-loop error: %v", err) }
	r.h = h
	return nil
}

func (r *runner) setupTiered() error {
	spec := r.spec
	tierPlans, err := spec.BuildTierPlans()
	if err != nil {
		return err
	}
	top, err := spec.BuildTopPlan(tierPlans)
	if err != nil {
		return err
	}
	flat, err := spec.BuildFlatPlan()
	if err != nil {
		return err
	}
	initial, err := spec.SeedRelations(flat)
	if err != nil {
		return err
	}
	tiers := make([]sim.TierSpec, len(spec.Mediators))
	for i, m := range spec.Mediators {
		tiers[i] = sim.TierSpec{Name: m.Name, Plan: tierPlans[m.Name],
			Link: sim.LinkDelays{Ann: m.Link.Ann, Comm: m.Link.Comm, QProc: m.Link.QProc}}
	}
	th, err := sim.NewTieredHarness(tiers, top, initial, r.delays())
	if err != nil {
		return err
	}
	th.Sim.Horizon = spec.Horizon
	th.OnTxnError = func(err error) { r.linef("update-loop error: %v", err) }
	r.th, r.flat = th, flat
	return nil
}

func (r *runner) delays() sim.Delays {
	return sim.Delays{
		Ann:         r.spec.Delays.Ann,
		Comm:        r.spec.Delays.Comm,
		QProcSource: r.spec.Delays.QProc,
		UHold:       r.spec.Delays.UHold,
		UProc:       r.spec.Delays.UProc,
		QProcMed:    r.spec.Delays.QProcMed,
	}
}

// med returns the queried mediator: the top of the federation, or the
// single mediator of a flat scenario.
func (r *runner) med() *core.Mediator {
	if r.th != nil {
		return r.th.Top
	}
	return r.h.Med
}

func (r *runner) simc() *sim.Sim {
	if r.th != nil {
		return r.th.Sim
	}
	return r.h.Sim
}

func (r *runner) exclusive(fn func()) {
	if r.th != nil {
		r.th.Exclusive(fn)
		return
	}
	r.h.Exclusive(fn)
}

func (r *runner) fault(name string) *sim.SourceFault {
	if r.th != nil {
		return r.th.Fault(name)
	}
	return r.h.Fault(name)
}

func (r *runner) db(src string) *source.DB {
	if r.th != nil {
		return r.th.DBs[src]
	}
	return r.h.DBs[src]
}

// linef writes one transcript line stamped with the current virtual time.
func (r *runner) linef(format string, args ...any) {
	fmt.Fprintf(&r.out, "[%8d] ", int64(r.simc().Time()))
	fmt.Fprintf(&r.out, format, args...)
	r.out.WriteByte('\n')
}

// subline writes an indented continuation line (answer rows).
func (r *runner) subline(s string) {
	r.out.WriteString("           " + s + "\n")
}

func (r *runner) failf(format string, args ...any) {
	r.fail = fmt.Errorf(format, args...)
	r.linef("FAIL: %v", r.fail)
}

func (r *runner) step(st *Step) {
	switch st.Kind {
	case "advance":
		r.simc().AdvanceBy(st.Advance)
		r.linef("advance %d", int64(st.Advance))
	case "commit":
		r.commit(st.Commit)
	case "burst":
		r.burst(st.Burst)
	case "flush":
		r.flush()
	case "query":
		r.query(st.Query)
	case "crash":
		f := r.fault(st.Source)
		f.Down = true
		r.linef("crash %s", st.Source)
	case "restore":
		f := r.fault(st.Source)
		f.Down = false
		f.HangTicks = 0
		r.linef("restore %s", st.Source)
	case "hang":
		r.fault(st.Hang.Source).HangTicks = st.Hang.Ticks
		r.linef("hang %s ticks=%d", st.Hang.Source, int64(st.Hang.Ticks))
	case "drop_announcements":
		r.fault(st.Drop.Source).DropNextAnns += st.Drop.Count
		r.linef("drop_announcements %s count=%d", st.Drop.Source, st.Drop.Count)
	case "resync":
		r.resync(st.Source)
	case "reannotate":
		r.reannotate(st.Reannotate)
	case "subscribe":
		r.subscribe(st.Subscribe)
	case "drain":
		r.drain(st.Drain)
	case "unsubscribe":
		r.unsubscribe(st.Sub)
	case "note":
		r.linef("note: %s", st.Note)
	case "assert":
		r.assert(st.Assert)
	default:
		r.failf("internal: unknown step kind %q", st.Kind)
	}
}

// resync re-derives a stream from a snapshot poll. In a tiered scenario
// the target may be a tier name (the top mediator resyncs that tier) or
// a leaf source (every tier consuming it resyncs, which publishes a
// barrier upward and quarantines the tier at the top — the two-hop heal
// then needs a second resync of the tier itself).
func (r *runner) resync(name string) {
	if r.th != nil && !r.spec.hasMediator(name) {
		for _, t := range r.th.Tiers {
			if !planHasSource(t.Plan, name) {
				continue
			}
			var err error
			med := t.Med
			r.exclusive(func() { err = med.ResyncSource(name) })
			if err != nil {
				r.linef("resync %s/%s error: %v", t.Name, name, err)
			} else {
				r.linef("resync %s/%s ok version=%d", t.Name, name, med.StoreVersion())
			}
		}
		return
	}
	var err error
	r.exclusive(func() { err = r.med().ResyncSource(name) })
	if err != nil {
		r.linef("resync %s error: %v", name, err)
	} else {
		r.linef("resync %s ok version=%d", name, r.med().StoreVersion())
	}
}

func planHasSource(p *vdp.VDP, src string) bool {
	for _, s := range p.Sources() {
		if s == src {
			return true
		}
	}
	return false
}

func (r *runner) commit(c *CommitStep) {
	d := delta.New()
	for _, t := range c.Insert {
		d.Insert(c.Relation, t)
	}
	for _, t := range c.Delete {
		d.Delete(c.Relation, t)
	}
	t, err := r.db(c.Source).Apply(d)
	if err != nil {
		r.linef("commit %s/%s error: %v", c.Source, c.Relation, err)
		return
	}
	r.linef("commit %s/%s +%d/-%d t=%d", c.Source, c.Relation, len(c.Insert), len(c.Delete), int64(t))
}

func (r *runner) burst(bu *BurstStep) {
	rs := r.spec.relSpec(bu.Source, bu.Relation)
	start := r.simc().Time()
	for k := 0; k < bu.Count; k++ {
		k := k
		at := start + bu.Every*clock.Time(k+1)
		build := func() *delta.Delta {
			d := delta.New()
			for _, row := range bu.Insert {
				t, err := row.eval(k, rs.Attrs)
				if err != nil {
					panic(fmt.Sprintf("scenario: burst row: %v", err))
				}
				d.Insert(bu.Relation, t)
			}
			for _, row := range bu.Delete {
				t, err := row.eval(k, rs.Attrs)
				if err != nil {
					panic(fmt.Sprintf("scenario: burst row: %v", err))
				}
				d.Delete(bu.Relation, t)
			}
			return d
		}
		if r.th != nil {
			r.th.ScheduleCommit(at, bu.Source, build)
		} else {
			r.h.ScheduleCommit(at, bu.Source, build)
		}
	}
	r.linef("burst %s/%s count=%d every=%d until=%d",
		bu.Source, bu.Relation, bu.Count, int64(bu.Every), int64(start+bu.Every*clock.Time(bu.Count)))
}

// flush runs one explicit update transaction. A federation drains
// bottom-up: every tier first (in declaration order), then the top, so
// a leaf commit whose announcements have arrived crosses both hops.
func (r *runner) flush() {
	if r.th != nil {
		r.exclusive(func() {
			for _, t := range r.th.Tiers {
				r.simc().AdvanceBy(r.spec.Delays.UProc)
				ran, err := t.Med.RunUpdateTransaction()
				if err != nil {
					r.linef("flush %s error: %v", t.Name, err)
					continue
				}
				r.linef("flush %s ran=%v version=%d", t.Name, ran, t.Med.StoreVersion())
			}
			r.simc().AdvanceBy(r.spec.Delays.UProc)
			ran, err := r.th.Top.RunUpdateTransaction()
			if err != nil {
				r.linef("flush error: %v", err)
				return
			}
			r.linef("flush ran=%v version=%d", ran, r.th.Top.StoreVersion())
		})
		return
	}
	var ran bool
	var err error
	r.h.Exclusive(func() {
		r.h.Sim.AdvanceBy(r.spec.Delays.UProc)
		ran, err = r.h.Med.RunUpdateTransaction()
	})
	if err != nil {
		r.linef("flush error: %v", err)
		return
	}
	r.linef("flush ran=%v version=%d", ran, r.h.Med.StoreVersion())
}

func (r *runner) query(q *QueryStep) {
	opts := core.QueryOptions{}
	if q.Stale {
		opts.Degrade = core.ServeStale
		opts.MaxStaleness = q.MaxStaleness
	}
	var res *core.QueryResult
	var err error
	r.exclusive(func() {
		r.simc().AdvanceBy(r.spec.Delays.QProcMed)
		res, err = r.med().QueryOpts(q.Export, q.Attrs, q.Where, opts)
	})

	label := q.Export
	if len(q.Attrs) > 0 {
		label += "[" + strings.Join(q.Attrs, " ") + "]"
	}
	if q.WhereSrc != "" {
		label += " where " + q.WhereSrc
	}
	if err != nil {
		r.linef("query %s error: %v", label, err)
		if q.Expect == nil {
			return
		}
		if q.Expect.ErrContains == "" {
			r.failf("query %s failed unexpectedly: %v", label, err)
		} else if !strings.Contains(err.Error(), q.Expect.ErrContains) {
			r.failf("query %s error %q does not contain %q", label, err, q.Expect.ErrContains)
		}
		return
	}
	extra := ""
	if res.Degraded {
		extra = " degraded staleness=" + vecString(res.Staleness)
	}
	if r.th != nil {
		// Record the answer in base coordinates for the composed
		// consistency/freshness checks, and show both vectors: reflect is
		// the tier-coordinate ref(t), base its translation (DESIGN.md §11).
		r.th.Rec.RecordQuery(trace.QueryTxn{
			Committed: res.Committed, Reflect: res.BaseReflect,
			Export: q.Export, Attrs: q.Attrs, Cond: q.Where,
			Answer: res.Answer,
		})
		r.linef("query %s rows=%d version=%d reflect=%s base=%s%s",
			label, res.Answer.Len(), res.Version, vecString(res.Reflect), vecString(res.BaseReflect), extra)
	} else {
		r.linef("query %s rows=%d version=%d reflect=%s%s",
			label, res.Answer.Len(), res.Version, vecString(res.Reflect), extra)
	}
	for _, rw := range res.Answer.Rows() {
		s := rw.Tuple.String()
		if rw.Count != 1 {
			s += fmt.Sprintf(" x%d", rw.Count)
		}
		r.subline(s)
	}
	r.checkExpect(q, res, label)
}

func (r *runner) checkExpect(q *QueryStep, res *core.QueryResult, label string) {
	x := q.Expect
	if x == nil {
		return
	}
	if x.ErrContains != "" {
		r.failf("query %s expected an error containing %q, got %d rows", label, x.ErrContains, res.Answer.Len())
		return
	}
	if x.Count != nil && res.Answer.Len() != *x.Count {
		r.failf("query %s expected %d rows, got %d", label, *x.Count, res.Answer.Len())
		return
	}
	if x.Degraded != nil && res.Degraded != *x.Degraded {
		r.failf("query %s expected degraded=%v, got %v", label, *x.Degraded, res.Degraded)
		return
	}
	if x.HasRows {
		want := relation.NewBag(res.Answer.Schema())
		for _, t := range x.Rows {
			if len(t) != res.Answer.Schema().Arity() {
				r.failf("query %s expect.rows arity %d does not match answer arity %d",
					label, len(t), res.Answer.Schema().Arity())
				return
			}
			want.Add(t, 1)
		}
		if !res.Answer.Equal(want) {
			r.failf("query %s answer mismatch:\ngot\n%swant\n%s", label, res.Answer, want)
		}
	}
}

func (r *runner) reannotate(anns []AnnSpec) {
	m := map[string]vdp.Annotation{}
	names := make([]string, 0, len(anns))
	for _, a := range anns {
		m[a.Node] = vdp.Ann(a.Materialized, a.Virtual)
		names = append(names, a.Node)
	}
	var flips []core.AnnotationFlip
	var err error
	r.exclusive(func() { flips, err = r.med().Reannotate(m) })
	if err != nil {
		r.linef("reannotate %s error: %v", strings.Join(names, ","), err)
		return
	}
	parts := make([]string, len(flips))
	for i, f := range flips {
		parts[i] = f.String()
	}
	r.linef("reannotate %s flips=[%s] version=%d",
		strings.Join(names, ","), strings.Join(parts, " "), r.med().StoreVersion())
}

func (r *runner) subscribe(s *SubscribeStep) {
	var sub *core.Subscription
	var err error
	r.exclusive(func() {
		sub, err = r.med().Subscribe(s.Export, core.SubscribeOptions{
			FromVersion: s.From, MaxQueue: s.MaxQueue, MaxLag: s.MaxLag,
		})
	})
	if err != nil {
		r.linef("subscribe %s export=%s error: %v", s.Name, s.Export, err)
		return
	}
	if r.subs == nil {
		r.subs = map[string]*scenSub{}
	}
	ss := r.subs[s.Name]
	if ss == nil {
		ss = &scenSub{export: s.Export}
		r.subs[s.Name] = ss
	} else if ss.sub != nil {
		ss.sub.Close()
	}
	if ss.export != s.Export {
		// A name re-bound to a different export cannot resume onto the old
		// replica; start over.
		ss.export, ss.replica = s.Export, nil
	}
	ss.sub = sub
	r.linef("subscribe %s export=%s from=%d", s.Name, s.Export, s.From)
}

func (r *runner) drain(d *DrainStep) {
	ss := r.subs[d.Sub]
	if ss == nil || ss.sub == nil {
		r.failf("drain %s: subscription not active", d.Sub)
		return
	}
	frames, coalesced := 0, 0
	var kinds []string
	for {
		var f core.SubFrame
		var ok bool
		var err error
		r.exclusive(func() { f, ok, err = ss.sub.TryRecv() })
		if err != nil {
			r.linef("drain %s error: %v", d.Sub, err)
			break
		}
		if !ok {
			break
		}
		frames++
		coalesced += f.Coalesced
		kinds = append(kinds, f.Kind.String())
		switch f.Kind {
		case core.SubSnapshot:
			ss.replica = f.Snapshot.Clone()
			r.linef("frame %s snapshot v=%d rows=%d", d.Sub, f.Version, f.Snapshot.Len())
		case core.SubDelta:
			if ss.replica == nil {
				r.failf("drain %s: delta frame before any snapshot", d.Sub)
				return
			}
			if err := f.Delta.ApplyTo(ss.replica, false); err != nil {
				r.failf("drain %s: apply delta v=%d: %v", d.Sub, f.Version, err)
				return
			}
			line := fmt.Sprintf("frame %s delta v=%d first=%d atoms=%d", d.Sub, f.Version, f.First, f.Delta.Len())
			if f.Coalesced > 0 {
				line += fmt.Sprintf(" coalesced=%d", f.Coalesced)
			}
			r.linef("%s", line)
		}
	}
	rows := -1
	if ss.replica != nil {
		rows = ss.replica.Len()
	}
	r.linef("drain %s frames=%d delivered=%d replica_rows=%d", d.Sub, frames, ss.sub.Delivered(), rows)
	if d.Frames != nil && frames != *d.Frames {
		r.failf("drain %s: %d frame(s), want %d", d.Sub, frames, *d.Frames)
		return
	}
	if len(d.Kinds) > 0 && !equalStrings(kinds, d.Kinds) {
		r.failf("drain %s: kinds [%s], want [%s]", d.Sub, strings.Join(kinds, " "), strings.Join(d.Kinds, " "))
		return
	}
	if coalesced < d.MinCoalesced {
		r.failf("drain %s: coalesced %d commit(s), want >= %d", d.Sub, coalesced, d.MinCoalesced)
		return
	}
	if d.MatchStore {
		var want *relation.Relation
		r.exclusive(func() { want = r.med().StoreSnapshot(ss.export) })
		if want == nil || ss.replica == nil || !ss.replica.Equal(want) {
			r.failf("drain %s: replica does not match store snapshot of %s", d.Sub, ss.export)
			return
		}
	}
}

func (r *runner) unsubscribe(name string) {
	ss := r.subs[name]
	if ss == nil || ss.sub == nil {
		r.failf("unsubscribe %s: subscription not active", name)
		return
	}
	ss.sub.Close()
	ss.sub = nil
	r.linef("unsubscribe %s", name)
}

func (r *runner) assert(a *AssertStep) {
	var checked []string
	var env checker.Environment
	if r.th != nil {
		env = r.th.Environment(r.flat)
	} else {
		env = r.h.Environment()
	}
	if a.Consistency {
		if err := env.CheckConsistency(); err != nil {
			r.failf("assert consistency: %v", err)
			return
		}
		checked = append(checked, "consistency")
	}
	if a.Theorem72 {
		bounds := r.theorem72Bounds()
		if _, err := env.CheckFreshness(bounds); err != nil {
			r.failf("assert theorem72 (bounds %s): %v", vecString(bounds), err)
			return
		}
		checked = append(checked, "theorem72="+vecString(bounds))
	}
	if a.Freshness != nil {
		worst, err := env.CheckFreshness(a.Freshness)
		if err != nil {
			r.failf("assert freshness: %v", err)
			return
		}
		checked = append(checked, "freshness worst="+vecString(worst))
	}
	if a.HasQuarantined {
		got := r.med().QuarantinedSources()
		sort.Strings(got)
		want := append([]string(nil), a.Quarantined...)
		sort.Strings(want)
		if !equalStrings(got, want) {
			r.failf("assert quarantined: got [%s], want [%s]",
				strings.Join(got, " "), strings.Join(want, " "))
			return
		}
		checked = append(checked, fmt.Sprintf("quarantined=[%s]", strings.Join(want, " ")))
	}
	if a.Store != nil {
		nodes := make([]string, 0, len(a.Store))
		for n := range a.Store {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, nodeName := range nodes {
			snap := r.med().StoreSnapshot(nodeName)
			if snap == nil {
				r.failf("assert store: node %s has no materialized portion", nodeName)
				return
			}
			if snap.Len() != a.Store[nodeName] {
				r.failf("assert store: node %s has %d rows, want %d", nodeName, snap.Len(), a.Store[nodeName])
				return
			}
			checked = append(checked, fmt.Sprintf("store[%s]=%d", nodeName, a.Store[nodeName]))
		}
	}
	if len(a.Stats) > 0 {
		st := r.med().Stats()
		for _, sa := range a.Stats {
			v := statValue(st, r.med().Metrics(), sa.Name)
			if v < sa.Min || (sa.Max >= 0 && v > sa.Max) {
				r.failf("assert stats: %s=%d outside [%d, %s]", sa.Name, v, sa.Min, maxString(sa.Max))
				return
			}
			checked = append(checked, fmt.Sprintf("%s=%d", sa.Name, v))
		}
	}
	if len(a.Events) > 0 {
		log := r.med().Metrics().Events()
		recent, _ := log.Recent(log.Len())
		for _, ea := range a.Events {
			count := 0
			for _, e := range recent {
				if e.Type == ea.Type && (ea.Subject == "" || e.Subject == ea.Subject) {
					count++
				}
			}
			if count < ea.Min {
				r.failf("assert events: %d %q event(s) (subject %q), want >= %d", count, ea.Type, ea.Subject, ea.Min)
				return
			}
			checked = append(checked, fmt.Sprintf("events[%s]=%d", ea.Type, count))
		}
	}
	if a.DroppedAnns != nil {
		srcs := make([]string, 0, len(a.DroppedAnns))
		for s := range a.DroppedAnns {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			got := r.fault(src).DroppedAnns
			if got != a.DroppedAnns[src] {
				r.failf("assert dropped_announcements: %s dropped %d, want %d", src, got, a.DroppedAnns[src])
				return
			}
			checked = append(checked, fmt.Sprintf("dropped[%s]=%d", src, a.DroppedAnns[src]))
		}
	}
	if len(checked) == 0 {
		r.failf("assert step checks nothing")
		return
	}
	r.linef("assert ok: %s", strings.Join(checked, " "))
}

// theorem72Bounds computes the freshness vector the theorem72 assert
// enforces: the flat Theorem 7.2 bounds, or — for a federation — the
// composed bound in base-source coordinates (ComposedBounds).
func (r *runner) theorem72Bounds() clock.Vector {
	if r.th != nil {
		return r.th.ComposedBounds()
	}
	return r.h.Delay.Bounds(r.h.Med, r.h.Plan.Sources())
}

func statValue(st core.Stats, reg *metrics.Registry, name string) int64 {
	switch name {
	case "kernel_probe_rows":
		return reg.Counter(core.MetricKernelProbeRows).Value()
	case "kernel_scan_rows":
		return reg.Counter(core.MetricKernelScanRows).Value()
	case "update_txns":
		return int64(st.UpdateTxns)
	case "query_txns":
		return int64(st.QueryTxns)
	case "atoms_propagated":
		return int64(st.AtomsPropagated)
	case "source_polls":
		return int64(st.SourcePolls)
	case "tuples_polled":
		return int64(st.TuplesPolled)
	case "temps_built":
		return int64(st.TempsBuilt)
	case "queue_high_water":
		return int64(st.QueueHighWater)
	case "current_version":
		return int64(st.CurrentVersion)
	case "versions_published":
		return int64(st.VersionsPublished)
	case "poll_failures":
		return int64(st.PollFailures)
	case "poll_retries":
		return int64(st.PollRetries)
	case "degraded_queries":
		return int64(st.DegradedQueries)
	case "gaps_detected":
		return int64(st.GapsDetected)
	case "resyncs":
		return int64(st.Resyncs)
	case "annotation_switches":
		return int64(st.AnnotationSwitches)
	case "update_txn_retries":
		return int64(st.UpdateTxnRetries)
	case "active_subscribers":
		return int64(st.ActiveSubscribers)
	case "sub_frames":
		return int64(st.SubFramesDelivered)
	case "sub_coalesces":
		return int64(st.SubCoalesces)
	case "sub_lag_drops":
		return int64(st.SubLagDrops)
	case "sub_resyncs":
		return int64(st.SubSnapshotResyncs)
	}
	return -1
}

func maxString(m int64) string {
	if m < 0 {
		return "inf"
	}
	return fmt.Sprint(m)
}

func equalStrings(a, b []string) bool {
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

// vecString renders a clock vector with sorted keys: {db1:3 db2:7}.
func vecString(v clock.Vector) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, int64(v[k]))
	}
	b.WriteByte('}')
	return b.String()
}
