package scenario

import (
	"fmt"
	"sort"
	"strings"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/sim"
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

// runner executes one spec.
type runner struct {
	spec *Spec
	h    *sim.Harness
	flat *vdp.VDP // the plan over the leaf sources the checkers evaluate
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
	tiers, top, flat, err := spec.BuildPlans()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	initial, err := spec.SeedRelations(flat)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	h, err := sim.NewHarness(top, initial, sim.Delays{
		Ann:         spec.Delays.Ann,
		Comm:        spec.Delays.Comm,
		QProcSource: spec.Delays.QProc,
		UHold:       spec.Delays.UHold,
		UProc:       spec.Delays.UProc,
		QProcMed:    spec.Delays.QProcMed,
	}, tiers...)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	h.Sim.Horizon = spec.Horizon
	r := &runner{spec: spec, h: h, flat: flat}
	h.OnTxnError = func(err error) { r.linef("update-loop error: %v", err) }

	r.out.WriteString("scenario: " + spec.Name + "\n")
	if spec.Description != "" {
		r.out.WriteString("description: " + spec.Description + "\n")
	}
	reads := "sources"
	for _, t := range h.Tiers {
		fmt.Fprintf(&r.out, "tier %s: sources=[%s] exports=[%s]\n",
			t.Name, strings.Join(t.Plan.Sources(), " "), strings.Join(t.Plan.Exports(), " "))
		reads = "mediators"
	}
	fmt.Fprintf(&r.out, "plan: %s=[%s] exports=[%s]\n",
		reads, strings.Join(h.Plan.Sources(), " "), strings.Join(h.Plan.Exports(), " "))
	r.linef("init version=%d", h.Top.StoreVersion())

	for i := range spec.Steps {
		r.step(&spec.Steps[i])
		if r.fail != nil {
			break
		}
	}

	if r.fail == nil {
		if n := r.h.Sim.Dropped(); n > 0 {
			// A truncated timeline must fail loudly: events that silently
			// vanished past the horizon would make the run prove nothing.
			r.failf("%d timeline event(s) dropped past horizon %d — raise the horizon or shorten the timeline", n, spec.Horizon)
		}
	}
	_, q := r.h.Rec.Len()
	r.linef("end updates=%d queries=%d dropped_events=%d", r.h.Top.Stats().UpdateTxns, q, r.h.Sim.Dropped())
	if r.fail != nil {
		r.out.WriteString("result: FAIL: " + r.fail.Error() + "\n")
	} else {
		r.out.WriteString("result: PASS\n")
	}
	return &Result{Spec: spec, Transcript: []byte(r.out.String()), Err: r.fail}, nil
}

// linef writes one transcript line stamped with the current virtual time.
func (r *runner) linef(format string, args ...any) {
	fmt.Fprintf(&r.out, "[%8d] ", int64(r.h.Sim.Time()))
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
		r.h.Sim.AdvanceBy(st.Advance)
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
		f := r.h.Fault(st.Source)
		f.Down = true
		r.linef("crash %s", st.Source)
	case "restore":
		f := r.h.Fault(st.Source)
		f.Down = false
		f.HangTicks = 0
		r.linef("restore %s", st.Source)
	case "hang":
		r.h.Fault(st.Hang.Source).HangTicks = st.Hang.Ticks
		r.linef("hang %s ticks=%d", st.Hang.Source, int64(st.Hang.Ticks))
	case "drop_announcements":
		r.h.Fault(st.Drop.Source).DropNextAnns += st.Drop.Count
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

// resync re-derives a stream from a snapshot poll. A source of the top
// plan (a leaf, or in a federation a tier name) is resynced by the top
// mediator. A leaf the top reads through tiers is resynced by every tier
// consuming it, which publishes a barrier upward and quarantines the
// tier at the top — the two-hop heal then needs a second resync of the
// tier itself.
func (r *runner) resync(name string) {
	if !planHasSource(r.h.Plan, name) {
		for _, t := range r.h.Tiers {
			if !planHasSource(t.Plan, name) {
				continue
			}
			var err error
			med := t.Med
			r.h.Exclusive(func() { err = med.ResyncSource(name) })
			if err != nil {
				r.linef("resync %s/%s error: %v", t.Name, name, err)
			} else {
				r.linef("resync %s/%s ok version=%d", t.Name, name, med.StoreVersion())
			}
		}
		return
	}
	var err error
	r.h.Exclusive(func() { err = r.h.Top.ResyncSource(name) })
	if err != nil {
		r.linef("resync %s error: %v", name, err)
	} else {
		r.linef("resync %s ok version=%d", name, r.h.Top.StoreVersion())
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
	t, err := r.h.DBs[c.Source].Apply(d)
	if err != nil {
		r.linef("commit %s/%s error: %v", c.Source, c.Relation, err)
		return
	}
	r.linef("commit %s/%s +%d/-%d t=%d", c.Source, c.Relation, len(c.Insert), len(c.Delete), int64(t))
}

func (r *runner) burst(bu *BurstStep) {
	rs := r.spec.relSpec(bu.Source, bu.Relation)
	start := r.h.Sim.Time()
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
		r.h.ScheduleCommit(at, bu.Source, build)
	}
	r.linef("burst %s/%s count=%d every=%d until=%d",
		bu.Source, bu.Relation, bu.Count, int64(bu.Every), int64(start+bu.Every*clock.Time(bu.Count)))
}

// flush runs one explicit update transaction on every mediator. A
// federation drains bottom-up: every tier first (in declaration order),
// then the top, so a leaf commit whose announcements have arrived
// crosses both hops.
func (r *runner) flush() {
	r.h.Exclusive(func() {
		r.h.FlushAll(func(tier string, med *core.Mediator, ran bool, err error) {
			step := "flush"
			if tier != "" {
				step += " " + tier
			}
			if err != nil {
				r.linef("%s error: %v", step, err)
				return
			}
			r.linef("%s ran=%v version=%d", step, ran, med.StoreVersion())
		})
	})
}

func (r *runner) query(q *QueryStep) {
	opts := core.QueryOptions{}
	if q.Stale {
		opts.Degrade = core.ServeStale
		opts.MaxStaleness = q.MaxStaleness
	}
	var res *core.QueryResult
	var err error
	r.h.Exclusive(func() { res, err = r.h.Query(q.Export, q.Attrs, q.Where, opts) })

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
	line := fmt.Sprintf("query %s rows=%d version=%d reflect=%s", label, res.Answer.Len(), res.Version, vecString(res.Reflect))
	if len(r.h.Tiers) > 0 {
		// reflect is the tier-coordinate ref(t), base its translation
		// (DESIGN.md §11).
		line += " base=" + vecString(res.BaseReflect)
	}
	if res.Degraded {
		line += " degraded staleness=" + vecString(res.Staleness)
	}
	r.linef("%s", line)
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
	r.h.Exclusive(func() { flips, err = r.h.Top.Reannotate(m) })
	if err != nil {
		r.linef("reannotate %s error: %v", strings.Join(names, ","), err)
		return
	}
	parts := make([]string, len(flips))
	for i, f := range flips {
		parts[i] = f.String()
	}
	r.linef("reannotate %s flips=[%s] version=%d",
		strings.Join(names, ","), strings.Join(parts, " "), r.h.Top.StoreVersion())
}

func (r *runner) subscribe(s *SubscribeStep) {
	var sub *core.Subscription
	var err error
	r.h.Exclusive(func() {
		sub, err = r.h.Top.Subscribe(s.Export, core.SubscribeOptions{
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
		r.h.Exclusive(func() { f, ok, err = ss.sub.TryRecv() })
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
		r.h.Exclusive(func() { want = r.h.Top.StoreSnapshot(ss.export) })
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
	env := r.h.Environment(r.flat)
	if a.Consistency {
		if err := env.CheckConsistency(); err != nil {
			r.failf("assert consistency: %v", err)
			return
		}
		checked = append(checked, "consistency")
	}
	if a.Theorem72 {
		bounds := r.h.Bounds()
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
		got := r.h.Top.QuarantinedSources()
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
			snap := r.h.Top.StoreSnapshot(nodeName)
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
		st := r.h.Top.Stats()
		for _, sa := range a.Stats {
			v := statFields[sa.Name](st)
			if v < sa.Min || (sa.Max >= 0 && v > sa.Max) {
				r.failf("assert stats: %s=%d outside [%d, %s]", sa.Name, v, sa.Min, maxString(sa.Max))
				return
			}
			checked = append(checked, fmt.Sprintf("%s=%d", sa.Name, v))
		}
	}
	if len(a.Events) > 0 {
		log := r.h.Top.Metrics().Events()
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
			got := r.h.Fault(src).DroppedAnns
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
