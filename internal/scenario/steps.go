package scenario

import (
	"fmt"
	"strings"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/relation"
	"squirrel/internal/sqlview"
	"squirrel/internal/vdp"
)

// statFields is the closed vocabulary of assert.stats counters: each
// name reads one core.Stats field.
var statFields = map[string]func(core.Stats) int64{
	"update_txns":         func(s core.Stats) int64 { return int64(s.UpdateTxns) },
	"query_txns":          func(s core.Stats) int64 { return int64(s.QueryTxns) },
	"atoms_propagated":    func(s core.Stats) int64 { return int64(s.AtomsPropagated) },
	"source_polls":        func(s core.Stats) int64 { return int64(s.SourcePolls) },
	"tuples_polled":       func(s core.Stats) int64 { return int64(s.TuplesPolled) },
	"temps_built":         func(s core.Stats) int64 { return int64(s.TempsBuilt) },
	"key_based_temps":     func(s core.Stats) int64 { return int64(s.KeyBasedTemps) },
	"queue_high_water":    func(s core.Stats) int64 { return int64(s.QueueHighWater) },
	"current_version":     func(s core.Stats) int64 { return int64(s.CurrentVersion) },
	"versions_published":  func(s core.Stats) int64 { return int64(s.VersionsPublished) },
	"poll_failures":       func(s core.Stats) int64 { return int64(s.PollFailures) },
	"poll_retries":        func(s core.Stats) int64 { return int64(s.PollRetries) },
	"breaker_fast_fails":  func(s core.Stats) int64 { return int64(s.BreakerFastFails) },
	"degraded_queries":    func(s core.Stats) int64 { return int64(s.DegradedQueries) },
	"gaps_detected":       func(s core.Stats) int64 { return int64(s.GapsDetected) },
	"resyncs":             func(s core.Stats) int64 { return int64(s.Resyncs) },
	"annotation_switches": func(s core.Stats) int64 { return int64(s.AnnotationSwitches) },
	"update_txn_retries":  func(s core.Stats) int64 { return int64(s.UpdateTxnRetries) },
	"active_subscribers":  func(s core.Stats) int64 { return int64(s.ActiveSubscribers) },
	"sub_frames":          func(s core.Stats) int64 { return int64(s.SubFramesDelivered) },
	"sub_coalesces":       func(s core.Stats) int64 { return int64(s.SubCoalesces) },
	"sub_lag_drops":       func(s core.Stats) int64 { return int64(s.SubLagDrops) },
	"sub_resyncs":         func(s core.Stats) int64 { return int64(s.SubSnapshotResyncs) },
	"kernel_probe_rows":   func(s core.Stats) int64 { return int64(s.KernelProbeRows) },
	"kernel_scan_rows":    func(s core.Stats) int64 { return int64(s.KernelScanRows) },
	"kernel_stages":       func(s core.Stats) int64 { return int64(s.KernelStages) },
	"kernel_stage_nodes":  func(s core.Stats) int64 { return int64(s.KernelStageNodes) },
	"wal_barrier_errs":    func(s core.Stats) int64 { return int64(s.WALBarrierErrs) },
}

func bindTimeline(n *node, spec *Spec) error {
	list, err := n.asList()
	if err != nil {
		return err
	}
	if len(list) == 0 {
		return errAt(n.line, "timeline is empty")
	}
	for _, item := range list {
		step, err := bindStep(item, spec)
		if err != nil {
			return err
		}
		spec.Steps = append(spec.Steps, step)
	}
	return nil
}

func bindStep(n *node, spec *Spec) (Step, error) {
	// Bare-scalar steps: "- flush".
	if n.kind == kindScalar {
		if n.scalar == "flush" && !n.quoted {
			return Step{Line: n.line, Kind: "flush"}, nil
		}
		return Step{}, errAt(n.line, "unknown step %q (bare steps: flush)", n.scalar)
	}
	m, err := n.asMap()
	if err != nil {
		return Step{}, err
	}
	if len(m.keys) != 1 {
		return Step{}, errAt(n.line, "a step is a single-key mapping (e.g. 'advance: 100'), got %d keys", len(m.keys))
	}
	kind := m.keys[0]
	body := m.vals[kind]
	st := Step{Line: n.line, Kind: kind}
	switch kind {
	case "advance":
		v, err := body.asInt()
		if err != nil {
			return st, err
		}
		if v <= 0 {
			return st, errAt(body.line, "advance must be > 0")
		}
		st.Advance = clock.Time(v)
	case "commit":
		c, err := bindCommit(body, spec)
		if err != nil {
			return st, err
		}
		st.Commit = c
	case "burst":
		bu, err := bindBurst(body, spec)
		if err != nil {
			return st, err
		}
		st.Burst = bu
	case "flush":
		// "flush: true" tolerated alongside bare "- flush".
		if _, err := body.asBool(); err != nil {
			return st, errAt(body.line, "flush takes no payload (write '- flush')")
		}
	case "query":
		q, err := bindQuery(body, spec)
		if err != nil {
			return st, err
		}
		st.Query = q
	case "crash", "restore", "resync":
		src, err := body.asString()
		if err != nil {
			return st, err
		}
		if !spec.hasFaultTarget(src) {
			return st, errAt(body.line, "%s: unknown source %q", kind, src)
		}
		st.Source = src
	case "hang":
		b, err := bindMap(body)
		if err != nil {
			return st, err
		}
		h := &HangStep{}
		sn, err := b.need("source")
		if err != nil {
			return st, err
		}
		if h.Source, err = sn.asString(); err != nil {
			return st, err
		}
		if !spec.hasFaultTarget(h.Source) {
			return st, errAt(sn.line, "hang: unknown source %q", h.Source)
		}
		tn, err := b.need("ticks")
		if err != nil {
			return st, err
		}
		tv, err := tn.asInt()
		if err != nil {
			return st, err
		}
		if tv <= 0 {
			return st, errAt(tn.line, "hang ticks must be > 0")
		}
		h.Ticks = clock.Time(tv)
		if err := b.finish("hang"); err != nil {
			return st, err
		}
		st.Hang = h
	case "drop_announcements":
		b, err := bindMap(body)
		if err != nil {
			return st, err
		}
		d := &DropStep{}
		sn, err := b.need("source")
		if err != nil {
			return st, err
		}
		if d.Source, err = sn.asString(); err != nil {
			return st, err
		}
		if !spec.hasFaultTarget(d.Source) {
			return st, errAt(sn.line, "drop_announcements: unknown source %q", d.Source)
		}
		cn, err := b.need("count")
		if err != nil {
			return st, err
		}
		cv, err := cn.asInt()
		if err != nil {
			return st, err
		}
		if cv <= 0 {
			return st, errAt(cn.line, "count must be > 0")
		}
		d.Count = int(cv)
		if err := b.finish("drop_announcements"); err != nil {
			return st, err
		}
		st.Drop = d
	case "reannotate":
		// Either one annotation mapping or a list of them.
		if body.kind == kindList {
			items, _ := body.asList()
			for _, it := range items {
				a, err := bindAnn(it)
				if err != nil {
					return st, err
				}
				st.Reannotate = append(st.Reannotate, a)
			}
		} else {
			a, err := bindAnn(body)
			if err != nil {
				return st, err
			}
			st.Reannotate = []AnnSpec{a}
		}
	case "subscribe":
		sub, err := bindSubscribe(body)
		if err != nil {
			return st, err
		}
		st.Subscribe = sub
	case "drain":
		d, err := bindDrain(body)
		if err != nil {
			return st, err
		}
		st.Drain = d
	case "unsubscribe":
		s, err := body.asString()
		if err != nil {
			return st, err
		}
		st.Sub = s
	case "note":
		s, err := body.asString()
		if err != nil {
			return st, err
		}
		st.Note = s
	case "assert":
		a, err := bindAssert(body, spec)
		if err != nil {
			return st, err
		}
		st.Assert = a
	default:
		return st, errAt(n.line, "unknown step %q", kind)
	}
	return st, nil
}

func (s *Spec) hasSource(name string) bool {
	for _, src := range s.Sources {
		if src.Name == name {
			return true
		}
	}
	return false
}

// Tiered reports whether the scenario declares a federation (mediators
// between the leaf sources and the top-level views).
func (s *Spec) Tiered() bool { return len(s.Mediators) > 0 }

func (s *Spec) hasMediator(name string) bool {
	for _, m := range s.Mediators {
		if m.Name == name {
			return true
		}
	}
	return false
}

// hasFaultTarget accepts anything crash/restore/hang/drop steps may
// name: a leaf source or (in a tiered scenario) a mediator tier.
func (s *Spec) hasFaultTarget(name string) bool {
	return s.hasSource(name) || s.hasMediator(name)
}

// relSpec resolves (source, relation) to the declared relation spec.
func (s *Spec) relSpec(src, rel string) *RelSpec {
	for i := range s.Sources {
		if s.Sources[i].Name != src {
			continue
		}
		for j := range s.Sources[i].Relations {
			if s.Sources[i].Relations[j].Name == rel {
				return &s.Sources[i].Relations[j]
			}
		}
	}
	return nil
}

func bindCommit(n *node, spec *Spec) (*CommitStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &CommitStep{}
	sn, err := b.need("source")
	if err != nil {
		return nil, err
	}
	if out.Source, err = sn.asString(); err != nil {
		return nil, err
	}
	rn, err := b.need("relation")
	if err != nil {
		return nil, err
	}
	if out.Relation, err = rn.asString(); err != nil {
		return nil, err
	}
	rs := spec.relSpec(out.Source, out.Relation)
	if rs == nil {
		return nil, errAt(sn.line, "commit: source %q has no relation %q", out.Source, out.Relation)
	}
	rows := func(key string) ([]relation.Tuple, error) {
		v := b.get(key)
		if v == nil {
			return nil, nil
		}
		list, err := v.asList()
		if err != nil {
			return nil, err
		}
		var out []relation.Tuple
		for _, row := range list {
			t, err := bindTuple(row, rs.Attrs)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
	if out.Insert, err = rows("insert"); err != nil {
		return nil, err
	}
	if out.Delete, err = rows("delete"); err != nil {
		return nil, err
	}
	if len(out.Insert) == 0 && len(out.Delete) == 0 {
		return nil, errAt(n.line, "commit has neither insert nor delete rows")
	}
	return out, b.finish("commit")
}

func bindBurst(n *node, spec *Spec) (*BurstStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &BurstStep{}
	sn, err := b.need("source")
	if err != nil {
		return nil, err
	}
	if out.Source, err = sn.asString(); err != nil {
		return nil, err
	}
	rn, err := b.need("relation")
	if err != nil {
		return nil, err
	}
	if out.Relation, err = rn.asString(); err != nil {
		return nil, err
	}
	rs := spec.relSpec(out.Source, out.Relation)
	if rs == nil {
		return nil, errAt(sn.line, "burst: source %q has no relation %q", out.Source, out.Relation)
	}
	cn, err := b.need("count")
	if err != nil {
		return nil, err
	}
	cv, err := cn.asInt()
	if err != nil {
		return nil, err
	}
	if cv <= 0 || cv > 100000 {
		return nil, errAt(cn.line, "burst count must be in 1..100000")
	}
	out.Count = int(cv)
	en, err := b.need("every")
	if err != nil {
		return nil, err
	}
	ev, err := en.asInt()
	if err != nil {
		return nil, err
	}
	if ev <= 0 {
		return nil, errAt(en.line, "burst every must be > 0 ticks")
	}
	out.Every = clock.Time(ev)
	rows := func(key string) ([]burstRow, error) {
		v := b.get(key)
		if v == nil {
			return nil, nil
		}
		list, err := v.asList()
		if err != nil {
			return nil, err
		}
		var rows []burstRow
		for _, rowNode := range list {
			row, err := bindBurstRow(rowNode, rs.Attrs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
	if out.Insert, err = rows("insert"); err != nil {
		return nil, err
	}
	if out.Delete, err = rows("delete"); err != nil {
		return nil, err
	}
	if len(out.Insert) == 0 && len(out.Delete) == 0 {
		return nil, errAt(n.line, "burst has neither insert nor delete rows")
	}
	return out, b.finish("burst")
}

// bindBurstRow parses a templated row: numeric cells given as strings are
// expressions over the burst index i; string cells substitute "{i}".
func bindBurstRow(n *node, attrs []AttrSpec) (burstRow, error) {
	cells, err := n.asList()
	if err != nil {
		return nil, err
	}
	if len(cells) != len(attrs) {
		return nil, errAt(n.line, "row has %d cells, schema has %d attributes", len(cells), len(attrs))
	}
	out := make(burstRow, len(cells))
	for i, c := range cells {
		attr := attrs[i]
		if c.kind != kindScalar {
			return nil, errAt(c.line, "cell for %s must be a scalar", attr.Name)
		}
		numeric := attr.Kind == relation.KindInt || attr.Kind == relation.KindFloat
		if numeric && looksTemplated(c) {
			expr, err := sqlview.ParseExpr(c.scalar)
			if err != nil {
				return nil, errAt(c.line, "cell expression %q: %v", c.scalar, err)
			}
			refs := map[string]bool{}
			expr.CollectAttrs(refs)
			for name := range refs {
				if name != "i" {
					return nil, errAt(c.line, "cell expression may only reference the burst index i, got %q", name)
				}
			}
			out[i] = burstCell{expr: expr, isExpr: true}
			continue
		}
		if attr.Kind == relation.KindString && strings.Contains(c.scalar, "{i}") {
			out[i] = burstCell{strTpl: c.scalar, isTpl: true}
			continue
		}
		v, err := bindValue(c, attr)
		if err != nil {
			return nil, err
		}
		out[i] = burstCell{lit: v}
	}
	return out, nil
}

// looksTemplated reports whether a numeric cell should be parsed as an
// expression: any quoted scalar, or a plain scalar that is not a bare
// number.
func looksTemplated(c *node) bool {
	if c.quoted {
		return true
	}
	return strings.ContainsAny(c.scalar, "i+-*/() ") && c.scalar != "-"
}

// eval instantiates the row for burst index i.
func (r burstRow) eval(i int, attrs []AttrSpec) (relation.Tuple, error) {
	out := make(relation.Tuple, len(r))
	env := burstEnv(i)
	for j, c := range r {
		switch {
		case c.isExpr:
			v, err := c.expr.Eval(env)
			if err != nil {
				return nil, err
			}
			if attrs[j].Kind == relation.KindInt && v.Kind() == relation.KindFloat {
				v = relation.Int(int64(v.AsFloat()))
			}
			if v.Kind() != attrs[j].Kind {
				return nil, fmt.Errorf("cell expression for %s evaluated to %s, want %s",
					attrs[j].Name, v.Kind(), attrs[j].Kind)
			}
			out[j] = v
		case c.isTpl:
			out[j] = relation.Str(strings.ReplaceAll(c.strTpl, "{i}", fmt.Sprint(i)))
		default:
			out[j] = c.lit
		}
	}
	return out, nil
}

// burstEnv resolves the single variable i.
type burstEnv int

func (e burstEnv) Lookup(name string) (relation.Value, bool) {
	if name == "i" {
		return relation.Int(int64(e)), true
	}
	return relation.Null(), false
}

func bindQuery(n *node, spec *Spec) (*QueryStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &QueryStep{}
	en, err := b.need("export")
	if err != nil {
		return nil, err
	}
	if out.Export, err = en.asString(); err != nil {
		return nil, err
	}
	if an := b.get("attrs"); an != nil {
		if out.Attrs, err = an.asStringList(); err != nil {
			return nil, err
		}
	}
	if wn := b.get("where"); wn != nil {
		if out.WhereSrc, err = wn.asString(); err != nil {
			return nil, err
		}
		if out.Where, err = sqlview.ParseExpr(out.WhereSrc); err != nil {
			return nil, errAt(wn.line, "where %q: %v", out.WhereSrc, err)
		}
	}
	if sn := b.get("stale"); sn != nil {
		if out.Stale, err = sn.asBool(); err != nil {
			return nil, err
		}
	}
	if mn := b.get("max_staleness"); mn != nil {
		v, err := mn.asInt()
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, errAt(mn.line, "max_staleness must be > 0")
		}
		if !out.Stale {
			return nil, errAt(mn.line, "max_staleness requires stale: true")
		}
		out.MaxStaleness = clock.Time(v)
	}
	if xn := b.get("expect"); xn != nil {
		if out.Expect, err = bindExpect(xn); err != nil {
			return nil, err
		}
	}
	return out, b.finish("query")
}

func bindExpect(n *node) (*ExpectSpec, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &ExpectSpec{}
	if en := b.get("error"); en != nil {
		if out.ErrContains, err = en.asString(); err != nil {
			return nil, err
		}
		if out.ErrContains == "" {
			return nil, errAt(en.line, "expect.error must be a non-empty substring")
		}
	}
	if cn := b.get("count"); cn != nil {
		v, err := cn.asInt()
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, errAt(cn.line, "expect.count must be >= 0")
		}
		c := int(v)
		out.Count = &c
	}
	if dn := b.get("degraded"); dn != nil {
		v, err := dn.asBool()
		if err != nil {
			return nil, err
		}
		out.Degraded = &v
	}
	if rn := b.get("rows"); rn != nil {
		list, err := rn.asList()
		if err != nil {
			return nil, err
		}
		out.HasRows = true
		for _, row := range list {
			cells, err := row.asList()
			if err != nil {
				return nil, err
			}
			t := make(relation.Tuple, len(cells))
			for i, c := range cells {
				v, err := bindFreeValue(c)
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			out.Rows = append(out.Rows, t)
		}
	}
	if out.ErrContains != "" && (out.HasRows || out.Count != nil || out.Degraded != nil) {
		return nil, errAt(n.line, "expect.error excludes rows/count/degraded")
	}
	return out, b.finish("expect")
}

// bindFreeValue types an expectation cell by its syntax (the answer
// schema is not known at bind time): quoted → string, true/false → bool,
// integer → int, decimal → float.
func bindFreeValue(c *node) (relation.Value, error) {
	if c.kind != kindScalar {
		return relation.Null(), errAt(c.line, "expected a scalar cell")
	}
	if c.quoted {
		return relation.Str(c.scalar), nil
	}
	switch c.scalar {
	case "true":
		return relation.Bool(true), nil
	case "false":
		return relation.Bool(false), nil
	case "null":
		return relation.Null(), nil
	}
	if v, err := c.asInt(); err == nil {
		return relation.Int(v), nil
	}
	var f float64
	if _, err := fmt.Sscanf(c.scalar, "%g", &f); err == nil {
		return relation.Float(f), nil
	}
	return relation.Str(c.scalar), nil
}

func bindSubscribe(n *node) (*SubscribeStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &SubscribeStep{}
	nn, err := b.need("name")
	if err != nil {
		return nil, err
	}
	if out.Name, err = nn.asString(); err != nil {
		return nil, err
	}
	if !validName(out.Name) {
		return nil, errAt(nn.line, "subscription name %q must be lowercase [a-z0-9-]", out.Name)
	}
	en, err := b.need("export")
	if err != nil {
		return nil, err
	}
	if out.Export, err = en.asString(); err != nil {
		return nil, err
	}
	uints := []struct {
		key string
		dst func(int64)
	}{
		{"from", func(v int64) { out.From = uint64(v) }},
		{"max_queue", func(v int64) { out.MaxQueue = int(v) }},
		{"max_lag", func(v int64) { out.MaxLag = clock.Time(v) }},
	}
	for _, u := range uints {
		if v := b.get(u.key); v != nil {
			i, err := v.asInt()
			if err != nil {
				return nil, err
			}
			if i < 0 {
				return nil, errAt(v.line, "%s must be >= 0", u.key)
			}
			u.dst(i)
		}
	}
	return out, b.finish("subscribe " + out.Name)
}

func bindDrain(n *node) (*DrainStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &DrainStep{}
	sn, err := b.need("sub")
	if err != nil {
		return nil, err
	}
	if out.Sub, err = sn.asString(); err != nil {
		return nil, err
	}
	if fn := b.get("frames"); fn != nil {
		v, err := fn.asInt()
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, errAt(fn.line, "frames must be >= 0")
		}
		f := int(v)
		out.Frames = &f
	}
	if kn := b.get("kinds"); kn != nil {
		if out.Kinds, err = kn.asStringList(); err != nil {
			return nil, err
		}
		for _, k := range out.Kinds {
			if k != "snapshot" && k != "delta" {
				return nil, errAt(kn.line, "frame kind %q must be snapshot or delta", k)
			}
		}
	}
	if mn := b.get("match_store"); mn != nil {
		if out.MatchStore, err = mn.asBool(); err != nil {
			return nil, err
		}
	}
	if cn := b.get("min_coalesced"); cn != nil {
		v, err := cn.asInt()
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, errAt(cn.line, "min_coalesced must be >= 0")
		}
		out.MinCoalesced = int(v)
	}
	return out, b.finish("drain " + out.Sub)
}

func bindAssert(n *node, spec *Spec) (*AssertStep, error) {
	b, err := bindMap(n)
	if err != nil {
		return nil, err
	}
	out := &AssertStep{}
	if cn := b.get("consistency"); cn != nil {
		if out.Consistency, err = cn.asBool(); err != nil {
			return nil, err
		}
	}
	if tn := b.get("theorem72"); tn != nil {
		if out.Theorem72, err = tn.asBool(); err != nil {
			return nil, err
		}
	}
	if fn := b.get("freshness"); fn != nil {
		fb, err := bindMap(fn)
		if err != nil {
			return nil, err
		}
		out.Freshness = clock.Vector{}
		for _, src := range fb.n.keys {
			if !spec.hasSource(src) {
				return nil, errAt(fn.line, "freshness: unknown source %q", src)
			}
			v, err := fb.get(src).asInt()
			if err != nil {
				return nil, err
			}
			out.Freshness[src] = clock.Time(v)
		}
	}
	if qn := b.get("quarantined"); qn != nil {
		list, err := qn.asStringList()
		if err != nil {
			return nil, err
		}
		for _, src := range list {
			if !spec.hasFaultTarget(src) {
				return nil, errAt(qn.line, "quarantined: unknown source %q", src)
			}
		}
		out.Quarantined = list
		out.HasQuarantined = true
	}
	if sn := b.get("store"); sn != nil {
		sb, err := bindMap(sn)
		if err != nil {
			return nil, err
		}
		out.Store = map[string]int{}
		for _, nodeName := range sb.n.keys {
			v, err := sb.get(nodeName).asInt()
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, errAt(sn.line, "store count must be >= 0")
			}
			out.Store[nodeName] = int(v)
		}
	}
	if stn := b.get("stats"); stn != nil {
		sb, err := bindMap(stn)
		if err != nil {
			return nil, err
		}
		for _, name := range sb.n.keys {
			if statFields[name] == nil {
				known := make([]string, 0, len(statFields))
				for k := range statFields {
					known = append(known, k)
				}
				sortStrings(known)
				return nil, errAt(stn.line, "unknown stat %q (known: %s)", name, strings.Join(known, ", "))
			}
			v := sb.get(name)
			sa := StatAssert{Name: name, Max: -1}
			if v.kind == kindScalar {
				exact, err := v.asInt()
				if err != nil {
					return nil, err
				}
				sa.Min, sa.Max = exact, exact
			} else {
				vb, err := bindMap(v)
				if err != nil {
					return nil, err
				}
				if mn := vb.get("min"); mn != nil {
					if sa.Min, err = mn.asInt(); err != nil {
						return nil, err
					}
				}
				if mx := vb.get("max"); mx != nil {
					if sa.Max, err = mx.asInt(); err != nil {
						return nil, err
					}
				}
				if err := vb.finish("stat " + name); err != nil {
					return nil, err
				}
			}
			out.Stats = append(out.Stats, sa)
		}
	}
	if en := b.get("events"); en != nil {
		list, err := en.asList()
		if err != nil {
			return nil, err
		}
		for _, item := range list {
			eb, err := bindMap(item)
			if err != nil {
				return nil, err
			}
			ea := EventAssert{Min: 1}
			tn, err := eb.need("type")
			if err != nil {
				return nil, err
			}
			if ea.Type, err = tn.asString(); err != nil {
				return nil, err
			}
			if sn := eb.get("subject"); sn != nil {
				if ea.Subject, err = sn.asString(); err != nil {
					return nil, err
				}
			}
			if mn := eb.get("min"); mn != nil {
				v, err := mn.asInt()
				if err != nil {
					return nil, err
				}
				ea.Min = int(v)
			}
			if err := eb.finish("event assertion"); err != nil {
				return nil, err
			}
			out.Events = append(out.Events, ea)
		}
	}
	if dn := b.get("dropped_announcements"); dn != nil {
		db, err := bindMap(dn)
		if err != nil {
			return nil, err
		}
		out.DroppedAnns = map[string]int{}
		for _, src := range db.n.keys {
			if !spec.hasFaultTarget(src) {
				return nil, errAt(dn.line, "dropped_announcements: unknown source %q", src)
			}
			v, err := db.get(src).asInt()
			if err != nil {
				return nil, err
			}
			out.DroppedAnns[src] = int(v)
		}
	}
	return out, b.finish("assert")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// validate builds the VDP (proving sources/views/annotations coherent)
// and checks every timeline reference against it. For a tiered scenario
// every plan layer must build: each tier's plan over its leaf sources,
// the top plan over the tiers' exports, and the composed flat plan the
// correctness checkers evaluate.
func (s *Spec) validate() error {
	var plan *vdp.VDP
	if s.Tiered() {
		tiers, err := s.BuildTierPlans()
		if err != nil {
			return err
		}
		if plan, err = s.BuildTopPlan(tiers); err != nil {
			return err
		}
		if _, err := s.BuildFlatPlan(); err != nil {
			return err
		}
	} else {
		var err error
		if plan, err = s.BuildPlan(); err != nil {
			return err
		}
	}
	exports := map[string]bool{}
	for _, e := range plan.Exports() {
		exports[e] = true
	}
	declaredSubs := map[string]bool{}
	for i := range s.Steps {
		st := &s.Steps[i]
		switch st.Kind {
		case "subscribe":
			if !exports[st.Subscribe.Export] {
				return errAt(st.Line, "subscribe: %q is not an export (have %s)",
					st.Subscribe.Export, strings.Join(plan.Exports(), ", "))
			}
			declaredSubs[st.Subscribe.Name] = true
		case "drain":
			if !declaredSubs[st.Drain.Sub] {
				return errAt(st.Line, "drain: subscription %q not declared by an earlier subscribe step", st.Drain.Sub)
			}
		case "unsubscribe":
			if !declaredSubs[st.Sub] {
				return errAt(st.Line, "unsubscribe: subscription %q not declared by an earlier subscribe step", st.Sub)
			}
		case "query":
			q := st.Query
			if !exports[q.Export] {
				return errAt(st.Line, "query: %q is not an export (have %s)", q.Export, strings.Join(plan.Exports(), ", "))
			}
			schema := plan.Node(q.Export).Schema
			for _, a := range q.Attrs {
				if _, ok := schema.AttrIndex(a); !ok {
					return errAt(st.Line, "query: export %s has no attribute %q", q.Export, a)
				}
			}
		case "reannotate":
			for _, a := range st.Reannotate {
				if err := checkAnnSpec(plan, a, st.Line); err != nil {
					return err
				}
			}
		case "assert":
			if st.Assert.Store != nil {
				for nodeName := range st.Assert.Store {
					if plan.Node(nodeName) == nil {
						return errAt(st.Line, "assert.store: unknown node %q", nodeName)
					}
				}
			}
		}
	}
	return nil
}

func checkAnnSpec(plan *vdp.VDP, a AnnSpec, line int) error {
	n := plan.Node(a.Node)
	if n == nil {
		return errAt(line, "reannotate: unknown node %q", a.Node)
	}
	if n.IsLeaf() {
		return errAt(line, "reannotate: %q is a leaf; annotate derived nodes", a.Node)
	}
	for _, attr := range append(append([]string{}, a.Materialized...), a.Virtual...) {
		if _, ok := n.Schema.AttrIndex(attr); !ok {
			return errAt(line, "reannotate: node %s has no attribute %q", a.Node, attr)
		}
	}
	return nil
}

// BuildPlan constructs the annotated VDP the spec declares.
func (s *Spec) BuildPlan() (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	for _, src := range s.Sources {
		for _, rs := range src.Relations {
			schema, err := relSchema(rs)
			if err != nil {
				return nil, err
			}
			if err := b.AddSource(src.Name, schema); err != nil {
				return nil, errAt(rs.Line, "source %s: %v", src.Name, err)
			}
		}
	}
	for _, v := range s.Views {
		if err := b.AddViewSQL(v.Name, v.SQL); err != nil {
			return nil, errAt(v.Line, "view %s: %v", v.Name, err)
		}
	}
	for _, a := range s.Annotat {
		b.Annotate(a.Node, vdp.Ann(a.Materialized, a.Virtual))
	}
	plan, err := b.Build()
	if err != nil {
		return nil, errAt(1, "plan: %v", err)
	}
	for _, a := range s.Annotat {
		if err := checkAnnSpec(plan, a, a.Line); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// BuildTierPlans constructs one plan per declared mediator, each over
// its listed leaf sources' relations only.
func (s *Spec) BuildTierPlans() (map[string]*vdp.VDP, error) {
	out := map[string]*vdp.VDP{}
	for _, m := range s.Mediators {
		b := vdp.NewBuilder()
		for _, srcName := range m.Sources {
			for i := range s.Sources {
				if s.Sources[i].Name != srcName {
					continue
				}
				for _, rs := range s.Sources[i].Relations {
					schema, err := relSchema(rs)
					if err != nil {
						return nil, err
					}
					if err := b.AddSource(srcName, schema); err != nil {
						return nil, errAt(m.Line, "mediator %s: source %s: %v", m.Name, srcName, err)
					}
				}
			}
		}
		for _, v := range m.Views {
			if err := b.AddViewSQL(v.Name, v.SQL); err != nil {
				return nil, errAt(v.Line, "mediator %s: view %s: %v", m.Name, v.Name, err)
			}
		}
		plan, err := b.Build()
		if err != nil {
			return nil, errAt(m.Line, "mediator %s plan: %v", m.Name, err)
		}
		out[m.Name] = plan
	}
	return out, nil
}

// BuildTopPlan constructs the top mediator's plan: each tier's exports
// bound as source relations under the tier's name, the spec's views
// over them, and the spec's annotations applied.
func (s *Spec) BuildTopPlan(tiers map[string]*vdp.VDP) (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	for _, m := range s.Mediators {
		tp := tiers[m.Name]
		for _, e := range tp.Exports() {
			if err := b.AddSource(m.Name, tp.Node(e).Schema); err != nil {
				return nil, errAt(m.Line, "mediator %s export %s: %v", m.Name, e, err)
			}
		}
	}
	for _, v := range s.Views {
		if err := b.AddViewSQL(v.Name, v.SQL); err != nil {
			return nil, errAt(v.Line, "view %s: %v", v.Name, err)
		}
	}
	for _, a := range s.Annotat {
		b.Annotate(a.Node, vdp.Ann(a.Materialized, a.Virtual))
	}
	plan, err := b.Build()
	if err != nil {
		return nil, errAt(1, "top plan: %v", err)
	}
	for _, a := range s.Annotat {
		if err := checkAnnSpec(plan, a, a.Line); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// BuildFlatPlan composes the federation into one single-mediator plan
// over the leaf sources — every tier view, then every top view, as
// views of one VDP. The correctness checkers evaluate this plan at
// base-coordinate Reflect vectors: it defines what the federation's
// answers must equal (DESIGN.md §11's composition argument).
func (s *Spec) BuildFlatPlan() (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	for _, src := range s.Sources {
		for _, rs := range src.Relations {
			schema, err := relSchema(rs)
			if err != nil {
				return nil, err
			}
			if err := b.AddSource(src.Name, schema); err != nil {
				return nil, errAt(rs.Line, "source %s: %v", src.Name, err)
			}
		}
	}
	for _, m := range s.Mediators {
		for _, v := range m.Views {
			if err := b.AddViewSQL(v.Name, v.SQL); err != nil {
				return nil, errAt(v.Line, "mediator %s: view %s: %v", m.Name, v.Name, err)
			}
		}
	}
	for _, v := range s.Views {
		if err := b.AddViewSQL(v.Name, v.SQL); err != nil {
			return nil, errAt(v.Line, "view %s: %v", v.Name, err)
		}
	}
	plan, err := b.Build()
	if err != nil {
		return nil, errAt(1, "flat plan: %v", err)
	}
	return plan, nil
}

// relSchema builds the relation schema one RelSpec declares.
func relSchema(rs RelSpec) (*relation.Schema, error) {
	attrs := make([]relation.Attribute, len(rs.Attrs))
	for i, a := range rs.Attrs {
		attrs[i] = relation.Attribute{Name: a.Name, Type: a.Kind}
	}
	schema, err := relation.NewSchema(rs.Name, attrs, rs.Key...)
	if err != nil {
		return nil, errAt(rs.Line, "relation %s: %v", rs.Name, err)
	}
	return schema, nil
}

// SeedRelations materializes the declared seed rows per source.
func (s *Spec) SeedRelations(plan *vdp.VDP) (map[string]map[string]*relation.Relation, error) {
	out := map[string]map[string]*relation.Relation{}
	for _, src := range s.Sources {
		m := map[string]*relation.Relation{}
		for _, rs := range src.Relations {
			n := plan.Node(rs.Name)
			if n == nil {
				return nil, fmt.Errorf("relation %s not in plan", rs.Name)
			}
			r := relation.NewSet(n.Schema)
			for _, t := range rs.Rows {
				if !r.Insert(t) {
					return nil, fmt.Errorf("duplicate seed row for %s: %s", rs.Name, t)
				}
			}
			m[rs.Name] = r
		}
		out[src.Name] = m
	}
	return out, nil
}
