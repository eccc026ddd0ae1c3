package scenario

import (
	"fmt"
	"strings"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/relation"
	"squirrel/internal/sim"
)

// Spec is one fully validated scenario: the integration environment
// (sources, views, annotations, delays) plus the timeline to execute.
type Spec struct {
	Name        string
	Description string
	// Horizon, if > 0, bounds the simulation: one-shot events scheduled
	// past it are dropped AND counted, and the runner fails the scenario
	// when the count is non-zero (truncated timelines must fail loudly).
	Horizon clock.Time
	Delays  DelaySpec
	Sources []SourceSpec
	// Mediators, when non-empty, makes the scenario a two-level
	// federation (DESIGN.md §11): each entry is a middle-tier mediator
	// over the leaf sources, served upward as an autonomous source, and
	// the top-level Views read the tiers' exports instead of leaf
	// relations.
	Mediators []MediatorSpec
	Views     []ViewSpec
	Annotat   []AnnSpec
	Steps     []Step
}

// MediatorSpec declares one middle-tier mediator: the leaf sources it
// consumes, its views (all fully materialized — the export-as-source
// adapter serves nothing else), and the delay triple of its link to the
// top mediator.
type MediatorSpec struct {
	Line    int
	Name    string
	Sources []string
	Views   []ViewSpec
	Link    sim.LinkDelays
}

// SourceSpec declares one autonomous source database.
type SourceSpec struct {
	Name      string
	Relations []RelSpec
}

// RelSpec declares one source relation: schema (attribute order is
// significant), key, and seed rows loaded before the mediator initializes.
type RelSpec struct {
	Line  int
	Name  string
	Attrs []AttrSpec
	Key   []string
	Rows  []relation.Tuple
}

// AttrSpec is one attribute declaration ("name:kind").
type AttrSpec struct {
	Name string
	Kind relation.Kind
}

// ViewSpec declares one view by its SQL definition.
type ViewSpec struct {
	Line int
	Name string
	SQL  string
}

// AnnSpec assigns a node's attribute annotation (used both for the
// initial plan and for reannotate timeline steps).
type AnnSpec struct {
	Line         int
	Node         string
	Materialized []string
	Virtual      []string
}

// DelaySpec carries the Theorem 7.2 delay vocabulary, all in virtual
// ticks. Zero values mean "instantaneous" (and UHold 0 means no periodic
// update loop: the timeline flushes explicitly — group-commit style).
type DelaySpec struct {
	UHold    clock.Time
	UProc    clock.Time
	QProcMed clock.Time
	// PerSource maps a source name to its {ann, comm, q_proc} delays.
	Ann, Comm, QProc map[string]clock.Time
}

// Step is one timeline entry; Kind selects which payload field applies.
type Step struct {
	Line int
	Kind string // advance|commit|burst|flush|query|crash|restore|hang|drop_announcements|reannotate|resync|note|assert|subscribe|drain|unsubscribe

	Advance    clock.Time
	Commit     *CommitStep
	Burst      *BurstStep
	Query      *QueryStep
	Source     string // crash / restore / resync target
	Hang       *HangStep
	Drop       *DropStep
	Reannotate []AnnSpec
	Note       string
	Assert     *AssertStep
	Subscribe  *SubscribeStep
	Drain      *DrainStep
	Sub        string // unsubscribe target
}

// SubscribeStep registers a named push subscription on a fully
// materialized export. Re-subscribing an existing name closes the old
// stream but keeps its replica, so `from` can resume where it left off.
type SubscribeStep struct {
	Name     string
	Export   string
	From     uint64 // resume after this store version (0 = snapshot start)
	MaxQueue int
	MaxLag   clock.Time
}

// DrainStep consumes every queued frame of a subscription, applying each
// to the subscription's replica, and optionally asserts the drained
// sequence and the replica's convergence with the store.
type DrainStep struct {
	Sub string
	// Frames, if non-nil, is the exact number of frames expected.
	Frames *int
	// Kinds, if non-empty, is the exact kind sequence ("snapshot"/"delta").
	Kinds []string
	// MatchStore asserts the replica equals the export's current store
	// snapshot after the drain.
	MatchStore bool
	// MinCoalesced asserts at least this many commits were coalesced into
	// the drained frames (backpressure actually engaged).
	MinCoalesced int
}

// CommitStep applies one source transaction at the current virtual time.
type CommitStep struct {
	Source   string
	Relation string
	Insert   []relation.Tuple
	Delete   []relation.Tuple
}

// BurstStep schedules Count commits spaced Every ticks apart, starting
// Every ticks from the current time. Cells are either literals or (for
// numeric attributes) expressions over the burst index `i`; string cells
// substitute "{i}".
type BurstStep struct {
	Source   string
	Relation string
	Count    int
	Every    clock.Time
	Insert   []burstRow
	Delete   []burstRow
}

type burstRow []burstCell

// burstCell is one templated cell: either a fixed literal or an
// expression over the burst index.
type burstCell struct {
	lit    relation.Value
	expr   algebra.Expr // numeric template, evaluated with i bound
	strTpl string       // string template with {i}
	isExpr bool
	isTpl  bool
}

// HangStep makes a source hang: polls burn Ticks of virtual time, then
// fail (restore clears it).
type HangStep struct {
	Source string
	Ticks  clock.Time
}

// DropStep silently discards the next Count announcements from Source —
// an announcement gap the mediator must detect when delivery resumes.
type DropStep struct {
	Source string
	Count  int
}

// QueryStep runs one query transaction against the mediator.
type QueryStep struct {
	Export       string
	Attrs        []string
	WhereSrc     string
	Where        algebra.Expr
	Stale        bool
	MaxStaleness clock.Time
	Expect       *ExpectSpec
}

// ExpectSpec is the per-query assertion set. Nil pointer fields are
// "not asserted".
type ExpectSpec struct {
	Rows     []relation.Tuple
	HasRows  bool
	Count    *int
	Degraded *bool
	// ErrContains expects the query to FAIL with an error containing the
	// substring; any other expectation is then invalid.
	ErrContains string
}

// AssertStep checks recorded state mid-timeline.
type AssertStep struct {
	// Consistency runs checker.CheckConsistency over the trace so far.
	Consistency bool
	// Theorem72 checks CheckFreshness against bounds computed from the
	// spec's delay vector (Delays.Bounds).
	Theorem72 bool
	// Freshness checks CheckFreshness against explicit per-source bounds.
	Freshness clock.Vector
	// Quarantined asserts the exact quarantined-source set.
	Quarantined    []string
	HasQuarantined bool
	// Store asserts per-node stored row counts (distinct tuples).
	Store map[string]int
	// Stats assert mediator counters by snake_case name.
	Stats []StatAssert
	// Events assert counts of mediator event-ring entries by type (and
	// optional subject).
	Events []EventAssert
	// DroppedAnns asserts the per-source count of announcements the
	// harness discarded (crash / drop_announcements).
	DroppedAnns map[string]int
}

// StatAssert bounds one mediator counter: Min ≤ value ≤ Max (Max < 0
// means unbounded above).
type StatAssert struct {
	Name     string
	Min, Max int64
}

// EventAssert requires at least Min events of Type (and Subject, when
// non-empty) in the mediator's event ring.
type EventAssert struct {
	Type    string
	Subject string
	Min     int
}

// ParseSpec parses and strictly validates a YAML scenario document:
// unknown keys, type mismatches, unknown sources/relations/attributes,
// arity errors, and un-buildable plans are all rejected with line
// numbers. The returned Spec always builds a valid VDP.
func ParseSpec(data []byte) (*Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	b, err := bindMap(root)
	if err != nil {
		return nil, err
	}
	spec := &Spec{}
	n, err := b.need("name")
	if err != nil {
		return nil, err
	}
	if spec.Name, err = n.asString(); err != nil {
		return nil, err
	}
	if !validName(spec.Name) {
		return nil, errAt(n.line, "scenario name %q must be lowercase [a-z0-9-]", spec.Name)
	}
	if d := b.get("description"); d != nil {
		if spec.Description, err = d.asString(); err != nil {
			return nil, err
		}
	}
	if h := b.get("horizon"); h != nil {
		v, err := h.asInt()
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, errAt(h.line, "horizon must be >= 0")
		}
		spec.Horizon = clock.Time(v)
	}
	if dn := b.get("delays"); dn != nil {
		if err := bindDelays(dn, &spec.Delays); err != nil {
			return nil, err
		}
	} else {
		spec.Delays = DelaySpec{Ann: map[string]clock.Time{}, Comm: map[string]clock.Time{}, QProc: map[string]clock.Time{}}
	}
	srcs, err := b.need("sources")
	if err != nil {
		return nil, err
	}
	if err := bindSources(srcs, spec); err != nil {
		return nil, err
	}
	if mn := b.get("mediators"); mn != nil {
		if err := bindMediators(mn, spec); err != nil {
			return nil, err
		}
	}
	views, err := b.need("views")
	if err != nil {
		return nil, err
	}
	if err := bindViews(views, spec); err != nil {
		return nil, err
	}
	if an := b.get("annotate"); an != nil {
		list, err := an.asList()
		if err != nil {
			return nil, err
		}
		for _, item := range list {
			a, err := bindAnn(item)
			if err != nil {
				return nil, err
			}
			spec.Annotat = append(spec.Annotat, a)
		}
	}
	tl, err := b.need("timeline")
	if err != nil {
		return nil, err
	}
	if err := bindTimeline(tl, spec); err != nil {
		return nil, err
	}
	if err := b.finish("scenario"); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			return false
		}
	}
	return true
}

func bindDelays(n *node, out *DelaySpec) error {
	b, err := bindMap(n)
	if err != nil {
		return err
	}
	out.Ann = map[string]clock.Time{}
	out.Comm = map[string]clock.Time{}
	out.QProc = map[string]clock.Time{}
	getTick := func(key string, dst *clock.Time) error {
		if v := b.get(key); v != nil {
			i, err := v.asInt()
			if err != nil {
				return err
			}
			if i < 0 {
				return errAt(v.line, "%s must be >= 0", key)
			}
			*dst = clock.Time(i)
		}
		return nil
	}
	if err := getTick("u_hold", &out.UHold); err != nil {
		return err
	}
	if err := getTick("u_proc", &out.UProc); err != nil {
		return err
	}
	if err := getTick("q_proc_med", &out.QProcMed); err != nil {
		return err
	}
	if sn := b.get("sources"); sn != nil {
		sb, err := bindMap(sn)
		if err != nil {
			return err
		}
		for _, src := range sb.n.keys {
			db, err := bindMap(sb.get(src))
			if err != nil {
				return err
			}
			var ann, comm, qp clock.Time
			g := func(key string, dst *clock.Time) error {
				if v := db.get(key); v != nil {
					i, err := v.asInt()
					if err != nil {
						return err
					}
					if i < 0 {
						return errAt(v.line, "%s must be >= 0", key)
					}
					*dst = clock.Time(i)
				}
				return nil
			}
			if err := g("ann", &ann); err != nil {
				return err
			}
			if err := g("comm", &comm); err != nil {
				return err
			}
			if err := g("q_proc", &qp); err != nil {
				return err
			}
			if err := db.finish("delays for source " + src); err != nil {
				return err
			}
			out.Ann[src], out.Comm[src], out.QProc[src] = ann, comm, qp
		}
	}
	return b.finish("delays")
}

var kindNames = map[string]relation.Kind{
	"int": relation.KindInt, "float": relation.KindFloat,
	"string": relation.KindString, "bool": relation.KindBool,
}

func bindSources(n *node, spec *Spec) error {
	list, err := n.asList()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, item := range list {
		b, err := bindMap(item)
		if err != nil {
			return err
		}
		var src SourceSpec
		nn, err := b.need("name")
		if err != nil {
			return err
		}
		if src.Name, err = nn.asString(); err != nil {
			return err
		}
		if seen[src.Name] {
			return errAt(nn.line, "duplicate source %q", src.Name)
		}
		seen[src.Name] = true
		rels, err := b.need("relations")
		if err != nil {
			return err
		}
		relList, err := rels.asList()
		if err != nil {
			return err
		}
		for _, rn := range relList {
			r, err := bindRel(rn)
			if err != nil {
				return err
			}
			src.Relations = append(src.Relations, r)
		}
		if len(src.Relations) == 0 {
			return errAt(rels.line, "source %q declares no relations", src.Name)
		}
		if err := b.finish("source " + src.Name); err != nil {
			return err
		}
		spec.Sources = append(spec.Sources, src)
	}
	if len(spec.Sources) == 0 {
		return errAt(n.line, "scenario declares no sources")
	}
	return nil
}

func bindRel(n *node) (RelSpec, error) {
	out := RelSpec{Line: n.line}
	b, err := bindMap(n)
	if err != nil {
		return out, err
	}
	nn, err := b.need("name")
	if err != nil {
		return out, err
	}
	if out.Name, err = nn.asString(); err != nil {
		return out, err
	}
	an, err := b.need("attrs")
	if err != nil {
		return out, err
	}
	decls, err := an.asStringList()
	if err != nil {
		return out, err
	}
	if len(decls) == 0 {
		return out, errAt(an.line, "relation %q declares no attributes", out.Name)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		name, kindStr, ok := strings.Cut(d, ":")
		if !ok {
			return out, errAt(an.line, "attribute %q must be name:kind (e.g. r1:int)", d)
		}
		name, kindStr = strings.TrimSpace(name), strings.TrimSpace(kindStr)
		kind, ok := kindNames[kindStr]
		if !ok {
			return out, errAt(an.line, "unknown attribute kind %q (int, float, string, bool)", kindStr)
		}
		if seen[name] {
			return out, errAt(an.line, "duplicate attribute %q", name)
		}
		seen[name] = true
		out.Attrs = append(out.Attrs, AttrSpec{Name: name, Kind: kind})
	}
	if kn := b.get("key"); kn != nil {
		if out.Key, err = kn.asStringList(); err != nil {
			return out, err
		}
		for _, k := range out.Key {
			if !seen[k] {
				return out, errAt(kn.line, "key attribute %q not declared", k)
			}
		}
	}
	if rn := b.get("rows"); rn != nil {
		rows, err := rn.asList()
		if err != nil {
			return out, err
		}
		for _, row := range rows {
			t, err := bindTuple(row, out.Attrs)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, t)
		}
	}
	return out, b.finish("relation " + out.Name)
}

// bindTuple converts a YAML row into a typed tuple checked against the
// attribute declarations.
func bindTuple(n *node, attrs []AttrSpec) (relation.Tuple, error) {
	cells, err := n.asList()
	if err != nil {
		return nil, err
	}
	if len(cells) != len(attrs) {
		return nil, errAt(n.line, "row has %d cells, schema has %d attributes", len(cells), len(attrs))
	}
	out := make(relation.Tuple, len(cells))
	for i, c := range cells {
		v, err := bindValue(c, attrs[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func bindValue(c *node, attr AttrSpec) (relation.Value, error) {
	if c.kind != kindScalar {
		return relation.Null(), errAt(c.line, "cell for %s must be a scalar", attr.Name)
	}
	switch attr.Kind {
	case relation.KindInt:
		v, err := c.asInt()
		if err != nil {
			return relation.Null(), errAt(c.line, "attribute %s is int: %v", attr.Name, err)
		}
		return relation.Int(v), nil
	case relation.KindFloat:
		if c.quoted {
			return relation.Null(), errAt(c.line, "attribute %s is float, got a string", attr.Name)
		}
		var f float64
		if _, err := fmt.Sscanf(c.scalar, "%g", &f); err != nil {
			return relation.Null(), errAt(c.line, "attribute %s is float, got %q", attr.Name, c.scalar)
		}
		return relation.Float(f), nil
	case relation.KindBool:
		v, err := c.asBool()
		if err != nil {
			return relation.Null(), errAt(c.line, "attribute %s is bool: %v", attr.Name, err)
		}
		return relation.Bool(v), nil
	default:
		return relation.Str(c.scalar), nil
	}
}

func bindMediators(n *node, spec *Spec) error {
	list, err := n.asList()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, item := range list {
		b, err := bindMap(item)
		if err != nil {
			return err
		}
		m := MediatorSpec{Line: item.line}
		nn, err := b.need("name")
		if err != nil {
			return err
		}
		if m.Name, err = nn.asString(); err != nil {
			return err
		}
		if !validName(m.Name) {
			return errAt(nn.line, "mediator name %q must be lowercase [a-z0-9-]", m.Name)
		}
		if seen[m.Name] {
			return errAt(nn.line, "duplicate mediator %q", m.Name)
		}
		if spec.hasSource(m.Name) {
			return errAt(nn.line, "mediator %q collides with a source name", m.Name)
		}
		seen[m.Name] = true
		sn, err := b.need("sources")
		if err != nil {
			return err
		}
		if m.Sources, err = sn.asStringList(); err != nil {
			return err
		}
		if len(m.Sources) == 0 {
			return errAt(sn.line, "mediator %q consumes no sources", m.Name)
		}
		srcSeen := map[string]bool{}
		for _, src := range m.Sources {
			if !spec.hasSource(src) {
				return errAt(sn.line, "mediator %q: unknown source %q", m.Name, src)
			}
			if srcSeen[src] {
				return errAt(sn.line, "mediator %q: duplicate source %q", m.Name, src)
			}
			srcSeen[src] = true
		}
		vn, err := b.need("views")
		if err != nil {
			return err
		}
		vlist, err := vn.asList()
		if err != nil {
			return err
		}
		for _, vitem := range vlist {
			vb, err := bindMap(vitem)
			if err != nil {
				return err
			}
			v := ViewSpec{Line: vitem.line}
			vnn, err := vb.need("name")
			if err != nil {
				return err
			}
			if v.Name, err = vnn.asString(); err != nil {
				return err
			}
			vsn, err := vb.need("sql")
			if err != nil {
				return err
			}
			if v.SQL, err = vsn.asString(); err != nil {
				return err
			}
			if err := vb.finish("view " + v.Name); err != nil {
				return err
			}
			m.Views = append(m.Views, v)
		}
		if len(m.Views) == 0 {
			return errAt(vn.line, "mediator %q declares no views", m.Name)
		}
		if ln := b.get("link"); ln != nil {
			lb, err := bindMap(ln)
			if err != nil {
				return err
			}
			g := func(key string, dst *clock.Time) error {
				if v := lb.get(key); v != nil {
					i, err := v.asInt()
					if err != nil {
						return err
					}
					if i < 0 {
						return errAt(v.line, "%s must be >= 0", key)
					}
					*dst = clock.Time(i)
				}
				return nil
			}
			if err := g("ann", &m.Link.Ann); err != nil {
				return err
			}
			if err := g("comm", &m.Link.Comm); err != nil {
				return err
			}
			if err := g("q_proc", &m.Link.QProc); err != nil {
				return err
			}
			if err := lb.finish("link for mediator " + m.Name); err != nil {
				return err
			}
		}
		if err := b.finish("mediator " + m.Name); err != nil {
			return err
		}
		spec.Mediators = append(spec.Mediators, m)
	}
	if len(spec.Mediators) == 0 {
		return errAt(n.line, "mediators list is empty (omit the key for a flat scenario)")
	}
	return nil
}

func bindViews(n *node, spec *Spec) error {
	list, err := n.asList()
	if err != nil {
		return err
	}
	for _, item := range list {
		b, err := bindMap(item)
		if err != nil {
			return err
		}
		v := ViewSpec{Line: item.line}
		nn, err := b.need("name")
		if err != nil {
			return err
		}
		if v.Name, err = nn.asString(); err != nil {
			return err
		}
		sn, err := b.need("sql")
		if err != nil {
			return err
		}
		if v.SQL, err = sn.asString(); err != nil {
			return err
		}
		if err := b.finish("view " + v.Name); err != nil {
			return err
		}
		spec.Views = append(spec.Views, v)
	}
	if len(spec.Views) == 0 {
		return errAt(n.line, "scenario declares no views")
	}
	return nil
}

func bindAnn(n *node) (AnnSpec, error) {
	out := AnnSpec{Line: n.line}
	b, err := bindMap(n)
	if err != nil {
		return out, err
	}
	nn, err := b.need("node")
	if err != nil {
		return out, err
	}
	if out.Node, err = nn.asString(); err != nil {
		return out, err
	}
	if mn := b.get("materialized"); mn != nil {
		if out.Materialized, err = mn.asStringList(); err != nil {
			return out, err
		}
	}
	if vn := b.get("virtual"); vn != nil {
		if out.Virtual, err = vn.asStringList(); err != nil {
			return out, err
		}
	}
	return out, b.finish("annotation for " + out.Node)
}
