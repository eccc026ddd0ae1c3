// Package wire implements the network protocol between Squirrel mediators
// and remote source databases: newline-delimited JSON over TCP. A single
// connection carries both the mediator's snapshot queries and the source's
// update announcements, preserving the per-source FIFO ordering that the
// Eager Compensation Algorithm requires (an announcement for a commit is
// always delivered before any query answer that reflects that commit).
//
// Relations and deltas have one wire form, columnar: per-attribute
// type-specialized vectors plus a count vector (Relation, RelDeltaCols).
// Poll and query answers, announcements, apply requests and subscription
// frames use it, as do the WAL and persist checkpoints. Every server opens
// a connection with a hello carrying ProtocolVersion; clients refuse any
// other version, because JSON drops unknown keys and an old peer's payload
// would otherwise decode as silently empty.
package wire

import (
	"encoding/json"
	"fmt"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// ProtocolVersion is the version every hello carries. Version 2 made the
// columnar form the only relation and delta encoding; a hello without a
// version (0) comes from a version-1 peer, whose answers and
// announcements used a row form.
const ProtocolVersion = 2

// checkHello returns err, or an error unless m is a hello of
// ProtocolVersion.
func checkHello(m Message, err error) error {
	if err != nil {
		return err
	}
	if m.Type != "hello" {
		return fmt.Errorf("wire: expected hello, got %q", m.Type)
	}
	if m.Proto != ProtocolVersion {
		return fmt.Errorf("wire: peer %q speaks protocol version %d, this side speaks %d",
			m.Name, m.Proto, ProtocolVersion)
	}
	return nil
}

// Value is the wire form of relation.Value.
type Value struct {
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

// EncodeValue converts a value to wire form.
func EncodeValue(v relation.Value) Value {
	switch v.Kind() {
	case relation.KindNull:
		return Value{K: "null"}
	case relation.KindBool:
		return Value{K: "bool", B: v.AsBool()}
	case relation.KindInt:
		return Value{K: "int", I: v.AsInt()}
	case relation.KindFloat:
		return Value{K: "float", F: v.AsFloat()}
	case relation.KindString:
		return Value{K: "string", S: v.AsString()}
	}
	return Value{K: "null"}
}

// Decode converts a wire value back.
func (w Value) Decode() (relation.Value, error) {
	switch w.K {
	case "null":
		return relation.Null(), nil
	case "bool":
		return relation.Bool(w.B), nil
	case "int":
		return relation.Int(w.I), nil
	case "float":
		return relation.Float(w.F), nil
	case "string":
		return relation.Str(w.S), nil
	}
	return relation.Null(), fmt.Errorf("wire: unknown value kind %q", w.K)
}

// Attr is the wire form of a schema attribute.
type Attr struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Schema is the wire form of relation.Schema.
type Schema struct {
	Name  string   `json:"name"`
	Attrs []Attr   `json:"attrs"`
	Key   []string `json:"key,omitempty"`
}

var kindNames = map[relation.Kind]string{
	relation.KindNull: "null", relation.KindBool: "bool", relation.KindInt: "int",
	relation.KindFloat: "float", relation.KindString: "string",
}

var kindsByName = map[string]relation.Kind{
	"null": relation.KindNull, "bool": relation.KindBool, "int": relation.KindInt,
	"float": relation.KindFloat, "string": relation.KindString,
}

// EncodeSchema converts a schema to wire form.
func EncodeSchema(s *relation.Schema) Schema {
	out := Schema{Name: s.Name(), Key: s.KeyAttrs()}
	for _, a := range s.Attrs() {
		out.Attrs = append(out.Attrs, Attr{Name: a.Name, Type: kindNames[a.Type]})
	}
	return out
}

// Decode converts a wire schema back.
func (w Schema) Decode() (*relation.Schema, error) {
	attrs := make([]relation.Attribute, len(w.Attrs))
	for i, a := range w.Attrs {
		k, ok := kindsByName[a.Type]
		if !ok {
			return nil, fmt.Errorf("wire: unknown attribute type %q", a.Type)
		}
		attrs[i] = relation.Attribute{Name: a.Name, Type: k}
	}
	return relation.NewSchema(w.Name, attrs, w.Key...)
}

// Relation is the wire form of relation.Relation: the schema, the
// semantics ("set" or "bag"), and the tuples in columnar form — one
// type-specialized vector per attribute plus a multiplicity vector, in
// deterministic row order. Poll and query answers, subscription
// snapshots and persist checkpoints all carry relations in this one form.
type Relation struct {
	Schema Schema  `json:"schema"`
	Sem    string  `json:"sem"`
	Cols   []Col   `json:"cols,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// Col is one column of the columnar relation encoding: a type-specialized
// vector when every value in the column shares one scalar kind, else
// boxed values. Values at index i across all columns plus Counts[i] form
// one row.
type Col struct {
	Kind string    `json:"kind"` // int, float, string, mixed
	I    []int64   `json:"i,omitempty"`
	F    []float64 `json:"f,omitempty"`
	S    []string  `json:"s,omitempty"`
	V    []Value   `json:"v,omitempty"`
}

// EncodeRelation converts a relation to wire form (deterministic row
// order). Each specialized column round-trips as a bare JSON array, so
// the form is both small and cheap to decode.
func EncodeRelation(r *relation.Relation) Relation {
	out := Relation{Schema: EncodeSchema(r.Schema()), Sem: r.Semantics().String()}
	out.Cols, out.Counts = encodeCols(r.Rows(), r.Schema().Arity())
	return out
}

// encodeCols renders rows (tuples of uniform arity plus signed counts) as
// type-specialized column vectors: the shared core of the relation and
// delta encodings. Empty input yields nil/nil.
func encodeCols(rows []relation.Row, arity int) ([]Col, []int64) {
	if len(rows) == 0 {
		return nil, nil
	}
	counts := make([]int64, len(rows))
	for i, row := range rows {
		counts[i] = int64(row.Count)
	}
	cols := make([]Col, arity)
	for j := 0; j < arity; j++ {
		kind := rows[0].Tuple[j].Kind()
		for _, row := range rows[1:] {
			if row.Tuple[j].Kind() != kind {
				kind = relation.KindNull // sentinel: mixed
				break
			}
		}
		c := &cols[j]
		switch kind {
		case relation.KindInt:
			c.Kind = "int"
			c.I = make([]int64, len(rows))
			for i, row := range rows {
				c.I[i] = row.Tuple[j].AsInt()
			}
		case relation.KindFloat:
			c.Kind = "float"
			c.F = make([]float64, len(rows))
			for i, row := range rows {
				c.F[i] = row.Tuple[j].AsFloat()
			}
		case relation.KindString:
			c.Kind = "string"
			c.S = make([]string, len(rows))
			for i, row := range rows {
				c.S[i] = row.Tuple[j].AsString()
			}
		default: // mixed, bool, null: boxed fallback
			c.Kind = "mixed"
			c.V = make([]Value, len(rows))
			for i, row := range rows {
				c.V[i] = EncodeValue(row.Tuple[j])
			}
		}
	}
	return cols, counts
}

// decodeCols validates column/count agreement and streams each decoded
// (tuple, count) row to add. No columns and no counts is the empty
// relation. arity < 0 skips the arity check (the delta form carries no
// schema, so the column count is the arity).
func decodeCols(cols []Col, counts []int64, arity int, add func(t relation.Tuple, n int) error) error {
	if len(cols) == 0 && len(counts) == 0 {
		return nil
	}
	if arity >= 0 && len(cols) != arity {
		return fmt.Errorf("wire: columnar relation has %d columns, schema arity %d", len(cols), arity)
	}
	for j := range cols {
		if n := cols[j].length(); n != len(counts) {
			return fmt.Errorf("wire: column %d has %d values, want %d", j, n, len(counts))
		}
	}
	t := make(relation.Tuple, len(cols))
	for i := range counts {
		for j := range cols {
			dv, err := cols[j].colValue(i)
			if err != nil {
				return err
			}
			t[j] = dv
		}
		if err := add(t, int(counts[i])); err != nil {
			return err
		}
	}
	return nil
}

// RelDeltaCols is the wire form of one relation's delta
// (delta.RelDelta): type-specialized column vectors plus a SIGNED count
// vector (positive = insertion atoms, negative = deletion atoms), in the
// delta's deterministic row order. Announcements, apply requests,
// subscription frames and the write-ahead delta log (internal/wal) all
// carry deltas in this form.
type RelDeltaCols struct {
	Rel    string  `json:"rel"`
	Cols   []Col   `json:"cols,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// EncodeRelDelta converts a relation delta to wire form.
func EncodeRelDelta(d *delta.RelDelta) RelDeltaCols {
	out := RelDeltaCols{Rel: d.Rel()}
	rows := d.Rows()
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0].Tuple)
	}
	out.Cols, out.Counts = encodeCols(rows, arity)
	return out
}

// Decode converts a wire relation delta back.
func (w RelDeltaCols) Decode() (*delta.RelDelta, error) {
	out := delta.NewRel(w.Rel)
	err := decodeCols(w.Cols, w.Counts, -1, func(t relation.Tuple, n int) error {
		if n == 0 {
			return fmt.Errorf("wire: delta %q carries a zero-count tuple", w.Rel)
		}
		out.Add(t, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// colValue decodes one cell of a columnar-encoded relation.
func (c *Col) colValue(i int) (relation.Value, error) {
	switch c.Kind {
	case "int":
		return relation.Int(c.I[i]), nil
	case "float":
		return relation.Float(c.F[i]), nil
	case "string":
		return relation.Str(c.S[i]), nil
	case "mixed":
		return c.V[i].Decode()
	}
	return relation.Null(), fmt.Errorf("wire: unknown column kind %q", c.Kind)
}

func (c *Col) length() int {
	switch c.Kind {
	case "int":
		return len(c.I)
	case "float":
		return len(c.F)
	case "string":
		return len(c.S)
	}
	return len(c.V)
}

// Decode converts a wire relation back. Every count must be positive and
// the semantics must be "set" or "bag".
func (w Relation) Decode() (*relation.Relation, error) {
	schema, err := w.Schema.Decode()
	if err != nil {
		return nil, err
	}
	var sem relation.Semantics
	switch w.Sem {
	case "set":
		sem = relation.Set
	case "bag":
		sem = relation.Bag
	default:
		return nil, fmt.Errorf("wire: relation %q has unknown semantics %q", w.Schema.Name, w.Sem)
	}
	out := relation.New(schema, sem)
	err = decodeCols(w.Cols, w.Counts, schema.Arity(), func(t relation.Tuple, n int) error {
		if n <= 0 {
			return fmt.Errorf("wire: relation %q carries count %d", w.Schema.Name, n)
		}
		out.Add(t, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delta is the wire form of delta.Delta: one RelDeltaCols per relation
// with atoms, in sorted relation order.
type Delta struct {
	Rels []RelDeltaCols `json:"rels,omitempty"`
}

// EncodeDelta converts a delta to wire form.
func EncodeDelta(d *delta.Delta) Delta {
	var out Delta
	for _, rel := range d.Relations() {
		out.Rels = append(out.Rels, EncodeRelDelta(d.Get(rel)))
	}
	return out
}

// Decode converts a wire delta back. A relation may appear only once.
func (w Delta) Decode() (*delta.Delta, error) {
	out := delta.New()
	for _, wr := range w.Rels {
		if out.Get(wr.Rel) != nil {
			return nil, fmt.Errorf("wire: delta lists relation %q twice", wr.Rel)
		}
		rd, err := wr.Decode()
		if err != nil {
			return nil, err
		}
		out.Put(rd)
	}
	return out, nil
}

// Expr is the wire form of algebra.Expr — a tagged union.
type Expr struct {
	Op     string  `json:"op"` // attr, const, arith, cmp, and, or, not, in
	Name   string  `json:"name,omitempty"`
	Value  *Value  `json:"value,omitempty"`
	Sub    string  `json:"sub,omitempty"` // arith/cmp operator symbol
	L      *Expr   `json:"l,omitempty"`
	R      *Expr   `json:"r,omitempty"`
	Terms  []*Expr `json:"terms,omitempty"`
	Values []Value `json:"values,omitempty"` // in: the member list
}

var arithBySymbol = map[string]algebra.ArithOp{
	"+": algebra.OpAdd, "-": algebra.OpSub, "*": algebra.OpMul, "/": algebra.OpDiv,
}

var cmpBySymbol = map[string]algebra.CmpOp{
	"=": algebra.OpEq, "<>": algebra.OpNe, "<": algebra.OpLt,
	"<=": algebra.OpLe, ">": algebra.OpGt, ">=": algebra.OpGe,
}

// EncodeExpr converts an expression to wire form (nil stays nil). An
// expression type the wire form cannot carry is an error: dropping the
// node would widen the predicate the receiver evaluates.
func EncodeExpr(e algebra.Expr) (*Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case algebra.Attr:
		return &Expr{Op: "attr", Name: x.Name}, nil
	case algebra.Const:
		v := EncodeValue(x.Value)
		return &Expr{Op: "const", Value: &v}, nil
	case algebra.Arith:
		return encodeBinary("arith", x.Op.String(), x.L, x.R)
	case algebra.Cmp:
		return encodeBinary("cmp", x.Op.String(), x.L, x.R)
	case algebra.And:
		return encodeTerms("and", x.Terms)
	case algebra.Or:
		return encodeTerms("or", x.Terms)
	case algebra.Not:
		t, err := encodeOperand(x.Term)
		if err != nil {
			return nil, err
		}
		return &Expr{Op: "not", L: t}, nil
	case algebra.In:
		out := &Expr{Op: "in", Name: x.Attr, Values: make([]Value, len(x.Values))}
		for i, v := range x.Values {
			out.Values[i] = EncodeValue(v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("wire: cannot encode expression type %T", e)
}

// encodeOperand encodes a required operand: nil is an error there, not
// TRUE.
func encodeOperand(e algebra.Expr) (*Expr, error) {
	if e == nil {
		return nil, fmt.Errorf("wire: missing operand")
	}
	return EncodeExpr(e)
}

func encodeBinary(op, sub string, l, r algebra.Expr) (*Expr, error) {
	we, err := encodeOperand(l)
	if err != nil {
		return nil, err
	}
	wr, err := encodeOperand(r)
	if err != nil {
		return nil, err
	}
	return &Expr{Op: op, Sub: sub, L: we, R: wr}, nil
}

func encodeTerms(op string, terms []algebra.Expr) (*Expr, error) {
	out := &Expr{Op: op}
	for _, t := range terms {
		wt, err := encodeOperand(t)
		if err != nil {
			return nil, err
		}
		out.Terms = append(out.Terms, wt)
	}
	return out, nil
}

// Decode converts a wire expression back (nil stays nil). Every operand
// an operator needs must be present: a missing one is an error, never a
// nil the evaluator would trip over.
func (w *Expr) Decode() (algebra.Expr, error) {
	if w == nil {
		return nil, nil
	}
	switch w.Op {
	case "attr":
		return algebra.Attr{Name: w.Name}, nil
	case "const":
		if w.Value == nil {
			return nil, fmt.Errorf("wire: const without value")
		}
		v, err := w.Value.Decode()
		if err != nil {
			return nil, err
		}
		return algebra.Const{Value: v}, nil
	case "arith":
		op, ok := arithBySymbol[w.Sub]
		if !ok {
			return nil, fmt.Errorf("wire: unknown arith op %q", w.Sub)
		}
		l, r, err := w.decodeBinary()
		if err != nil {
			return nil, err
		}
		return algebra.Arith{Op: op, L: l, R: r}, nil
	case "cmp":
		op, ok := cmpBySymbol[w.Sub]
		if !ok {
			return nil, fmt.Errorf("wire: unknown cmp op %q", w.Sub)
		}
		l, r, err := w.decodeBinary()
		if err != nil {
			return nil, err
		}
		return algebra.Cmp{Op: op, L: l, R: r}, nil
	case "and", "or":
		terms := make([]algebra.Expr, len(w.Terms))
		for i, t := range w.Terms {
			d, err := t.decodeOperand(w.Op)
			if err != nil {
				return nil, err
			}
			terms[i] = d
		}
		if w.Op == "and" {
			return algebra.And{Terms: terms}, nil
		}
		return algebra.Or{Terms: terms}, nil
	case "not":
		l, err := w.L.decodeOperand("not")
		if err != nil {
			return nil, err
		}
		return algebra.Not{Term: l}, nil
	case "in":
		vals := make([]relation.Value, len(w.Values))
		for i, wv := range w.Values {
			v, err := wv.Decode()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return algebra.In{Attr: w.Name, Values: vals}, nil
	}
	return nil, fmt.Errorf("wire: unknown expression op %q", w.Op)
}

// decodeOperand decodes an operand of op, which must be present.
func (w *Expr) decodeOperand(op string) (algebra.Expr, error) {
	if w == nil {
		return nil, fmt.Errorf("wire: %s with a missing operand", op)
	}
	return w.Decode()
}

func (w *Expr) decodeBinary() (l, r algebra.Expr, err error) {
	if l, err = w.L.decodeOperand(w.Op); err != nil {
		return nil, nil, err
	}
	if r, err = w.R.decodeOperand(w.Op); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// QuerySpec is the wire form of source.QuerySpec.
type QuerySpec struct {
	Rel   string   `json:"rel"`
	Attrs []string `json:"attrs,omitempty"`
	Cond  *Expr    `json:"cond,omitempty"`
}

// EncodeSpec converts a query spec.
func EncodeSpec(s source.QuerySpec) (QuerySpec, error) {
	cond, err := EncodeExpr(s.Cond)
	if err != nil {
		return QuerySpec{}, err
	}
	return QuerySpec{Rel: s.Rel, Attrs: s.Attrs, Cond: cond}, nil
}

// Decode converts a wire spec back.
func (w QuerySpec) Decode() (source.QuerySpec, error) {
	cond, err := w.Cond.Decode()
	if err != nil {
		return source.QuerySpec{}, err
	}
	return source.QuerySpec{Rel: w.Rel, Attrs: w.Attrs, Cond: cond}, nil
}

// Message is the protocol envelope. Exactly one payload field is set,
// according to Type.
type Message struct {
	Type string `json:"type"`
	ID   uint64 `json:"id,omitempty"`

	// type "query": a batched snapshot read.
	Specs []QuerySpec `json:"specs,omitempty"`
	// type "answer".
	AsOf    clock.Time `json:"asof,omitempty"`
	Answers []Relation `json:"answers,omitempty"`
	// type "announce".
	Source string     `json:"source,omitempty"`
	Time   clock.Time `json:"time,omitempty"`
	Delta  *Delta     `json:"delta,omitempty"`
	// type "announce": dense per-source sequence numbers for mediator-side
	// gap detection (source.Announcement semantics; 0 = sender does not
	// number its announcements, which disables detection).
	Seq      uint64 `json:"seq,omitempty"`
	FirstSeq uint64 `json:"fseq,omitempty"`
	// type "announce", from a federated tier: the barrier reason. A
	// barrier announcement carries no delta — it reports a downstream
	// publish (resync, re-annotation) whose state no delta stream
	// reconstructs, and quarantines the consumer into a snapshot resync
	// (source.Announcement.Barrier semantics).
	Barrier string `json:"barrier,omitempty"`
	// type "medquery": degradation policy ("" / "failfast" / "stale") and
	// the client's maximum tolerable staleness bound (0 = unbounded).
	Degrade  string     `json:"degrade,omitempty"`
	MaxStale clock.Time `json:"maxstale,omitempty"`
	// type "answer" to "medquery": set when the answer was served from
	// cached data for the listed sources (per-source staleness bounds).
	Degraded  bool         `json:"degraded,omitempty"`
	Staleness clock.Vector `json:"staleness,omitempty"`
	// type "answer" to "medquery"/"medversion": the published store
	// version the answer was computed against.
	Version uint64 `json:"version,omitempty"`
	// type "error".
	Error string `json:"error,omitempty"`
	// type "hello": server identifies itself and its ProtocolVersion.
	Name  string `json:"name,omitempty"`
	Proto int    `json:"proto,omitempty"`
	// type "catalog" (reply): the source's relation schemas.
	Schemas []Schema `json:"schemas,omitempty"`
	// type "answer" to "medstats": the mediator's operation counters and
	// per-source health (core.Stats marshals as plain JSON).
	Stats *StatsPayload `json:"stats,omitempty"`
	// type "medevents": cap on the number of returned events (0 = server
	// default).
	Limit int `json:"limit,omitempty"`
	// type "answer" to "medmetrics": a full instrument snapshot.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// type "answer" to "medevents": the retained events, oldest first,
	// plus the total ever emitted (retained or evicted).
	Events      []metrics.Event `json:"events,omitempty"`
	EventsTotal uint64          `json:"events_total,omitempty"`
	// type "readvise": when set, the advisor only reports what it would
	// change — no re-annotation runs.
	DryRun bool `json:"dryrun,omitempty"`
	// type "answer" to "readvise": the advisor round's decision — observed
	// profile, proposed/applied flips, and justifications.
	Advice *AdvicePayload `json:"advice,omitempty"`
	// type "subscribe"/"unsubscribe": the view export to stream (must be a
	// fully materialized export of the mediator's current plan).
	Export string `json:"export,omitempty"`
	// type "subscribe": resume after this committed store version (0 = start
	// with a snapshot of the current version). MaxQueue/MaxLag mirror
	// core.SubscribeOptions (0 = server defaults / unbounded lag).
	FromVersion uint64     `json:"fromversion,omitempty"`
	MaxQueue    int        `json:"maxqueue,omitempty"`
	MaxLag      clock.Time `json:"maxlag,omitempty"`
	// type "frame": one subscription stream element. FrameKind is
	// "snapshot" (Snapshot holds the export's relation at version Version)
	// or "delta" (FrameDelta covers versions (First-1, Version]); Version,
	// Time, and Reflect carry the committed version's sequence number,
	// commit stamp, and Reflect vector; Coalesced counts extra commits
	// folded in under backpressure.
	//
	// Reflect is shared with two other message types: on "announce" from a
	// federated tier it is the announced version's ref′ vector in
	// base-source coordinates, and on an "answer" from a tiered backend it
	// is the answered version's (both source.Announcement.Reflect /
	// TieredBackend semantics — what lets the consuming mediator compose
	// validity vectors across hops, DESIGN.md §11).
	FrameKind  string        `json:"framekind,omitempty"`
	First      uint64        `json:"first,omitempty"`
	Reflect    clock.Vector  `json:"reflect,omitempty"`
	Snapshot   *Relation     `json:"snapshot,omitempty"`
	FrameDelta *RelDeltaCols `json:"framedelta,omitempty"`
	Coalesced  int           `json:"coalesced,omitempty"`
}

// EncodeSubFrame converts a core subscription frame to its wire form.
func EncodeSubFrame(f core.SubFrame) Message {
	m := Message{
		Type: "frame", Export: f.Export, FrameKind: f.Kind.String(),
		First: f.First, Version: f.Version,
		Time: f.Stamp, Reflect: f.Reflect, Coalesced: f.Coalesced,
	}
	if f.Snapshot != nil {
		snap := EncodeRelation(f.Snapshot)
		m.Snapshot = &snap
	}
	if f.Delta != nil {
		d := EncodeRelDelta(f.Delta)
		m.FrameDelta = &d
	}
	return m
}

// DecodeSubFrame converts a wire "frame" message back to a core frame.
func DecodeSubFrame(m Message) (core.SubFrame, error) {
	f := core.SubFrame{
		Export: m.Export, First: m.First, Version: m.Version,
		Stamp: m.Time, Reflect: m.Reflect, Coalesced: m.Coalesced,
	}
	switch m.FrameKind {
	case "snapshot":
		f.Kind = core.SubSnapshot
		if m.Snapshot == nil {
			return core.SubFrame{}, fmt.Errorf("wire: snapshot frame without relation")
		}
		rel, err := m.Snapshot.Decode()
		if err != nil {
			return core.SubFrame{}, err
		}
		f.Snapshot = rel
	case "delta":
		f.Kind = core.SubDelta
		if m.FrameDelta == nil {
			return core.SubFrame{}, fmt.Errorf("wire: delta frame without delta")
		}
		d, err := m.FrameDelta.Decode()
		if err != nil {
			return core.SubFrame{}, err
		}
		f.Delta = d
	default:
		return core.SubFrame{}, fmt.Errorf("wire: unknown frame kind %q", m.FrameKind)
	}
	return f, nil
}

// encode marshals a message plus newline.
func encode(m Message) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
