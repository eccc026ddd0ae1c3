package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []relation.Value{
		relation.Null(), relation.Bool(true), relation.Bool(false),
		relation.Int(-42), relation.Float(2.5), relation.Str("héllo\nworld"),
	}
	for _, v := range vals {
		got, err := EncodeValue(v).Decode()
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
	if _, err := (Value{K: "zzz"}).Decode(); err == nil {
		t.Errorf("bad kind should fail")
	}
}

func TestSchemaAndRelationRoundTrip(t *testing.T) {
	// A keyed bag and a set: the schema (key included) and the semantics
	// survive alongside the tuples.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindString}}, "a")
	r := relation.NewBag(s)
	r.Add(relation.T(1, "x"), 2)
	r.Add(relation.T(2, "y"), 1)
	got, err := EncodeRelation(r).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || got.Schema().String() != s.String() || got.Semantics() != relation.Bag {
		t.Errorf("relation round trip:\n%s\nvs\n%s", got, r)
	}
	set := relation.NewSet(s)
	set.Insert(relation.T(1, "x"))
	got2, err := EncodeRelation(set).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(set) || got2.Semantics() != relation.Set {
		t.Errorf("set round trip:\n%s\nvs\n%s", got2, set)
	}
	if _, err := (Schema{Name: "R", Attrs: []Attr{{Name: "a", Type: "zzz"}}}).Decode(); err == nil {
		t.Errorf("bad type should fail")
	}
}

func TestColumnarRelationRoundTrip(t *testing.T) {
	// A "mixed" column (null/bool alongside scalars) forces the boxed
	// fallback; the others specialize.
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindString},
		{Name: "c", Type: relation.KindFloat}, {Name: "d", Type: relation.KindNull}})
	// The subtest names the representation under test: the columnar
	// blocks form, the only one relations and deltas have.
	t.Run("backend=blocks", func(t *testing.T) {
		r := relation.NewBag(s)
		r.Add(relation.T(1, "x", 2.5, nil), 2)
		r.Add(relation.T(2, "y", -0.25, true), 1)
		r.Add(relation.T(-7, "z", 0.0, 3), 4)
		enc := EncodeRelation(r)
		if len(enc.Cols) != 4 || len(enc.Counts) != 3 {
			t.Fatalf("encode shape: cols=%d counts=%d", len(enc.Cols), len(enc.Counts))
		}
		if enc.Cols[0].Kind != "int" || enc.Cols[1].Kind != "string" ||
			enc.Cols[2].Kind != "float" || enc.Cols[3].Kind != "mixed" {
			t.Fatalf("column kinds = %q %q %q %q",
				enc.Cols[0].Kind, enc.Cols[1].Kind, enc.Cols[2].Kind, enc.Cols[3].Kind)
		}

		for _, in := range []*relation.Relation{r, relation.NewSet(s)} {
			got, err := EncodeRelation(in).Decode()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(in) || got.String() != in.String() ||
				got.Schema().String() != in.Schema().String() || got.Semantics() != in.Semantics() {
				t.Errorf("round trip:\n%svs\n%s", got, in)
			}
		}
	})

	// Malformed payloads are rejected, not silently truncated.
	enc := EncodeRelation(func() *relation.Relation {
		r := relation.NewBag(s)
		r.Add(relation.T(1, "x", 2.5, nil), 1)
		return r
	}())
	bad := enc
	bad.Cols = bad.Cols[:2]
	if _, err := bad.Decode(); err == nil {
		t.Errorf("arity mismatch must fail")
	}
	bad = enc
	bad.Counts = append([]int64{}, bad.Counts...)
	bad.Counts = append(bad.Counts, 9)
	if _, err := bad.Decode(); err == nil {
		t.Errorf("ragged columns must fail")
	}
}

// TestWireDecodeStrict: payloads a correct encoder never writes are
// errors, not silently reinterpreted relations or deltas.
func TestWireDecodeStrict(t *testing.T) {
	const schema = `"schema":{"name":"R","attrs":[{"name":"a","type":"int"}]}`
	cases := []struct{ name, rel, delta string }{
		{name: "negative count", rel: `{` + schema + `,"sem":"bag","cols":[{"kind":"int","i":[1]}],"counts":[-3]}`},
		{name: "zero count", rel: `{` + schema + `,"sem":"set","cols":[{"kind":"int","i":[1]}],"counts":[0]}`},
		{name: "missing sem", rel: `{` + schema + `,"cols":[{"kind":"int","i":[1]}],"counts":[1]}`},
		{name: "unknown sem", rel: `{` + schema + `,"sem":"multiset"}`},
		{name: "delta zero count", delta: `{"rels":[{"rel":"R","cols":[{"kind":"int","i":[1]}],"counts":[0]}]}`},
		{name: "delta repeats a relation", delta: `{"rels":[{"rel":"R","cols":[{"kind":"int","i":[1]}],"counts":[1]},` +
			`{"rel":"R","cols":[{"kind":"int","i":[2]}],"counts":[-1]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.rel != "" {
				var w Relation
				if err := json.Unmarshal([]byte(tc.rel), &w); err != nil {
					t.Fatal(err)
				}
				_, err = w.Decode()
			} else {
				var w Delta
				if err := json.Unmarshal([]byte(tc.delta), &w); err != nil {
					t.Fatal(err)
				}
				_, err = w.Decode()
			}
			if err == nil {
				t.Errorf("decode must fail")
			}
		})
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := delta.New()
	d.Insert("R", relation.T(1, "x"))
	d.Add("S", relation.T(9), -3)
	enc := EncodeDelta(d)
	if len(enc.Rels) != 2 || enc.Rels[0].Rel != "R" || enc.Rels[1].Rel != "S" {
		t.Fatalf("relations must be listed once each, sorted: %+v", enc.Rels)
	}
	for _, in := range []*delta.Delta{d, delta.New()} {
		got, err := EncodeDelta(in).Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(in) {
			t.Errorf("delta round trip:\n%svs\n%s", got, in)
		}
	}
}

func TestRelDeltaColumnarRoundTrip(t *testing.T) {
	// The subtest names the representation under test: the columnar
	// blocks form, the only one relations and deltas have.
	t.Run("backend=blocks", func(t *testing.T) {
		d := delta.NewRel("R")
		d.Add(relation.T(1, "x", 2.5), 2)
		d.Add(relation.T(2, "y", -0.25), -1) // deletion atoms keep their sign
		d.Add(relation.T(-7, "z", 0.0), 4)
		enc := EncodeRelDelta(d)
		if enc.Rel != "R" || len(enc.Cols) != 3 || len(enc.Counts) != 3 {
			t.Fatalf("encode shape: rel=%q cols=%d counts=%d", enc.Rel, len(enc.Cols), len(enc.Counts))
		}
		if enc.Cols[0].Kind != "int" || enc.Cols[1].Kind != "string" || enc.Cols[2].Kind != "float" {
			t.Fatalf("column kinds = %q %q %q", enc.Cols[0].Kind, enc.Cols[1].Kind, enc.Cols[2].Kind)
		}
		got, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if got.Rel() != "R" || !got.Equal(d) {
			t.Errorf("delta columnar round trip:\n%svs\n%s", got, d)
		}

		// Empty delta round-trips to an empty delta.
		empty, err := EncodeRelDelta(delta.NewRel("E")).Decode()
		if err != nil {
			t.Fatal(err)
		}
		if empty.Rel() != "E" || !empty.IsEmpty() {
			t.Errorf("empty delta round trip: rel=%q len=%d", empty.Rel(), empty.Len())
		}
	})

	// Malformed payloads are rejected, not silently misread.
	good := EncodeRelDelta(func() *delta.RelDelta {
		d := delta.NewRel("R")
		d.Add(relation.T(1, "x"), 1)
		d.Add(relation.T(2, "y"), -2)
		return d
	}())
	bad := good
	bad.Counts = bad.Counts[:1]
	if _, err := bad.Decode(); err == nil {
		t.Errorf("ragged columns must fail")
	}
	bad = good
	bad.Counts = []int64{0, 0}
	if _, err := bad.Decode(); err == nil {
		t.Errorf("zero-count atoms must fail")
	}
	bad = good
	bad.Cols = append([]Col{}, bad.Cols...)
	bad.Cols[0] = Col{Kind: "zzz", V: []Value{{K: "zzz"}, {K: "zzz"}}}
	if _, err := bad.Decode(); err == nil {
		t.Errorf("bad cell kind must fail")
	}
}

func TestExprRoundTrip(t *testing.T) {
	exprs := []algebra.Expr{
		nil,
		algebra.A("x"),
		algebra.CInt(5),
		algebra.CStr("s"),
		algebra.Eq(algebra.A("x"), algebra.CInt(1)),
		algebra.Conj(algebra.Lt(algebra.A("a"), algebra.CInt(2)), algebra.Ge(algebra.A("b"), algebra.CFloat(1.5))),
		algebra.Or{Terms: []algebra.Expr{algebra.Ne(algebra.A("a"), algebra.CInt(0))}},
		algebra.Not{Term: algebra.Gt(algebra.Add(algebra.A("a"), algebra.CInt(1)), algebra.Mul(algebra.A("b"), algebra.A("b")))},
		algebra.Le(algebra.Div(algebra.A("a"), algebra.CInt(2)), algebra.Sub(algebra.A("b"), algebra.CInt(3))),
		algebra.In{Attr: "a", Values: []relation.Value{relation.Int(3), relation.Float(1.5), relation.Null(), relation.Str("x")}},
		algebra.Conj(algebra.In{Attr: "b"}, algebra.Eq(algebra.A("a"), algebra.CInt(1))),
	}
	for _, e := range exprs {
		w, err := EncodeExpr(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		got, err := w.Decode()
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if (e == nil) != (got == nil) {
			t.Fatalf("nil handling: %v -> %v", e, got)
		}
		if e != nil && got.String() != e.String() {
			t.Errorf("expr round trip: %s -> %s", e, got)
		}
	}
	bad := []*Expr{
		{Op: "zzz"},
		{Op: "const"},
		{Op: "arith", Sub: "%"},
		{Op: "cmp", Sub: "~"},
		{Op: "in", Name: "a", Values: []Value{{K: "zzz"}}},
	}
	for _, w := range bad {
		if _, err := w.Decode(); err == nil {
			t.Errorf("decode of %+v should fail", w)
		}
	}
}

func startServer(t *testing.T) (*source.DB, *SourceServer, string, *clock.Logical) {
	t.Helper()
	clk := &clock.Logical{}
	db := source.NewDB("db1", clk)
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
	r := relation.NewSet(s)
	r.Insert(relation.T(1, 10))
	r.Insert(relation.T(2, 20))
	if err := db.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	srv := NewSourceServer(db)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv, addr, clk
}

func TestClientQueryOverTCP(t *testing.T) {
	_, _, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Name() != "db1" {
		t.Errorf("hello name = %q", c.Name())
	}
	answers, asOf, err := c.QueryMulti([]source.QuerySpec{
		{Rel: "R", Attrs: []string{"b"}, Cond: algebra.Gt(algebra.A("a"), algebra.CInt(1))},
		{Rel: "R"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if asOf == 0 || len(answers) != 2 {
		t.Fatalf("asOf=%d answers=%d", asOf, len(answers))
	}
	if answers[0].Card() != 1 || !answers[0].Contains(relation.T(20)) {
		t.Errorf("answer 0: %s", answers[0])
	}
	if answers[1].Card() != 2 {
		t.Errorf("answer 1: %s", answers[1])
	}
	// Errors propagate.
	if _, _, err := c.QueryMulti([]source.QuerySpec{{Rel: "ZZ"}}); err == nil {
		t.Errorf("remote error must propagate")
	}
}

func TestAnnouncementsBeforeAnswers(t *testing.T) {
	db, _, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var anns []source.Announcement
	c.OnAnnounce(func(a source.Announcement) { anns = append(anns, a) })

	// Commit, then query: the announcement must be delivered before the
	// answer unblocks (FIFO on one connection, handler synchronous).
	d := delta.New()
	d.Insert("R", relation.T(3, 30))
	ct := db.MustApply(d)
	answers, asOf, err := c.QueryMulti([]source.QuerySpec{{Rel: "R"}})
	if err != nil {
		t.Fatal(err)
	}
	if asOf <= ct {
		t.Fatalf("asOf %d should follow commit %d", asOf, ct)
	}
	if len(anns) != 1 || anns[0].Time != ct {
		t.Fatalf("announcement must precede the answer: %v", anns)
	}
	if answers[0].Card() != 3 {
		t.Errorf("answer: %s", answers[0])
	}
}

func TestClientApply(t *testing.T) {
	db, _, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d := delta.New()
	d.Insert("R", relation.T(9, 90))
	ct, err := c.Apply(EncodeDelta(d))
	if err != nil || ct == 0 {
		t.Fatalf("apply: %d %v", ct, err)
	}
	cur, _ := db.Current("R")
	if !cur.Contains(relation.T(9, 90)) {
		t.Errorf("remote apply missing: %s", cur)
	}
	bad := delta.New()
	bad.Insert("ZZ", relation.T(1))
	if _, err := c.Apply(EncodeDelta(bad)); err == nil {
		t.Errorf("remote apply error must propagate")
	}
}

// TestWireApplyWrongArity: an apply whose delta does not fit the target
// relation's arity gets an error reply; the server and the connection
// survive it, and the next correct apply commits.
func TestWireApplyWrongArity(t *testing.T) {
	db, _, addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := delta.New()
	bad.Insert("R", relation.T(7))
	if _, err := c.Apply(EncodeDelta(bad)); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("1-ary apply against 2-ary R = %v, want an arity error", err)
	}
	good := delta.New()
	good.Insert("R", relation.T(7, 70))
	if ct, err := c.Apply(EncodeDelta(good)); err != nil || ct == 0 {
		t.Fatalf("apply after the refused one: %d %v", ct, err)
	}
	cur, _ := db.Current("R")
	if cur.Card() != 3 || !cur.Contains(relation.T(7, 70)) {
		t.Errorf("R after the applies: %s", cur)
	}
}

// TestMediatorOverWire runs the full mediator against TCP-served sources:
// the paper's Figure 3 architecture, end to end.
func TestMediatorOverWire(t *testing.T) {
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	rs := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt}}, "r1")
	ss := relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	r := relation.NewSet(rs)
	r.Insert(relation.T(1, 10))
	r.Insert(relation.T(2, 20))
	s := relation.NewSet(ss)
	s.Insert(relation.T(10, 7))
	db1.LoadRelation(r)
	db2.LoadRelation(s)

	srv1 := NewSourceServer(db1)
	srv2 := NewSourceServer(db2)
	addr1, err := srv1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	b := vdp.NewBuilder()
	b.AddSource("db1", rs)
	b.AddSource("db2", ss)
	if err := b.AddViewSQL("V", `SELECT r1, s2 FROM R JOIN S ON r2 = s1`); err != nil {
		t.Fatal(err)
	}
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	med, err := core.New(core.Config{
		VDP:     plan,
		Sources: map[string]core.SourceConn{"db1": c1, "db2": c2},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	c1.OnAnnounce(med.OnAnnouncement)
	c2.OnAnnounce(med.OnAnnouncement)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(algebra.Scan{Rel: "V"}, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans := res.Answer
	if ans.Card() != 1 || !ans.Contains(relation.T(1, 7)) {
		t.Fatalf("initial view: %s", ans)
	}

	// Remote commit propagates through the wire into the view.
	d := delta.New()
	d.Insert("S", relation.T(20, 9))
	db2.MustApply(d)
	// Wait for the announcement to arrive.
	deadline := time.Now().Add(3 * time.Second)
	for med.QueueLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if med.QueueLen() == 0 {
		t.Fatal("announcement never arrived")
	}
	if _, err := med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	res, err = med.Query(algebra.Scan{Rel: "V"}, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ans2 := res.Answer
	if ans2.Card() != 2 || !ans2.Contains(relation.T(2, 9)) {
		t.Fatalf("view after remote commit: %s", ans2)
	}
}

func TestClientCatalog(t *testing.T) {
	db, _, addr, _ := startServer(t)
	// Add a second relation so ordering is exercised.
	extra := relation.MustSchema("Zed", []relation.Attribute{{Name: "z", Type: relation.KindString}})
	if err := db.CreateRelation(extra, relation.Bag); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	schemas, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas) != 2 || schemas[0].Name() != "R" || schemas[1].Name() != "Zed" {
		t.Fatalf("catalog = %v", schemas)
	}
	if got := schemas[0].KeyAttrs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("keys must survive the catalog: %v", got)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	_, _, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	if !r.Scan() { // hello
		t.Fatal("no hello")
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if !r.Scan() {
		t.Fatal("no error reply")
	}
	if !strings.Contains(r.Text(), "error") {
		t.Fatalf("expected error reply, got %q", r.Text())
	}
	// The connection survives: a valid request still works.
	if _, err := conn.Write([]byte(`{"type":"query","id":1,"specs":[{"rel":"R"}]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !r.Scan() || !strings.Contains(r.Text(), "answer") {
		t.Fatalf("valid request after garbage failed: %q", r.Text())
	}
	// Unknown message types get error replies too.
	if _, err := conn.Write([]byte(`{"type":"zzz","id":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !r.Scan() || !strings.Contains(r.Text(), "unknown message type") {
		t.Fatalf("unknown type reply: %q", r.Text())
	}
}

func TestClientTimeout(t *testing.T) {
	// A server that says hello and then never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte(`{"type":"hello","name":"mute","proto":2}` + "\n"))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, _, err = c.QueryMulti([]source.QuerySpec{{Rel: "R"}})
	if err == nil {
		t.Fatalf("expected timeout")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout took too long")
	}
}
