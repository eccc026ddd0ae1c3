package federate

import (
	"sync"
	"testing"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
)

// The two-tier differential oracle (ISSUE acceptance criterion): a chain
//
//	db1, db2 → medA (VR, VS fully materialized) → top (T over VR ⋈ VS)
//
// must produce, at equal Reflect vectors, answers byte-identical to one
// flat mediator computing VR, VS, T over db1, db2 directly. The chained
// answer's validity vector in base coordinates is QueryResult.BaseReflect;
// the flat answer's is its plain Reflect.

const (
	oracleVR = `SELECT r1, r2 FROM R WHERE r3 < 100`
	oracleVS = `SELECT s1, s2 FROM S WHERE s3 < 50`
	oracleT  = `SELECT r1, s2 FROM VR JOIN VS ON r2 = s1`
)

func oracleSchemaR() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
}

func oracleSchemaS() *relation.Schema {
	return relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")
}

// oracleEnv is one world: a shared logical clock and two base sources that
// outlive any mediator crash.
type oracleEnv struct {
	clk *clock.Logical
	db1 *source.DB
	db2 *source.DB
	n   int
}

func newOracleEnv(t testing.TB) *oracleEnv {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	if err := db1.CreateRelation(oracleSchemaR(), relation.Set); err != nil {
		t.Fatal(err)
	}
	db2 := source.NewDB("db2", clk)
	if err := db2.CreateRelation(oracleSchemaS(), relation.Set); err != nil {
		t.Fatal(err)
	}
	return &oracleEnv{clk: clk, db1: db1, db2: db2}
}

// commitOne applies the next scripted leaf transaction: R rows join S rows
// on r2 = s1 over a small shared key space so the join is non-trivial, and
// every third row violates a tier selection so projected-away churn is
// exercised too.
func (e *oracleEnv) commitOne(t testing.TB) {
	t.Helper()
	e.n++
	d := delta.New()
	if e.n%2 == 0 {
		s3 := int64(e.n % 40)
		if e.n%6 == 0 {
			s3 = 90 // filtered by VS
		}
		d.Insert("S", relation.T(int64(e.n%8), int64(5000+e.n), s3))
		e.db2.MustApply(d)
		return
	}
	r3 := int64(e.n % 70)
	if e.n%9 == 0 {
		r3 = 150 // filtered by VR
	}
	d.Insert("R", relation.T(int64(1000+e.n), int64(e.n%8), r3))
	e.db1.MustApply(d)
}

// newTierA builds the downstream mediator (VR, VS over the base sources)
// with the staged kernel. Announcement feeds are NOT connected — a
// recovering mediator must replay with an empty queue, same discipline as
// the wal package tests.
func (e *oracleEnv) newTierA(t testing.TB) *core.Mediator {
	t.Helper()
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", oracleSchemaR()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("db2", oracleSchemaS()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("VR", oracleVR); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("VS", oracleVS); err != nil {
		t.Fatal(err)
	}
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	med, err := core.New(core.Config{VDP: plan,
		Sources: map[string]core.SourceConn{
			"db1": core.LocalSource{DB: e.db1},
			"db2": core.LocalSource{DB: e.db2},
		},
		Clock: e.clk})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

func (e *oracleEnv) connectTierA(med *core.Mediator) {
	core.ConnectLocal(med, e.db1)
	core.ConnectLocal(med, e.db2)
}

// newFlat builds the flat oracle mediator: same VR, VS plus T over them,
// directly over the base sources, staged kernel.
func (e *oracleEnv) newFlat(t testing.TB) *core.Mediator {
	t.Helper()
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", oracleSchemaR()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("db2", oracleSchemaS()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("VR", oracleVR); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("VS", oracleVS); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("T", oracleT); err != nil {
		t.Fatal(err)
	}
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	med, err := core.New(core.Config{VDP: plan,
		Sources: map[string]core.SourceConn{
			"db1": core.LocalSource{DB: e.db1},
			"db2": core.LocalSource{DB: e.db2},
		},
		Clock: e.clk})
	if err != nil {
		t.Fatal(err)
	}
	core.ConnectLocal(med, e.db1)
	core.ConnectLocal(med, e.db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return med
}

// swapConn is the upstream mediator's connection to the middle tier: a
// SourceConn + TieredConn whose inner adapter can be swapped when the
// middle tier restarts (the wire client would reconnect; locally we swap).
type swapConn struct {
	mu    sync.Mutex
	inner *Exporter
}

func (c *swapConn) get() *Exporter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner
}

func (c *swapConn) set(x *Exporter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner = x
}

func (c *swapConn) Name() string { return c.get().Name() }

func (c *swapConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	return c.get().QueryMulti(specs)
}

func (c *swapConn) QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	return c.get().QueryMultiBase(specs)
}

// newTop builds the upstream mediator: the middle tier's exports are its
// only source, T joins them.
func newTop(t testing.TB, e *oracleEnv, conn *swapConn, x *Exporter) *core.Mediator {
	t.Helper()
	b := vdp.NewBuilder()
	for _, rel := range x.Relations() {
		s, err := x.Schema(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddSource(x.Name(), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddViewSQL("T", oracleT); err != nil {
		t.Fatal(err)
	}
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top, err := core.New(core.Config{VDP: plan,
		Sources: map[string]core.SourceConn{x.Name(): conn},
		Clock:   e.clk})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func vecEqual(a, b clock.Vector) bool {
	return a.LessEq(b) && b.LessEq(a)
}

// compareTiers checks the oracle invariant after both worlds are fully
// drained: the answers are byte-identical, and — when wantVec — the
// chained answer's BaseReflect equals the flat answer's Reflect. Vector
// equality only holds once every base source's reflect component comes
// from a commit announcement both worlds processed; right after an
// initialize or a resync the components are fresh poll stamps of the same
// state, which differ on the shared clock, so those call sites pass
// wantVec=false and rely on the answer comparison alone.
func compareTiers(t *testing.T, flat, top *core.Mediator, where string, wantVec bool) {
	t.Helper()
	chained, err := top.QueryOpts("T", nil, nil, core.QueryOptions{})
	if err != nil {
		t.Fatalf("%s: chained query: %v", where, err)
	}
	ref, err := flat.QueryOpts("T", nil, nil, core.QueryOptions{})
	if err != nil {
		t.Fatalf("%s: flat query: %v", where, err)
	}
	if chained.BaseReflect == nil {
		t.Fatalf("%s: chained answer has no BaseReflect", where)
	}
	if wantVec && !vecEqual(chained.BaseReflect, ref.Reflect) {
		t.Fatalf("%s: vectors diverged without a pending delta:\nchained base %v\nflat %v",
			where, chained.BaseReflect, ref.Reflect)
	}
	got, want := chained.Answer.String(), ref.Answer.String()
	if got != want {
		t.Fatalf("%s: answers differ at equal Reflect %v:\nchained\n%s\nflat\n%s",
			where, ref.Reflect, got, want)
	}
}

// drainAll runs update transactions until every mediator in the chain and
// the flat oracle report nothing to do.
func drainAll(t *testing.T, meds ...*core.Mediator) {
	t.Helper()
	for {
		any := false
		for _, m := range meds {
			ran, err := m.RunUpdateTransaction()
			if err != nil {
				t.Fatal(err)
			}
			any = any || ran
		}
		if !any {
			return
		}
	}
}

// TestTwoTierOracle is the happy-path differential run: scripted leaf
// commits, both worlds drained after each batch, answers and vectors
// compared every round.
func TestTwoTierOracle(t *testing.T) {
	e := newOracleEnv(t)
	flat := e.newFlat(t)

	medA := e.newTierA(t)
	e.connectTierA(medA)
	x, err := New(medA, "medA")
	if err != nil {
		t.Fatal(err)
	}
	if err := medA.Initialize(); err != nil {
		t.Fatal(err)
	}
	conn := &swapConn{inner: x}
	top := newTop(t, e, conn, x)
	x.Subscribe(top.OnAnnouncement)
	if err := top.Initialize(); err != nil {
		t.Fatal(err)
	}
	compareTiers(t, flat, top, "initial", false)

	for round := 0; round < 8; round++ {
		for i := 0; i < 3; i++ {
			e.commitOne(t)
		}
		drainAll(t, medA, top, flat)
		compareTiers(t, flat, top, "round", true)
	}
}

// TestTwoTierOracleMidTierCrash kills the middle tier without warning
// mid-stream (WAL running, no Close), commits more leaf transactions while
// it is down, recovers it from the log into a fresh mediator, re-exports,
// and resyncs both hops. After convergence the chained world must again be
// byte-identical to the flat oracle that never stopped.
func TestTwoTierOracleMidTierCrash(t *testing.T) {
	dir := t.TempDir()
	e := newOracleEnv(t)
	flat := e.newFlat(t)

	medA := e.newTierA(t)
	e.connectTierA(medA)
	x, err := New(medA, "medA")
	if err != nil {
		t.Fatal(err)
	}
	if err := medA.Initialize(); err != nil {
		t.Fatal(err)
	}
	mgr, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncCommit, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(medA); err != nil {
		t.Fatal(err)
	}
	conn := &swapConn{inner: x}
	top := newTop(t, e, conn, x)
	x.Subscribe(top.OnAnnouncement)
	if err := top.Initialize(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 6; i++ {
		e.commitOne(t)
	}
	drainAll(t, medA, top, flat)
	compareTiers(t, flat, top, "pre-crash", true)

	// Power cut on the middle tier: no Close, no checkpoint. The base
	// sources and the flat oracle keep going while it is down.
	mgr.Kill()
	for i := 0; i < 4; i++ {
		e.commitOne(t)
	}
	drainAll(t, flat)

	// Recover the tier from its log into a fresh mediator, re-export,
	// reconnect announcements, and resync the base hops (the commits it
	// missed while down are a gap its log cannot fill).
	medA2 := e.newTierA(t)
	mgr2, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncCommit, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if has, err := mgr2.HasState(); err != nil || !has {
		t.Fatalf("HasState = %v, %v after crash", has, err)
	}
	info, err := mgr2.Recover(medA2)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail {
		t.Fatalf("unexpected torn tail: %+v", info)
	}
	defer mgr2.Kill()
	e.connectTierA(medA2)
	x2, err := New(medA2, "medA")
	if err != nil {
		t.Fatal(err)
	}
	x2.Subscribe(top.OnAnnouncement)
	conn.set(x2)
	for _, src := range []string{"db1", "db2"} {
		medA2.QuarantineSource(src, "tier restart")
		if err := medA2.ResyncSource(src); err != nil {
			t.Fatal(err)
		}
	}
	// The tier's resyncs published barriers, which the exporter announced
	// upstream: the top mediator must be quarantined on the tier now.
	if qs := top.QuarantinedSources(); len(qs) != 1 || qs[0] != "medA" {
		t.Fatalf("top quarantined %v, want [medA] after tier barriers", qs)
	}
	if err := top.ResyncSource("medA"); err != nil {
		t.Fatal(err)
	}
	drainAll(t, medA2, top, flat)
	compareTiers(t, flat, top, "post-recovery", false)

	// The chain is live again end to end: more leaf commits flow through
	// the recovered tier and the worlds stay identical.
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			e.commitOne(t)
		}
		drainAll(t, medA2, top, flat)
		compareTiers(t, flat, top, "post-recovery round", true)
	}
}
