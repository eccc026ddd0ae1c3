package core

import (
	"sync"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// batchingAnnouncer implements the source-side announcement policy behind
// the paper's ann_delay (§7): instead of announcing every commit
// immediately, the source accumulates commits and periodically publishes
// ONE message holding their smash — still "all the updates that reflect
// the difference between two database states in a single undividable
// message" (§4), stamped with the latest covered commit time, delivered in
// order.
//
// Wire it between a DB and its consumers:
//
//	ba := newBatchingAnnouncer(db, 10) // flush every 10 commits
//	ba.Subscribe(mediator.OnAnnouncement)
//
// Flush publishes whatever is pending (call it on a timer for time-based
// policies).
type batchingAnnouncer struct {
	db    *source.DB
	every int

	mu        sync.Mutex
	pending   *delta.Delta
	count     int
	last      clock.Time
	firstSeq  uint64
	lastSeq   uint64
	published clock.Time
	handlers  []source.Handler
}

// newBatchingAnnouncer subscribes to db and batches its announcements,
// flushing automatically after every `every` commits (0 means manual
// flushing only).
func newBatchingAnnouncer(db *source.DB, every int) *batchingAnnouncer {
	ba := &batchingAnnouncer{db: db, every: every, pending: delta.New(), published: db.Born()}
	db.Subscribe(ba.onCommit)
	return ba
}

// Subscribe registers a downstream handler for the batched announcements.
func (ba *batchingAnnouncer) Subscribe(h source.Handler) {
	ba.mu.Lock()
	defer ba.mu.Unlock()
	ba.handlers = append(ba.handlers, h)
}

func (ba *batchingAnnouncer) onCommit(a source.Announcement) {
	ba.mu.Lock()
	ba.pending.Smash(a.Delta)
	ba.count++
	ba.last = a.Time
	if ba.firstSeq == 0 {
		ba.firstSeq = a.FirstSeq
	}
	ba.lastSeq = a.Seq
	flush := ba.every > 0 && ba.count >= ba.every
	ba.mu.Unlock()
	if flush {
		ba.Flush()
	}
}

// Flush publishes the pending batch (no-op when nothing is pending).
// Smash may have annihilated everything (a row inserted and deleted within
// the batch); an empty batch still advances the announced time so the
// mediator's ref′ moves forward.
func (ba *batchingAnnouncer) Flush() {
	ba.mu.Lock()
	if ba.count == 0 {
		ba.mu.Unlock()
		return
	}
	out := source.Announcement{
		Source: ba.db.Name(), Time: ba.last, Delta: ba.pending,
		Seq: ba.lastSeq, FirstSeq: ba.firstSeq,
	}
	ba.pending = delta.New()
	ba.count = 0
	ba.firstSeq, ba.lastSeq = 0, 0
	ba.published = ba.last
	handlers := append([]source.Handler(nil), ba.handlers...)
	ba.mu.Unlock()
	for _, h := range handlers {
		h(out)
	}
}

// Pending reports how many commits await flushing.
func (ba *batchingAnnouncer) Pending() int {
	ba.mu.Lock()
	defer ba.mu.Unlock()
	return ba.count
}

// Published returns the commit time of the last flushed batch (the
// database's birth time before any flush): the state the source has made
// visible downstream.
func (ba *batchingAnnouncer) Published() clock.Time {
	ba.mu.Lock()
	defer ba.mu.Unlock()
	return ba.published
}

// publishedConn answers mediator queries from the source's PUBLISHED
// state — the last flushed batch — rather than its live state. This is
// required for correctness when announcements are batched: Eager
// Compensation assumes every commit reflected in a poll answer has already
// been announced (the in-order message assumption of §4), which live reads
// would violate for commits still sitting in the batch buffer.
// publishedConn satisfies SourceConn.
type publishedConn struct {
	DB *source.DB
	BA *batchingAnnouncer
}

// Name implements the connection interface.
func (c publishedConn) Name() string { return c.DB.Name() }

// QueryMulti answers from the published snapshot.
func (c publishedConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	return c.DB.QueryMultiAt(specs, c.BA.Published())
}

// batchedEnv wires the paper fixture through BatchingAnnouncers and
// PublishedConns (the ann_delay policy with its matching snapshot reads).
func batchedEnv(t *testing.T, annT vdp.Annotation, every int) (*testEnv, *batchingAnnouncer, *batchingAnnouncer) {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 10, 120, 100))
	r.Insert(relation.T(3, 20, 7, 100))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	ba1 := newBatchingAnnouncer(db1, every)
	ba2 := newBatchingAnnouncer(db2, every)
	plan := paperPlan(t, nil, nil, annT)
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP: plan,
		Sources: map[string]SourceConn{
			"db1": publishedConn{DB: db1, BA: ba1},
			"db2": publishedConn{DB: db2, BA: ba2},
		},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ba1.Subscribe(med.OnAnnouncement)
	ba2.Subscribe(med.OnAnnouncement)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, db1: db1, db2: db2, med: med, rec: rec, vdp_: plan}, ba1, ba2
}

func TestBatchedAnnouncementsMaterialized(t *testing.T) {
	e, ba1, _ := batchedEnv(t, nil, 0) // manual flushing
	// Three commits in one batch; two cancel each other.
	tmp := relation.T(7, 10, 1, 100)
	d1 := delta.New()
	d1.Insert("R", tmp)
	e.db1.MustApply(d1)
	d2 := delta.New()
	d2.Delete("R", tmp)
	e.db1.MustApply(d2)
	d3 := delta.New()
	d3.Insert("R", relation.T(8, 20, 9, 100))
	e.db1.MustApply(d3)
	if e.med.QueueLen() != 0 {
		t.Fatalf("nothing should arrive before the flush")
	}
	if ba1.Pending() != 3 {
		t.Fatalf("pending = %d", ba1.Pending())
	}
	ba1.Flush()
	if e.med.QueueLen() != 1 {
		t.Fatalf("one batched announcement expected, queue=%d", e.med.QueueLen())
	}
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("batched propagation diverged:\n%swant\n%s", got, truth["T"])
	}
	// The smashed batch dropped the annihilated pair: only one atom.
	if st := e.med.Stats(); st.AtomsPropagated != 1 {
		t.Errorf("smash should annihilate the insert/delete pair: atoms=%d", st.AtomsPropagated)
	}
}

func TestBatchedPublishedSnapshotECA(t *testing.T) {
	// Hybrid T with virtual S': a poll between commit and flush must see
	// the PUBLISHED state (pre-commit), not the live one — otherwise
	// compensation would miss the unannounced commit.
	e, _, ba2 := batchedEnv(t, vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}), 0)
	before := e.rec // trace shared

	d := delta.New()
	d.Delete("S", relation.T(10, 1, 20))
	d.Insert("S", relation.T(10, 77, 20))
	e.db2.MustApply(d) // committed but NOT yet announced

	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	// Published state still has s2=1 for s1=10.
	if !res.Answer.Contains(relation.T(1, 1)) || res.Answer.Contains(relation.T(1, 77)) {
		t.Fatalf("poll must see the published snapshot:\n%s", res.Answer)
	}

	// Flush + process: now the new value shows.
	ba2.Flush()
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	res2, err := e.med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Answer.Contains(relation.T(1, 77)) {
		t.Fatalf("post-flush poll must see the new value:\n%s", res2.Answer)
	}
	_ = before

	env := checker.Environment{VDP: e.vdp_, Sources: map[string]*source.DB{"db1": e.db1, "db2": e.db2}, Trace: e.rec}
	if err := env.CheckConsistency(); err != nil {
		t.Fatalf("batched run inconsistent: %v", err)
	}
}

func TestBatchedAutoFlush(t *testing.T) {
	e, _, _ := batchedEnv(t, nil, 2) // flush every 2 commits
	d1 := delta.New()
	d1.Insert("R", relation.T(7, 10, 1, 100))
	e.db1.MustApply(d1)
	if e.med.QueueLen() != 0 {
		t.Fatalf("first commit must buffer")
	}
	d2 := delta.New()
	d2.Insert("R", relation.T(8, 20, 2, 100))
	e.db1.MustApply(d2)
	if e.med.QueueLen() != 1 {
		t.Fatalf("second commit must trigger the flush, queue=%d", e.med.QueueLen())
	}
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	if got := e.med.StoreSnapshot("T"); !got.Equal(truth["T"]) {
		t.Fatalf("auto-flush propagation diverged")
	}
}

// TestHybridDifferenceExport exercises a set node with a PARTIALLY
// materialized annotation: the store holds a bag projection of the set,
// and queries for the virtual part rebuild through the VAP.
func TestHybridDifferenceExport(t *testing.T) {
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	aS := relation.MustSchema("A", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}}, "x", "y")
	bS := relation.MustSchema("B", []relation.Attribute{
		{Name: "p", Type: relation.KindInt}, {Name: "q", Type: relation.KindInt}}, "p", "q")
	a := relation.NewSet(aS)
	a.Insert(relation.T(1, 10))
	a.Insert(relation.T(2, 20))
	a.Insert(relation.T(3, 30))
	bR := relation.NewSet(bS)
	bR.Insert(relation.T(2, 20))
	db1.LoadRelation(a)
	db2.LoadRelation(bR)

	ap := relation.MustSchema("A'", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}})
	bp := relation.MustSchema("B'", []relation.Attribute{
		{Name: "p", Type: relation.KindInt}, {Name: "q", Type: relation.KindInt}})
	gS := relation.MustSchema("G", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}})
	plan, err := vdp.New(
		&vdp.Node{Name: "A", Schema: aS, Source: "db1"},
		&vdp.Node{Name: "B", Schema: bS, Source: "db2"},
		&vdp.Node{Name: "A'", Schema: ap, Ann: vdp.AllMaterialized(ap),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "A"}}, Proj: []string{"x", "y"}}},
		&vdp.Node{Name: "B'", Schema: bp, Ann: vdp.AllMaterialized(bp),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "B"}}, Proj: []string{"p", "q"}}},
		&vdp.Node{Name: "G", Schema: gS, Export: true,
			Ann: vdp.Ann([]string{"x"}, []string{"y"}), // hybrid SET node
			Def: vdp.DiffDef{
				L: vdp.Branch{Rel: "A'", Proj: []string{"x", "y"}},
				R: vdp.Branch{Rel: "B'", Proj: []string{"p", "q"}},
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	med, err := New(Config{
		VDP:      plan,
		Sources:  map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:    clk,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}

	check := func() {
		t.Helper()
		ca, _ := db1.Current("A")
		cb, _ := db2.Current("B")
		truth, err := plan.EvalAll(vdp.ResolverFromCatalog(map[string]*relation.Relation{"A": ca, "B": cb}))
		if err != nil {
			t.Fatal(err)
		}
		// Materialized projection check.
		want, err := projectSelectLocal(truth["G"], "G", []string{"x"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := med.StoreSnapshot("G"); !got.Equal(want) {
			t.Fatalf("hybrid set store diverged:\n%swant\n%s", got, want)
		}
		// Full query (touches virtual y) through the VAP.
		res, err := med.Query(algebra.SelectFrom("G", nil, nil), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := projectSelectLocal(truth["G"], "G", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answer.Equal(full) {
			t.Fatalf("hybrid set query diverged:\n%swant\n%s", res.Answer, full)
		}
	}
	check()

	// Mutations on both sides, including ones that collide on the
	// materialized projection (two A rows share x after projection).
	muts := []*delta.Delta{}
	d1 := delta.New()
	d1.Insert("A", relation.T(1, 99)) // same x=1, different y
	muts = append(muts, d1)
	d2 := delta.New()
	d2.Insert("B", relation.T(1, 10)) // kills (1,10) but not (1,99)
	muts = append(muts, d2)
	d3 := delta.New()
	d3.Delete("A", relation.T(2, 20))
	d3.Insert("B", relation.T(3, 30))
	muts = append(muts, d3)
	for i, d := range muts {
		if _, err := func() (clock.Time, error) {
			if d.Get("A") != nil && d.Get("B") != nil {
				// Split across the two sources.
				if _, err := db1.Apply(d.Filter("A")); err != nil {
					return 0, err
				}
				return db2.Apply(d.Filter("B"))
			}
			if d.Get("A") != nil {
				return db1.Apply(d)
			}
			return db2.Apply(d)
		}(); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if _, err := med.RunUpdateTransaction(); err != nil {
			t.Fatalf("mutation %d txn: %v", i, err)
		}
		check()
	}
	env := checker.Environment{VDP: plan, Sources: map[string]*source.DB{"db1": db1, "db2": db2}, Trace: rec}
	if err := env.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
