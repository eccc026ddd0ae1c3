package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// triEnv wires three sources behind one chaos injector: A(ka,av)@dbA,
// B(kb,bv)@dbB, C(kc,cv)@dbC, AB = A ⋈_{ka=kb} B, V = AB ⋈_{ka=kc} C.
// The join keys are materialized and every value attribute is virtual, so
// a query touching values polls all three sources — and each source is a
// hybrid contributor (announces AND is polled), the configuration where
// degraded answers stay provably exact at their Reflect vector.
type triEnv struct {
	clk *clock.Logical
	dbs map[string]*source.DB
	inj *resilience.Injector
	med *Mediator
	v   *vdp.VDP

	mu      sync.Mutex
	swallow map[string]int // announcements to drop, per source
}

var triAttrs = []string{"ka", "av", "bv", "cv"}

func newTriEnv(t testing.TB) *triEnv {
	t.Helper()
	clk := &clock.Logical{}
	aSchema := relation.MustSchema("A", []relation.Attribute{
		{Name: "ka", Type: relation.KindInt}, {Name: "av", Type: relation.KindInt}}, "ka")
	bSchema := relation.MustSchema("B", []relation.Attribute{
		{Name: "kb", Type: relation.KindInt}, {Name: "bv", Type: relation.KindInt}}, "kb")
	cSchema := relation.MustSchema("C", []relation.Attribute{
		{Name: "kc", Type: relation.KindInt}, {Name: "cv", Type: relation.KindInt}}, "kc")
	abSchema := relation.MustSchema("AB", []relation.Attribute{
		{Name: "ka", Type: relation.KindInt}, {Name: "av", Type: relation.KindInt},
		{Name: "bv", Type: relation.KindInt}}, "ka")
	vSchema := relation.MustSchema("V", []relation.Attribute{
		{Name: "ka", Type: relation.KindInt}, {Name: "av", Type: relation.KindInt},
		{Name: "bv", Type: relation.KindInt}, {Name: "cv", Type: relation.KindInt}}, "ka")

	e := &triEnv{
		clk:     clk,
		dbs:     map[string]*source.DB{},
		inj:     resilience.NewInjector(7),
		swallow: map[string]int{},
	}
	load := func(name string, schema *relation.Schema, rows ...relation.Tuple) *source.DB {
		db := source.NewDB(name, clk)
		r := relation.NewSet(schema)
		for _, row := range rows {
			r.Insert(row)
		}
		if err := db.LoadRelation(r); err != nil {
			t.Fatal(err)
		}
		e.dbs[name] = db
		return db
	}
	load("dbA", aSchema, relation.T(1, 10), relation.T(2, 20), relation.T(3, 30))
	load("dbB", bSchema, relation.T(1, 100), relation.T(2, 200), relation.T(3, 300))
	load("dbC", cSchema, relation.T(1, 1000), relation.T(2, 2000), relation.T(3, 3000))

	apSchema := relation.MustSchema("A'", []relation.Attribute{
		{Name: "ka", Type: relation.KindInt}, {Name: "av", Type: relation.KindInt}}, "ka")
	bpSchema := relation.MustSchema("B'", []relation.Attribute{
		{Name: "kb", Type: relation.KindInt}, {Name: "bv", Type: relation.KindInt}}, "kb")
	cpSchema := relation.MustSchema("C'", []relation.Attribute{
		{Name: "kc", Type: relation.KindInt}, {Name: "cv", Type: relation.KindInt}}, "kc")
	v, err := vdp.New(
		&vdp.Node{Name: "A", Schema: aSchema, Source: "dbA"},
		&vdp.Node{Name: "B", Schema: bSchema, Source: "dbB"},
		&vdp.Node{Name: "C", Schema: cSchema, Source: "dbC"},
		&vdp.Node{Name: "A'", Schema: apSchema,
			Ann: vdp.Ann([]string{"ka"}, []string{"av"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "A"}}, Proj: []string{"ka", "av"}}},
		&vdp.Node{Name: "B'", Schema: bpSchema,
			Ann: vdp.Ann([]string{"kb"}, []string{"bv"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "B"}}, Proj: []string{"kb", "bv"}}},
		&vdp.Node{Name: "C'", Schema: cpSchema,
			Ann: vdp.Ann([]string{"kc"}, []string{"cv"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "C"}}, Proj: []string{"kc", "cv"}}},
		&vdp.Node{Name: "AB", Schema: abSchema,
			Ann: vdp.Ann([]string{"ka"}, []string{"av", "bv"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "A'"}, {Rel: "B'"}},
				JoinCond: algebra.Eq(algebra.A("ka"), algebra.A("kb")),
				Proj:     []string{"ka", "av", "bv"}}},
		&vdp.Node{Name: "V", Schema: vSchema, Export: true,
			Ann: vdp.Ann([]string{"ka"}, []string{"av", "bv", "cv"}),
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "AB"}, {Rel: "C'"}},
				JoinCond: algebra.Eq(algebra.A("ka"), algebra.A("kc")),
				Proj:     []string{"ka", "av", "bv", "cv"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	e.v = v

	conns := map[string]SourceConn{}
	for name, db := range e.dbs {
		conns[name] = resilience.WrapSource(LocalSource{DB: db}, e.inj)
	}
	med, err := New(Config{
		VDP: v, Sources: conns, Clock: clk, Recorder: trace.NewRecorder(),
		Resilience: ResilienceConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
			Seed:  7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.med = med
	// Announcement feed with a per-source drop filter, so tests can lose
	// announcements on purpose and force gap detection.
	for name, db := range e.dbs {
		_ = name
		db.Subscribe(func(a source.Announcement) {
			e.mu.Lock()
			drop := e.swallow[a.Source] > 0
			if drop {
				e.swallow[a.Source]--
			}
			e.mu.Unlock()
			if !drop {
				med.OnAnnouncement(a)
			}
		})
	}
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return e
}

// dropAnnouncements makes the next n announcements from src vanish before
// reaching the mediator (a lossy channel / crashed subscription).
func (e *triEnv) dropAnnouncements(src string, n int) {
	e.mu.Lock()
	e.swallow[src] = n
	e.mu.Unlock()
}

func (e *triEnv) drain(t testing.TB) {
	t.Helper()
	for {
		ran, err := e.med.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			return
		}
	}
}

// truth evaluates the full view from the current source states.
func (e *triEnv) truth(t testing.TB) *relation.Relation {
	t.Helper()
	leaves := map[string]*relation.Relation{}
	for _, leaf := range []string{"A", "B", "C"} {
		st, err := e.dbs[e.v.Node(leaf).Source].Current(leaf)
		if err != nil {
			t.Fatal(err)
		}
		leaves[leaf] = st
	}
	states, err := e.v.EvalAll(vdp.ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	return states["V"]
}

// truthAt evaluates the view from the historical leaf states named by a
// query's Reflect vector — the per-query validity oracle.
func (e *triEnv) truthAt(t testing.TB, reflect clock.Vector) *relation.Relation {
	t.Helper()
	leaves := map[string]*relation.Relation{}
	for _, leaf := range []string{"A", "B", "C"} {
		src := e.v.Node(leaf).Source
		st, err := e.dbs[src].StateAt(leaf, reflect[src])
		if err != nil {
			t.Fatal(err)
		}
		leaves[leaf] = st
	}
	states, err := e.v.EvalAll(vdp.ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	return states["V"]
}

func (e *triEnv) query(opts QueryOptions) (*QueryResult, error) {
	opts.KeyBased = KeyBasedOff
	return e.med.Query(algebra.SelectFrom("V", triAttrs, nil), opts)
}

func TestServeStaleWhenSourceDown(t *testing.T) {
	e := newTriEnv(t)

	// Warm the poll cache with a healthy query.
	fresh, err := e.query(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded || len(fresh.Staleness) != 0 {
		t.Fatalf("healthy query flagged degraded: %+v", fresh)
	}

	// dbC goes hard-down.
	e.inj.SetDown("dbC", true)

	// FailFast: the error names the failed source.
	if _, err := e.query(QueryOptions{Degrade: FailFast}); err == nil {
		t.Fatal("fail-fast query with dbC down must error")
	} else if !strings.Contains(err.Error(), "dbC") {
		t.Fatalf("error should name the down source: %v", err)
	}

	// ServeStale: answered from the cached dbC poll, stamped with a
	// staleness bound for dbC only.
	res, err := e.query(QueryOptions{Degrade: ServeStale})
	if err != nil {
		t.Fatalf("serve-stale query: %v", err)
	}
	if !res.Degraded {
		t.Fatal("answer must be flagged degraded")
	}
	if len(res.Staleness) != 1 || res.Staleness["dbC"] < 1 {
		t.Fatalf("staleness must bound dbC only: %v", res.Staleness)
	}
	if !res.Answer.Equal(fresh.Answer) {
		t.Fatalf("nothing changed; degraded answer must equal fresh answer:\n%vvs\n%v",
			res.Answer, fresh.Answer)
	}

	// The world moves on without dbC: a dbA commit widens the bound but
	// the degraded answer stays exact at its Reflect vector.
	d := delta.New()
	d.Insert("A", relation.T(4, 40))
	e.dbs["dbA"].MustApply(d)

	res2, err := e.query(QueryOptions{Degrade: ServeStale})
	if err != nil {
		t.Fatalf("serve-stale after dbA commit: %v", err)
	}
	if res2.Staleness["dbC"] < res.Staleness["dbC"] {
		t.Fatalf("bound must not shrink while dbC stays down: %v then %v",
			res.Staleness, res2.Staleness)
	}
	if want := e.truthAt(t, res2.Reflect); !res2.Answer.Equal(want) {
		t.Fatalf("degraded answer diverged from state at Reflect %v:\n%vwant\n%v",
			res2.Reflect, res2.Answer, want)
	}
	if res2.Reflect["dbC"] < res2.Committed-res2.Staleness["dbC"] {
		t.Fatalf("staleness bound violated: reflect=%d committed=%d bound=%d",
			res2.Reflect["dbC"], res2.Committed, res2.Staleness["dbC"])
	}

	// A tight f̄ refuses the answer instead of silently serving it.
	if _, err := e.query(QueryOptions{Degrade: ServeStale, MaxStaleness: 1}); err == nil {
		t.Fatal("bound 1 must refuse the now-stale answer")
	} else if !strings.Contains(err.Error(), "max staleness") {
		t.Fatalf("refusal should cite the bound: %v", err)
	}

	// Recovery: fail-fast works again and nothing stays flagged.
	e.inj.SetDown("dbC", false)
	res3, err := e.query(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Degraded {
		t.Fatal("healthy query flagged degraded after recovery")
	}

	st := e.med.Stats()
	if st.PollFailures == 0 || st.DegradedQueries < 2 {
		t.Fatalf("counters: pollFailures=%d degraded=%d", st.PollFailures, st.DegradedQueries)
	}

	if want := e.truthAt(t, res3.Reflect); !res3.Answer.Equal(want) {
		t.Fatalf("post-recovery answer diverged at Reflect %v:\n%vwant\n%v",
			res3.Reflect, res3.Answer, want)
	}
	e.drain(t)
}

func TestServeStaleNeedsCache(t *testing.T) {
	e := newTriEnv(t)
	// No query has warmed the cache; Initialize's poll answers are not
	// query-shaped. Down source + no cache = explicit refusal.
	e.inj.SetDown("dbC", true)
	if _, err := e.query(QueryOptions{Degrade: ServeStale}); err == nil {
		t.Fatal("serve-stale without a cached answer must error")
	} else if !strings.Contains(err.Error(), "no cached answer") {
		t.Fatalf("refusal should explain the missing cache: %v", err)
	}
}

func TestAnnouncementGapQuarantineAndResync(t *testing.T) {
	e := newTriEnv(t)

	// A processed dbB transaction, then a re-warmed cache: the degraded
	// path must stay valid relative to the CURRENT materialized state.
	d := delta.New()
	d.Delete("B", relation.T(1, 100))
	d.Insert("B", relation.T(1, 101))
	e.dbs["dbB"].MustApply(d)
	e.drain(t)
	if _, err := e.query(QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	// tx2's announcement is lost; tx3's arrival reveals the sequence gap.
	e.dropAnnouncements("dbB", 1)
	d2 := delta.New()
	d2.Delete("B", relation.T(2, 200))
	d2.Insert("B", relation.T(2, 222))
	e.dbs["dbB"].MustApply(d2)
	d3 := delta.New()
	d3.Delete("B", relation.T(3, 300))
	d3.Insert("B", relation.T(3, 333))
	e.dbs["dbB"].MustApply(d3)

	qs := e.med.QuarantinedSources()
	if len(qs) != 1 || qs[0] != "dbB" {
		t.Fatalf("dbB must be quarantined after the gap: %v", qs)
	}
	st := e.med.Stats()
	if st.GapsDetected < 1 {
		t.Fatalf("gapsDetected=%d", st.GapsDetected)
	}
	h := st.Sources["dbB"]
	if h.Quarantined == "" || !strings.Contains(h.Quarantined, "gap") {
		t.Fatalf("health should carry the gap reason: %+v", h)
	}
	if h.PennedAnnouncements != 1 {
		t.Fatalf("tx3 should be penned: %d", h.PennedAnnouncements)
	}

	// Quarantine blocks fresh polls of dbB...
	if _, err := e.query(QueryOptions{}); err == nil {
		t.Fatal("fail-fast query must refuse a quarantined source")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("error should say quarantined: %v", err)
	}
	// ...but ServeStale still answers, exactly at its Reflect vector.
	res, err := e.query(QueryOptions{Degrade: ServeStale})
	if err != nil {
		t.Fatalf("serve-stale during quarantine: %v", err)
	}
	if len(res.Staleness) != 1 || res.Staleness["dbB"] < 1 {
		t.Fatalf("staleness must bound dbB only: %v", res.Staleness)
	}
	if want := e.truthAt(t, res.Reflect); !res.Answer.Equal(want) {
		t.Fatalf("degraded answer diverged at Reflect %v:\n%vwant\n%v",
			res.Reflect, res.Answer, want)
	}

	// Resync re-establishes consistency by snapshot poll (Eager
	// Compensation), not by trusting the gapped delta stream.
	if err := e.med.ResyncSource("dbB"); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if qs := e.med.QuarantinedSources(); len(qs) != 0 {
		t.Fatalf("still quarantined after resync: %v", qs)
	}
	if got := e.med.Stats(); got.Resyncs != 1 {
		t.Fatalf("resyncs=%d", got.Resyncs)
	}

	// After resync + drain the mediator agrees exactly with a from-scratch
	// evaluation — tx2's effects are present even though its announcement
	// never arrived.
	e.drain(t)
	res2, err := e.query(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degraded {
		t.Fatal("post-resync query flagged degraded")
	}
	if want := e.truth(t); !res2.Answer.Equal(want) {
		t.Fatalf("post-resync answer diverged from ground truth:\n%vwant\n%v",
			res2.Answer, want)
	}
	if !res2.Answer.Contains(relation.T(2, 20, 222, 2000)) {
		t.Fatalf("lost tx2's effect missing after resync:\n%v", res2.Answer)
	}
}
