package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// instrumentRow is one row of DESIGN.md §4's instrument table.
type instrumentRow struct {
	// families are the backticked names of the row's first cell; a row
	// that backs a Stats field names one.
	families []string
	kind     string
	// stats is the row's `Stats` field cell: a backticked field name,
	// optionally with a backticked label selector such as
	// `outcome="error"`, or "—".
	stats string
}

// designInstrumentRows parses the instrument table of DESIGN.md §4.
func designInstrumentRows(t *testing.T) []instrumentRow {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## 4. Observability")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4 Observability")
	}
	section := doc[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	var rows []instrumentRow
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `squirrel_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		row := instrumentRow{families: backticked(cells[0])}
		if len(cells) >= 5 {
			row.kind, row.stats = strings.TrimSpace(cells[1]), strings.TrimSpace(cells[4])
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §4 has no instrument table")
	}
	return rows
}

// backticked returns the backticked tokens of a table cell.
func backticked(cell string) []string {
	parts := strings.Split(cell, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// seriesValue sums the row's series in snap: counter and gauge values, or
// histogram observation counts, restricted to the row's label selector.
func seriesValue(snap metrics.Snapshot, row instrumentRow) int64 {
	selector := ""
	for _, tok := range backticked(row.stats) {
		if strings.Contains(tok, "=") {
			selector = tok
		}
	}
	match := func(series string) bool {
		family := row.families[0]
		if series != family && !strings.HasPrefix(series, family+"{") {
			return false
		}
		return selector == "" || strings.Contains(series, selector)
	}
	var sum int64
	switch row.kind {
	case "counter":
		for k, v := range snap.Counters {
			if match(k) {
				sum += v
			}
		}
	case "gauge":
		for k, v := range snap.Gauges {
			if match(k) {
				sum += v
			}
		}
	case "histogram":
		for k, h := range snap.Histograms {
			if match(k) {
				sum += int64(h.Count)
			}
		}
	}
	return sum
}

// metricConstants returns the string values of the Metric* constants
// declared in the non-test Go files of dir, keyed by constant name.
func metricConstants(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Metric") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out[name.Name] = v
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no Metric* constants found in %s", dir)
	}
	return out
}

// TestDesignListsEveryMetricFamily keeps DESIGN.md §4's instrument table
// complete: every metric family the mediator or its WAL declares has a
// row.
func TestDesignListsEveryMetricFamily(t *testing.T) {
	listed := map[string]bool{}
	for _, row := range designInstrumentRows(t) {
		for _, family := range row.families {
			listed[family] = true
		}
	}
	for _, dir := range []string{".", "../wal"} {
		for name, family := range metricConstants(t, dir) {
			if !listed[family] {
				t.Errorf("DESIGN.md §4 does not list %s (%s in %s)", family, name, dir)
			}
		}
	}
}

// statsStateFields are the Stats fields that report state rather than
// count events; they have no registry series.
var statsStateFields = map[string]bool{
	"QueueHighWater": true, "CurrentVersion": true, "VersionsPublished": true,
	"ResyncsStuck": true, "Sources": true,
}

// barrierFailLog is a commit log whose barrier records never persist.
type barrierFailLog struct{}

func (barrierFailLog) LogCommit(*CommitRecord) error { return nil }
func (barrierFailLog) LogBarrier(uint64, string) error {
	return errors.New("injected barrier failure")
}
func (barrierFailLog) Sync() error { return nil }

// TestStatsReadTheRegistry runs one timeline that moves every counter
// Stats reports, then checks each counter field — found by reflection,
// so a new field cannot skip the check — against the registry series
// DESIGN.md §4 names for it.
func TestStatsReadTheRegistry(t *testing.T) {
	// The paper's sources under a plan with two exports: T hybrid (r3 and
	// s2 virtual, so queries for them poll or take the key-based path)
	// and TM fully materialized over the hybrid S' (subscribable, and
	// every ΔR commit polls db2 for s2).
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 20, 7, 100))
	r.Insert(relation.T(3, 30, 9, 100))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	base := paperPlan(t, nil, vdp.Ann([]string{"s1"}, []string{"s2"}),
		vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	tmSchema := relation.MustSchema("TM", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "s1", Type: relation.KindInt},
		{Name: "s2", Type: relation.KindInt}})
	plan, err := vdp.New(base.Node("R"), base.Node("S"), base.Node("R'"), base.Node("S'"), base.Node("T"),
		&vdp.Node{Name: "TM", Schema: tmSchema, Ann: vdp.AllMaterialized(tmSchema), Export: true,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: "R'"}, {Rel: "S'"}},
				JoinCond: base.Node("T").Def.(vdp.SPJ).JoinCond,
				Proj:     []string{"r1", "s1", "s2"}}})
	if err != nil {
		t.Fatal(err)
	}
	inj := resilience.NewInjector(1)
	med, err := New(Config{
		VDP: plan,
		Sources: map[string]SourceConn{
			"db1": resilience.WrapSource(LocalSource{DB: db1}, inj),
			"db2": resilience.WrapSource(LocalSource{DB: db2}, inj),
		},
		Clock:    clk,
		Recorder: trace.NewRecorder(),
		Resilience: ResilienceConfig{
			Retry:   resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
			Breaker: resilience.BreakerPolicy{Failures: 2, Cooldown: time.Hour},
			Seed:    1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// db1's feed can lose announcements on purpose, to open a gap.
	var mu sync.Mutex
	swallow := 0
	db1.Subscribe(func(a source.Announcement) {
		mu.Lock()
		drop := swallow > 0
		if drop {
			swallow--
		}
		mu.Unlock()
		if !drop {
			med.OnAnnouncement(a)
		}
	})
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	med.SetCommitLog(barrierFailLog{})

	nextKey := int64(100)
	commitR := func() {
		t.Helper()
		nextKey++
		d := delta.New()
		d.Insert("R", relation.T(nextKey, 10, nextKey, 100))
		if _, err := db1.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		t.Helper()
		for {
			ran, err := med.RunUpdateTransaction()
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				return
			}
		}
	}
	recvAll := func(sub *Subscription) {
		t.Helper()
		for {
			_, ok, err := sub.TryRecv()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}

	// Subscriptions: one that coalesces at a one-frame queue, one that
	// drops its queue past a one-tick lag bound.
	coalescing, err := med.Subscribe("TM", SubscribeOptions{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	lagging, err := med.Subscribe("TM", SubscribeOptions{MaxLag: 1})
	if err != nil {
		t.Fatal(err)
	}
	recvAll(coalescing)
	recvAll(lagging)

	// Commits, propagated one transaction each. The ΔS one joins R' rows
	// through R''s resident join index.
	for i := 0; i < 3; i++ {
		commitR()
		drain()
	}
	dS := delta.New()
	dS.Insert("S", relation.T(30, 3, 10))
	if _, err := db2.Apply(dS); err != nil {
		t.Fatal(err)
	}
	drain()
	recvAll(coalescing)
	lagging.Close()

	// A retry: the transaction's db2 poll hangs, and while it does a
	// resync of db1 publishes, so the commit finds its base overtaken.
	resynced := false
	inj.Sleep = func(time.Duration) {
		if !resynced {
			resynced = true
			if err := med.ResyncSource("db1"); err != nil {
				t.Error(err)
			}
		}
	}
	inj.HangNext("db2", 1, time.Millisecond)
	commitR()
	drain()
	if !resynced {
		t.Fatal("the update transaction never polled db2")
	}

	// A gap, then a resync. The resync above restarted db1's sequence
	// tracking, so one announcement re-anchors it before the loss.
	commitR()
	drain()
	mu.Lock()
	swallow = 1
	mu.Unlock()
	commitR()
	commitR()
	if q := med.QuarantinedSources(); len(q) != 1 || q[0] != "db1" {
		t.Fatalf("quarantined = %v, want [db1]", q)
	}
	if err := med.ResyncSource("db1"); err != nil {
		t.Fatal(err)
	}
	drain()
	recvAll(coalescing)

	// Queries: a key-based one, a SQL one, and a polling one that
	// leaves db2's answer in the ServeStale cache.
	if res, err := med.Query(algebra.SelectFrom("T", []string{"r3", "s1"}, nil), QueryOptions{KeyBased: KeyBasedForce}); err != nil || !res.KeyBased {
		t.Fatalf("key-based query: %v (res %+v)", err, res)
	}
	if _, err := med.QuerySQL("SELECT r1 FROM TM", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	tQuery := func(degrade DegradeMode) (*QueryResult, error) {
		return med.Query(algebra.SelectFrom("T", []string{"r1", "s2"}, nil), QueryOptions{KeyBased: KeyBasedOff, Degrade: degrade})
	}
	if _, err := tQuery(FailFast); err != nil {
		t.Fatal(err)
	}

	// A re-annotation flips T.r3 to materialized.
	anns := med.VDP().Annotations()
	anns["T"] = vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"})
	if _, err := med.Reannotate(anns); err != nil {
		t.Fatal(err)
	}

	// db2 goes down: a failed poll with its retry trips the breaker, and
	// the next query is fast-failed and served stale from the cache.
	inj.SetDown("db2", true)
	if _, err := tQuery(FailFast); err == nil {
		t.Fatal("query with db2 down must fail")
	}
	if res, err := tQuery(ServeStale); err != nil || !res.Degraded {
		t.Fatalf("ServeStale query: %v (res %+v)", err, res)
	}

	st := med.Stats()
	snap := med.MetricsSnapshot()
	backing := map[string]instrumentRow{}
	for _, row := range designInstrumentRows(t) {
		for _, tok := range backticked(row.stats) {
			if !strings.Contains(tok, "=") {
				backing[tok] = row
			}
		}
	}
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if statsStateFields[name] {
			continue
		}
		row, ok := backing[name]
		if !ok {
			t.Errorf("Stats.%s: DESIGN.md §4 names no registry series for it", name)
			continue
		}
		f := sv.Field(i)
		if !f.CanInt() {
			t.Errorf("Stats.%s: counter field of kind %s, want int", name, f.Kind())
			continue
		}
		got, want := f.Int(), seriesValue(snap, row)
		if got != want {
			t.Errorf("Stats.%s = %d, registry %s (%s) = %d", name, got, row.families[0], row.stats, want)
		}
		if got == 0 {
			t.Errorf("Stats.%s = 0: the timeline does not exercise it", name)
		}
	}
}

// TestQueueGaugeFollowsQueue: every rewrite of the announcement queue —
// Initialize and Restore dropping announcements their poll or snapshot
// covers, and a resync reconciling a source's stream — keeps the
// squirrel_queue_len gauge equal to the queue's length.
func TestQueueGaugeFollowsQueue(t *testing.T) {
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	db2 := source.NewDB("db2", clk)
	r := relation.NewSet(rSchema())
	r.Insert(relation.T(1, 10, 5, 100))
	s := relation.NewSet(sSchema())
	s.Insert(relation.T(10, 1, 20))
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	plan := paperPlan(t, nil, nil, nil)
	newMed := func() *Mediator {
		med, err := New(Config{
			VDP:     plan,
			Sources: map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
			Clock:   clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		ConnectLocal(med, db1)
		ConnectLocal(med, db2)
		return med
	}
	key := int64(1)
	commitR := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			key++
			d := delta.New()
			d.Insert("R", relation.T(key, 10, key, 100))
			if _, err := db1.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(med *Mediator, step string, wantLen int) {
		t.Helper()
		if n := med.QueueLen(); n != wantLen {
			t.Fatalf("%s: QueueLen = %d, want %d", step, n, wantLen)
		}
		if g := med.Metrics().Gauge(MetricQueueLen).Value(); g != int64(wantLen) {
			t.Errorf("%s: %s = %d, want %d", step, MetricQueueLen, g, wantLen)
		}
	}

	med := newMed()
	commitR(3)
	check(med, "before Initialize", 3)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	check(med, "Initialize", 0)

	commitR(2)
	check(med, "announced", 2)
	if err := med.ResyncSource("db1"); err != nil {
		t.Fatal(err)
	}
	check(med, "resync", 0)

	restored := newMed()
	commitR(2)
	if _, err := med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	check(restored, "before Restore", 2)
	snap, err := med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check(restored, "Restore", 0)
}

// TestQueryExprObserved: SQL query transactions land in the query
// instruments — latency by path, version age, and errors. Only a leaf
// that reads a virtual attribute (T.s2) takes the polling path.
func TestQueryExprObserved(t *testing.T) {
	e := multiExportEnv(t, vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"}), false)
	if _, err := e.med.QuerySQL("SELECT r1 FROM RV", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.med.QuerySQL("SELECT r1, s2 FROM T", QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.med.QuerySQL("SELECT r1 FROM R", QueryOptions{}); err == nil {
		t.Fatal("a query over a non-export must fail")
	}
	snap := e.med.MetricsSnapshot()
	for series, want := range map[string]uint64{
		metrics.SeriesName(MetricQuerySeconds, "path", "fast"):    1,
		metrics.SeriesName(MetricQuerySeconds, "path", "polling"): 1,
		MetricVersionAgeTicks: 2,
	} {
		if got := snap.Histograms[series].Count; got != want {
			t.Errorf("%s count = %d, want %d", series, got, want)
		}
	}
	if got := snap.Counters[MetricQueryErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricQueryErrors, got)
	}
	if got := e.med.Stats().QueryTxns; got != 2 {
		t.Errorf("QueryTxns = %d, want 2", got)
	}
}
