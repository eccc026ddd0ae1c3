package core

import (
	"strings"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// queryTruth asserts a full projection of T matches the from-scratch
// evaluation of the current source states.
func queryTruth(t *testing.T, e *testEnv) {
	t.Helper()
	res, err := e.med.Query(algebra.SelectFrom("T", nil, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	truth := e.groundTruth(t)
	want, err := projectSelectLocal(truth["T"], "T", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(want) {
		t.Fatalf("answer diverged:\n%swant\n%s", res.Answer, want)
	}
	if err := e.med.CheckJoinIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestReannotateVirtualizeAndBack(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	v0 := e.med.StoreVersion()

	// m → v: drop T.s2 from the store.
	hybrid := e.med.VDP().Annotations()
	hybrid["T"] = vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"})
	flips, err := e.med.Reannotate(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 1 || flips[0].String() != "T.s2 m->v" {
		t.Fatalf("flips = %v", flips)
	}
	if e.med.StoreVersion() != v0+1 {
		t.Fatalf("re-annotation must publish a new version: %d", e.med.StoreVersion())
	}
	if e.med.StoreSnapshot("T").Schema().HasAttr("s2") {
		t.Fatal("virtualized column still stored")
	}
	queryTruth(t, e)

	// Updates keep propagating against the new layout.
	d := delta.New()
	d.Insert("R", relation.T(5, 10, 55, 100))
	e.db1.MustApply(d)
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	queryTruth(t, e)

	// v → m: backfill T.s2 by a compensated VAP poll.
	all := e.med.VDP().Annotations()
	all["T"] = vdp.AllMaterialized(e.med.VDP().Node("T").Schema)
	flips, err = e.med.Reannotate(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 1 || flips[0].String() != "T.s2 v->m" {
		t.Fatalf("flips = %v", flips)
	}
	if !e.med.StoreSnapshot("T").Schema().HasAttr("s2") {
		t.Fatal("materialized column missing from store")
	}
	queryTruth(t, e)
	if got := e.med.Stats().AnnotationSwitches; got != 2 {
		t.Fatalf("AnnotationSwitches = %d, want 2", got)
	}

	// The rebuilt store agrees with ground truth after more updates.
	d = delta.New()
	d.Insert("S", relation.T(40, 4, 10))
	e.db2.MustApply(d)
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	queryTruth(t, e)
}

// A switch that moves a join attribute out of the store takes the node's
// join index with it: the rule over that sibling then reads a VAP
// temporary, indexed on the spot (the scan counter moves), and moving the
// attribute back restores the resident index (the counter stops).
func TestReannotateJoinAttributeOutOfStoreAndBack(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	scanned := func() int64 { return e.med.MetricsSnapshot().Counters[MetricKernelScanRows] }
	commitS := func(key int64) {
		t.Helper()
		d := delta.New()
		d.Insert("S", relation.T(10, key, 10)) // joins R rows with r2 = 10
		e.db2.MustApply(d)
		if _, err := e.med.RunUpdateTransaction(); err != nil {
			t.Fatal(err)
		}
		queryTruth(t, e)
	}
	if got := e.med.StoreSnapshot("R'").IndexedAttrs(); len(got) != 1 || got[0][0] != "r2" {
		t.Fatalf("R' indexes after Initialize: %v", got)
	}
	commitS(101)
	if n := scanned(); n != 0 {
		t.Fatalf("fully materialized: %d rows scanned", n)
	}

	anns := e.med.VDP().Annotations()
	anns["R'"] = vdp.Ann([]string{"r1", "r3"}, []string{"r2"})
	if _, err := e.med.Reannotate(anns); err != nil {
		t.Fatal(err)
	}
	if got := e.med.StoreSnapshot("R'").IndexedAttrs(); len(got) != 0 {
		t.Fatalf("R' lost r2 but kept indexes %v", got)
	}
	queryTruth(t, e)
	commitS(102)
	if n := scanned(); n == 0 {
		t.Fatal("ΔS' against a store lacking the join attribute must count scanned rows")
	}

	anns = e.med.VDP().Annotations()
	anns["R'"] = vdp.AllMaterialized(e.med.VDP().Node("R'").Schema)
	if _, err := e.med.Reannotate(anns); err != nil {
		t.Fatal(err)
	}
	if got := e.med.StoreSnapshot("R'").IndexedAttrs(); len(got) != 1 || got[0][0] != "r2" {
		t.Fatalf("R' indexes after re-materializing r2: %v", got)
	}
	before := scanned()
	commitS(103)
	if n := scanned(); n != before {
		t.Fatalf("resident index restored, yet %d more rows scanned", n-before)
	}
}

func TestReannotateNoopAndErrors(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	v0 := e.med.StoreVersion()
	flips, err := e.med.Reannotate(e.med.VDP().Annotations())
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Fatalf("no-op re-annotation flipped %v", flips)
	}
	if e.med.StoreVersion() != v0 {
		t.Fatal("no-op re-annotation must not publish")
	}
	if _, err := e.med.Reannotate(map[string]vdp.Annotation{
		"nope": vdp.Ann([]string{"x"}, nil),
	}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := e.med.Reannotate(map[string]vdp.Annotation{
		"R": vdp.Ann(nil, []string{"r1"}),
	}); err == nil {
		t.Fatal("leaf annotation accepted")
	}
}

// TestReannotateNewlyAnnouncing covers the capture path: flipping a fully
// virtual plan to fully materialized turns both sources into announcing
// contributors mid-flight. The backfill polls pin ref′ at each poll
// instant, and announcements captured during the transaction must not be
// lost or double-applied.
func TestReannotateNewlyAnnouncing(t *testing.T) {
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	tS := relation.MustSchema("T", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r3", Type: relation.KindInt},
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}})
	e := newEnv(t, vdp.AllVirtual(rp), vdp.AllVirtual(sp), vdp.AllVirtual(tS))
	for _, src := range []string{"db1", "db2"} {
		if e.med.Contributor(src) != VirtualContributor {
			t.Fatalf("%s should start as a virtual contributor", src)
		}
	}

	// Commit while fully virtual: these announcements are dropped (virtual
	// contributors' streams are not consumed), the data lives at the
	// sources only.
	d := delta.New()
	d.Insert("R", relation.T(6, 20, 66, 100))
	e.db1.MustApply(d)

	anns := map[string]vdp.Annotation{
		"R'": vdp.AllMaterialized(rp),
		"S'": vdp.AllMaterialized(sp),
		"T":  vdp.AllMaterialized(tS),
	}
	flips, err := e.med.Reannotate(anns)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 9 { // 3 + 2 + 4 attributes all flip v->m
		t.Fatalf("flips = %v", flips)
	}
	for _, src := range []string{"db1", "db2"} {
		if e.med.Contributor(src) != MaterializedContributor {
			t.Fatalf("%s should now be a materialized contributor", src)
		}
	}
	queryTruth(t, e)

	// The stream is live from the backfill's poll instant: later commits
	// propagate incrementally into the new stores.
	d = delta.New()
	d.Insert("R", relation.T(7, 10, 77, 100))
	e.db1.MustApply(d)
	d = delta.New()
	d.Insert("S", relation.T(50, 5, 30))
	e.db2.MustApply(d)
	for {
		ran, err := e.med.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
	}
	queryTruth(t, e)

	// And back down: everything virtual again drops every store.
	back := map[string]vdp.Annotation{
		"R'": vdp.AllVirtual(rp), "S'": vdp.AllVirtual(sp), "T": vdp.AllVirtual(tS),
	}
	if _, err := e.med.Reannotate(back); err != nil {
		t.Fatal(err)
	}
	if cur := e.med.CurrentVersion(); len(cur.Nodes()) != 0 {
		t.Fatalf("fully virtual plan still stores %v", cur.Nodes())
	}
	queryTruth(t, e)

	// No capture flags, pins, or retained announcements leak.
	e.med.qmu.Lock()
	pins, done := len(e.med.pins), len(e.med.done)
	e.med.qmu.Unlock()
	e.med.qmu.Lock()
	captures := len(e.med.capture)
	e.med.qmu.Unlock()
	if pins != 0 || done != 0 || captures != 0 {
		t.Fatalf("leaked %d pins, %d retained announcements, %d captures", pins, done, captures)
	}
}

// TestReannotateEventsAndReasons checks the observability surface of a
// switch: per-flip annotation-switch events and a publish event.
func TestReannotateEventsAndReasons(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	anns := e.med.VDP().Annotations()
	anns["T"] = vdp.Ann([]string{"r1", "r3", "s1"}, []string{"s2"})
	if _, err := e.med.Reannotate(anns); err != nil {
		t.Fatal(err)
	}
	evs, _ := e.med.Metrics().Events().Recent(0)
	var switches, publishes int
	for _, ev := range evs {
		switch ev.Type {
		case "annotation-switch":
			switches++
			if !strings.Contains(ev.Subject, "m->v") {
				t.Errorf("unexpected switch subject %q", ev.Subject)
			}
		case "publish":
			publishes++
		}
	}
	if switches != 1 {
		t.Errorf("annotation-switch events = %d, want 1", switches)
	}
	if publishes < 2 { // Initialize + the re-annotation
		t.Errorf("publish events = %d, want >= 2", publishes)
	}
}
