package core

import (
	"testing"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// TestUpdatePollTuplesBoundedByDelta is a work budget for the update
// path's polls (§6.4): with Example 2.3's annotations (R′, S′ virtual, T
// hybrid), an update transaction reads the virtual sibling only at the
// join keys of its delta, so the tuples it polls are bounded by the
// sibling rows matching those keys — not by the size of the source. The
// number of polls is what it always was (one per transaction), and the
// narrowed polls, whose shape never recurs, leave the poll cache alone.
func TestUpdatePollTuplesBoundedByDelta(t *testing.T) {
	const nR, nS = 2000, 1000
	clk := &clock.Logical{}
	db1, db2 := source.NewDB("db1", clk), source.NewDB("db2", clk)
	r4 := func(i int64) int64 { return 100 + 50*(i%3/2) } // a third fail R′'s σ
	r := relation.NewSet(rSchema())
	for i := int64(0); i < nR; i++ {
		r.Insert(relation.T(i, i%nS, i, r4(i)))
	}
	s := relation.NewSet(sSchema())
	for i := 0; i < nS; i++ {
		s.Insert(relation.T(i, i, i%100)) // half fail S′'s σ
	}
	if err := db1.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		t.Fatal(err)
	}
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	v := paperPlan(t, vdp.AllVirtual(rp), vdp.AllVirtual(sp), vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	med, err := New(Config{
		VDP:     v,
		Sources: map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:   clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	ConnectLocal(med, db1)
	ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	e := &testEnv{clk: clk, db1: db1, db2: db2, med: med, vdp_: v}
	cacheLen := func() int {
		med.cmu.Lock()
		defer med.cmu.Unlock()
		return len(med.pollCache)
	}
	cached := cacheLen()

	// matching counts the sibling rows (the leaf-parent's σ applied) whose
	// join attribute takes one of the delta's key values.
	matching := func(db *source.DB, rel string, keyPos, selPos int, sel func(int64) bool, keys map[int64]bool) int {
		cur, err := db.Current(rel)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		cur.Each(func(tu relation.Tuple, c int) bool {
			if keys[tu[keyPos].AsInt()] && sel(tu[selPos].AsInt()) {
				n += c
			}
			return true
		})
		return n
	}
	nextR, delR, updS := int64(nR), int64(0), int64(0)
	matched := 0 // sibling rows the deltas could join with, summed
	// step commits one 8-atom delta and runs one update transaction,
	// checking its poll work against the budget. An even txn changes R:
	// four inserts and four deletes. An odd one changes S: four updates
	// of s2 (a delete and an insert each) under live join keys.
	step := func(txn int) {
		t.Helper()
		d := delta.New()
		keys := map[int64]bool{}
		db, want := db1, 0
		if txn%2 == 0 {
			for k := 0; k < 4; k++ {
				key := (nextR * 7) % nS
				d.Insert("R", relation.T(nextR, key, nextR, 100))
				d.Delete("R", relation.T(delR, delR%nS, delR, r4(delR)))
				keys[key], keys[delR%nS] = true, true
				nextR++
				delR++
			}
			want = matching(db2, "S", 0, 2, func(x int64) bool { return x < 50 }, keys)
		} else {
			for k := 0; k < 4; k++ {
				d.Delete("S", relation.T(updS, updS, updS%100))
				d.Insert("S", relation.T(updS, updS+1, updS%100))
				keys[updS] = true
				updS++
			}
			db = db2
			want = matching(db1, "R", 1, 3, func(x int64) bool { return x == 100 }, keys)
		}
		db.MustApply(d)
		before := med.Stats()
		if _, err := med.RunUpdateTransaction(); err != nil {
			t.Fatal(err)
		}
		after := med.Stats()
		if polls := after.SourcePolls - before.SourcePolls; polls != 1 {
			t.Fatalf("txn %d: %d polls, want 1 (the virtual sibling's source, once)", txn, polls)
		}
		if got := after.TuplesPolled - before.TuplesPolled; got > want {
			t.Fatalf("txn %d: polled %d tuples for %d distinct join keys; the sibling rows matching them number %d", txn, got, len(keys), want)
		}
		matched += want
	}
	check := func(when string) {
		t.Helper()
		truth := e.groundTruth(t)
		got := med.StoreSnapshot("T")
		want, err := projectSelectLocal(truth["T"], "T", got.Schema().AttrNames(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: T store\n%swant\n%s", when, got, want)
		}
	}
	step(0)
	step(1)
	check("after one ΔR and one ΔS transaction")
	for txn := 2; txn < 500; txn++ {
		step(txn)
	}
	check("after 500 transactions")
	if matched == 0 {
		t.Fatal("no delta joined any sibling row: the budget was never exercised")
	}
	if n := cacheLen(); n != cached {
		t.Errorf("poll cache grew from %d to %d entries over 500 update transactions", cached, n)
	}
}
