package source

import (
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

func newTestDB(t *testing.T) (*DB, *clock.Logical) {
	t.Helper()
	clk := &clock.Logical{}
	db := NewDB("db1", clk)
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
	r := relation.NewSet(schema)
	r.Insert(relation.T(1, 10))
	r.Insert(relation.T(2, 20))
	if err := db.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	return db, clk
}

func TestCreateAndLoad(t *testing.T) {
	db, _ := newTestDB(t)
	if db.Name() != "db1" {
		t.Errorf("name")
	}
	if got := db.Relations(); len(got) != 1 || got[0] != "R" {
		t.Errorf("relations = %v", got)
	}
	s, err := db.Schema("R")
	if err != nil || s.Arity() != 2 {
		t.Errorf("schema: %v %v", s, err)
	}
	if _, err := db.Schema("X"); err == nil {
		t.Errorf("unknown schema")
	}
	other := relation.MustSchema("Q", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	if err := db.CreateRelation(other, relation.Bag); err != nil {
		t.Errorf("create: %v", err)
	}
	if err := db.CreateRelation(other, relation.Bag); err == nil {
		t.Errorf("duplicate create")
	}
	if err := db.LoadRelation(relation.NewSet(relation.MustSchema("R",
		[]relation.Attribute{{Name: "a", Type: relation.KindInt}}))); err == nil {
		t.Errorf("duplicate load")
	}
}

func TestApplyAnnouncesInOrder(t *testing.T) {
	db, _ := newTestDB(t)
	var anns []Announcement
	db.Subscribe(func(a Announcement) { anns = append(anns, a) })

	d1 := delta.New()
	d1.Insert("R", relation.T(3, 30))
	t1 := db.MustApply(d1)
	d2 := delta.New()
	d2.Delete("R", relation.T(1, 10))
	t2 := db.MustApply(d2)

	if len(anns) != 2 || anns[0].Time != t1 || anns[1].Time != t2 || t1 >= t2 {
		t.Fatalf("announcements: %v (t1=%d t2=%d)", anns, t1, t2)
	}
	if anns[0].Source != "db1" {
		t.Errorf("source name in announcement")
	}
	cur, _ := db.Current("R")
	if cur.Card() != 2 || !cur.Contains(relation.T(3, 30)) || cur.Contains(relation.T(1, 10)) {
		t.Errorf("state after commits: %s", cur)
	}
	if len(db.Log()) != 2 {
		t.Errorf("log: %v", db.Log())
	}
}

func TestApplyAtomicOnFailure(t *testing.T) {
	db, _ := newTestDB(t)
	bad := delta.New()
	bad.Insert("R", relation.T(9, 90))
	bad.Delete("R", relation.T(777, 7)) // not present → strict failure
	if _, err := db.Apply(bad); err == nil {
		t.Fatalf("redundant delete must fail")
	}
	cur, _ := db.Current("R")
	if cur.Contains(relation.T(9, 90)) {
		t.Fatalf("failed transaction leaked effects: %s", cur)
	}
	// Two relations, the second (in apply order) failing: the first must
	// keep its state although its own delta was valid.
	sSchema := relation.MustSchema("S", []relation.Attribute{{Name: "c", Type: relation.KindInt}}, "c")
	if err := db.LoadRelation(relation.NewSet(sSchema)); err != nil {
		t.Fatal(err)
	}
	before, _ := db.Current("R")
	two := delta.New()
	two.Insert("R", relation.T(9, 90))
	two.Delete("S", relation.T(5)) // not present → strict failure
	if _, err := db.Apply(two); err == nil {
		t.Fatalf("redundant delete in the second relation must fail")
	}
	if cur, _ := db.Current("R"); !cur.Equal(before) {
		t.Fatalf("failed two-relation transaction changed R:\n%swant\n%s", cur, before)
	}
	unknown := delta.New()
	unknown.Insert("ZZ", relation.T(1))
	if _, err := db.Apply(unknown); err == nil {
		t.Errorf("unknown relation must fail")
	}
}

func TestQueryAndQueryMulti(t *testing.T) {
	db, _ := newTestDB(t)
	ans, asOf, err := db.Query(QuerySpec{Rel: "R", Attrs: []string{"b"},
		Cond: algebra.Gt(algebra.A("a"), algebra.CInt(1))})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Card() != 1 || !ans.Contains(relation.T(20)) {
		t.Errorf("answer: %s", ans)
	}
	if asOf <= db.Born() {
		t.Errorf("asOf must be a read instant after birth")
	}
	// Multi: both answers from one instant.
	answers, _, err := db.QueryMulti([]QuerySpec{{Rel: "R"}, {Rel: "R", Attrs: []string{"a"}}})
	if err != nil || len(answers) != 2 {
		t.Fatalf("multi: %v %v", answers, err)
	}
	if answers[0].Card() != 2 || answers[1].Card() != 2 {
		t.Errorf("multi answers: %s %s", answers[0], answers[1])
	}
	if _, _, err := db.Query(QuerySpec{Rel: "ZZ"}); err == nil {
		t.Errorf("unknown relation query")
	}
	if _, _, err := db.Query(QuerySpec{Rel: "R", Attrs: []string{"zz"}}); err == nil {
		t.Errorf("unknown attribute query")
	}
	if _, _, err := db.Query(QuerySpec{Rel: "R", Cond: algebra.Gt(algebra.A("zz"), algebra.CInt(0))}); err == nil {
		t.Errorf("bad condition query")
	}
}

func TestStateAtReplay(t *testing.T) {
	db, _ := newTestDB(t)
	t0 := db.Born()
	d1 := delta.New()
	d1.Insert("R", relation.T(3, 30))
	t1 := db.MustApply(d1)
	d2 := delta.New()
	d2.Delete("R", relation.T(2, 20))
	t2 := db.MustApply(d2)

	s0, err := db.StateAt("R", t0)
	if err != nil || s0.Card() != 2 {
		t.Errorf("state at birth: %v %v", s0, err)
	}
	s1, _ := db.StateAt("R", t1)
	if s1.Card() != 3 || !s1.Contains(relation.T(3, 30)) {
		t.Errorf("state at t1: %s", s1)
	}
	s2, _ := db.StateAt("R", t2)
	if s2.Card() != 2 || s2.Contains(relation.T(2, 20)) {
		t.Errorf("state at t2: %s", s2)
	}
	if _, err := db.StateAt("ZZ", t1); err == nil {
		t.Errorf("unknown relation replay")
	}
	if db.LastCommit() != t2 {
		t.Errorf("LastCommit = %d, want %d", db.LastCommit(), t2)
	}
	if db.LastCommitAtOrBefore(t1) != t1 || db.LastCommitAtOrBefore(t0) != t0 {
		t.Errorf("LastCommitAtOrBefore wrong")
	}
}

func TestQueryMultiAt(t *testing.T) {
	db, _ := newTestDB(t)
	t0 := db.Born()
	d := delta.New()
	d.Insert("R", relation.T(3, 30))
	db.MustApply(d)

	answers, asOf, err := db.QueryMultiAt([]QuerySpec{{Rel: "R"}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if asOf != t0 || answers[0].Card() != 2 {
		t.Errorf("historical answer: asOf=%d %s", asOf, answers[0])
	}
	if _, _, err := db.QueryMultiAt([]QuerySpec{{Rel: "ZZ"}}, t0); err == nil {
		t.Errorf("unknown relation")
	}
}

func TestMustApplyPanics(t *testing.T) {
	db, _ := newTestDB(t)
	defer func() {
		if recover() == nil {
			t.Errorf("MustApply should panic")
		}
	}()
	bad := delta.New()
	bad.Insert("ZZ", relation.T(1))
	db.MustApply(bad)
}
