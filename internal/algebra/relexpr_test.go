package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"squirrel/internal/relation"
)

// Fixtures modeled on the paper's running example:
// R(r1, r2, r3, r4) key r1;  S(s1, s2, s3) key s1.
func paperCatalog(t testing.TB) MapCatalog {
	t.Helper()
	rs := relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}, {Name: "r4", Type: relation.KindInt}}, "r1")
	ss := relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")
	r := relation.NewSet(rs)
	r.Insert(relation.T(1, 10, 5, 100))
	r.Insert(relation.T(2, 10, 120, 100))
	r.Insert(relation.T(3, 20, 7, 100))
	r.Insert(relation.T(4, 30, 9, 50)) // fails r4=100
	s := relation.NewSet(ss)
	s.Insert(relation.T(10, 1, 20))
	s.Insert(relation.T(20, 2, 40))
	s.Insert(relation.T(30, 3, 80)) // fails s3<50
	return MapCatalog{"R": r, "S": s}
}

// T = π_{r1,s1,s2}(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S)  (Example 2.1)
func paperView() RelExpr {
	return Project{
		Cols: []string{"r1", "s1", "s2"},
		As:   "T",
		Input: Join{
			L:  Select{Input: Scan{Rel: "R"}, Pred: Eq(A("r4"), CInt(100))},
			R:  Select{Input: Scan{Rel: "S"}, Pred: Lt(A("s3"), CInt(50))},
			On: Eq(A("r2"), A("s1")),
		},
	}
}

func TestPaperViewEvaluation(t *testing.T) {
	cat := paperCatalog(t)
	got, err := paperView().Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]int64{{1, 10, 1}, {2, 10, 1}, {3, 20, 2}}
	if got.Card() != len(want) {
		t.Fatalf("T = %s", got)
	}
	for _, w := range want {
		if !got.Contains(relation.T(w[0], w[1], w[2])) {
			t.Errorf("missing tuple %v in %s", w, got)
		}
	}
}

func TestScanUnknownRelation(t *testing.T) {
	if _, err := (Scan{Rel: "nope"}).Eval(paperCatalog(t)); err == nil {
		t.Errorf("unknown relation should error")
	}
}

func TestSelectErrorPropagates(t *testing.T) {
	cat := paperCatalog(t)
	if _, err := (Select{Input: Scan{Rel: "R"}, Pred: Eq(A("nope"), CInt(1))}).Eval(cat); err == nil {
		t.Errorf("bad predicate should error")
	}
}

func TestProjectBagSemantics(t *testing.T) {
	cat := paperCatalog(t)
	// π_{r2} R has duplicate r2=10 values: bag projection keeps counts.
	got, err := (Project{Input: Scan{Rel: "R"}, Cols: []string{"r2"}, As: "P"}).Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(relation.T(10)) != 2 {
		t.Errorf("bag projection count = %d, want 2", got.Count(relation.T(10)))
	}
	if got.Card() != 4 || got.Len() != 3 {
		t.Errorf("card=%d len=%d", got.Card(), got.Len())
	}
	if _, err := (Project{Input: Scan{Rel: "R"}, Cols: []string{"zz"}}).Eval(cat); err == nil {
		t.Errorf("unknown projection attr should error")
	}
}

func TestJoinHashVsNestedLoop(t *testing.T) {
	cat := paperCatalog(t)
	// Equality join (hash path).
	hashJoin := Join{L: Scan{Rel: "R"}, R: Scan{Rel: "S"}, On: Eq(A("r2"), A("s1"))}
	hj, err := hashJoin.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	// Same condition forced through the residual (nested-loop) path by
	// wrapping in a non-extractable form: r2+0 = s1.
	nlJoin := Join{L: Scan{Rel: "R"}, R: Scan{Rel: "S"}, On: Eq(Add(A("r2"), CInt(0)), A("s1"))}
	nl, err := nlJoin.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !hj.Equal(nl) {
		t.Fatalf("hash join and nested loop disagree:\n%s\nvs\n%s", hj, nl)
	}
	if hj.Card() != 4 {
		t.Errorf("join cardinality = %d", hj.Card())
	}
}

func TestJoinResidualCondition(t *testing.T) {
	cat := paperCatalog(t)
	// Mixed: hash pair + residual range condition.
	j := Join{L: Scan{Rel: "R"}, R: Scan{Rel: "S"},
		On: Conj(Eq(A("r2"), A("s1")), Lt(A("r3"), A("s3")))}
	got, err := j.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates with r2=s1: (1,10,5,100|10,1,20) r3=5<20 ok;
	// (2,10,120,100|10,1,20) 120<20 no; (3,20,7,100|20,2,40) 7<40 ok;
	// (4,30,9,50|30,3,80) 9<80 ok.
	if got.Card() != 3 {
		t.Errorf("residual join card = %d: %s", got.Card(), got)
	}
}

func TestJoinThetaInequality(t *testing.T) {
	cat := paperCatalog(t)
	// Pure inequality join like Example 5.1's a1²+a2 < b2².
	j := Join{L: Scan{Rel: "R"}, R: Scan{Rel: "S"},
		On: Lt(Add(Mul(A("r1"), A("r1")), A("r3")), Mul(A("s2"), A("s2")))}
	got, err := j.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	// r1²+r3: 1+5=6, 4+120=124, 9+7=16, 16+9=25; s2²: 1, 4, 9.
	// Matches: 6<9 only => 1 row... check: 6 vs 1,4,9 → 6<9 yes (1 row).
	// 16,25,124 all >= 9. So 1 row.
	if got.Card() != 1 {
		t.Errorf("theta join card = %d: %s", got.Card(), got)
	}
}

func TestJoinDuplicateAttrsRejected(t *testing.T) {
	cat := paperCatalog(t)
	j := Join{L: Scan{Rel: "R"}, R: Scan{Rel: "R"}}
	if _, err := j.Eval(cat); err == nil {
		t.Errorf("self-join without renaming must be rejected")
	}
}

func TestJoinMultiplicities(t *testing.T) {
	s1 := relation.MustSchema("A", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	s2 := relation.MustSchema("B", []relation.Attribute{{Name: "y", Type: relation.KindInt}})
	a := relation.NewBag(s1)
	a.Add(relation.T(1), 2)
	b := relation.NewBag(s2)
	b.Add(relation.T(1), 3)
	got, err := EvalJoin(a, b, Eq(A("x"), A("y")), "AB")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(relation.T(1, 1)) != 6 {
		t.Errorf("bag join must multiply counts: %d", got.Count(relation.T(1, 1)))
	}
}

func TestUnionAndDiff(t *testing.T) {
	s := relation.MustSchema("A", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	a := relation.NewBag(s)
	a.Insert(relation.T(1))
	a.Insert(relation.T(2))
	b := relation.NewBag(s.Rename("B"))
	b.Insert(relation.T(2))
	b.Insert(relation.T(3))
	cat := MapCatalog{"A": a, "B": b}

	u, err := (Union{L: Scan{Rel: "A"}, R: Scan{Rel: "B"}}).Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if u.Card() != 4 || u.Count(relation.T(2)) != 2 {
		t.Errorf("bag union: %s", u)
	}
	d, err := (Diff{L: Scan{Rel: "A"}, R: Scan{Rel: "B"}}).Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Card() != 1 || !d.Contains(relation.T(1)) {
		t.Errorf("difference: %s", d)
	}
	if d.Semantics() != relation.Set {
		t.Errorf("difference must be a set")
	}

	// Incompatible shapes must be rejected.
	wide := relation.NewBag(relation.MustSchema("W", []relation.Attribute{
		{Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}}))
	cat["W"] = wide
	if _, err := (Union{L: Scan{Rel: "A"}, R: Scan{Rel: "W"}}).Eval(cat); err == nil {
		t.Errorf("union shape mismatch should error")
	}
	if _, err := (Diff{L: Scan{Rel: "A"}, R: Scan{Rel: "W"}}).Eval(cat); err == nil {
		t.Errorf("diff shape mismatch should error")
	}
}

func TestDistinctOf(t *testing.T) {
	s := relation.MustSchema("A", []relation.Attribute{{Name: "x", Type: relation.KindInt}})
	a := relation.NewBag(s)
	a.Add(relation.T(1), 3)
	got, err := (DistinctOf{Input: Scan{Rel: "A"}}).Eval(MapCatalog{"A": a})
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != 1 {
		t.Errorf("distinct: %s", got)
	}
}

func TestJoinChain(t *testing.T) {
	cat := paperCatalog(t)
	us := relation.MustSchema("U", []relation.Attribute{
		{Name: "u1", Type: relation.KindInt}, {Name: "u2", Type: relation.KindInt}}, "u1")
	u := relation.NewSet(us)
	u.Insert(relation.T(1, 100))
	u.Insert(relation.T(2, 200))
	r, _ := cat.Relation("R")
	s, _ := cat.Relation("S")
	got, err := JoinChain([]*relation.Relation{r, s, u},
		Conj(Eq(A("r2"), A("s1")), Eq(A("r1"), A("u1"))), "RSU")
	if err != nil {
		t.Fatal(err)
	}
	// r2=s1 matches r1∈{1,2,3}; u1∈{1,2} verse r1 → 2 rows.
	if got.Card() != 2 {
		t.Errorf("3-way join card = %d: %s", got.Card(), got)
	}
	if got.Schema().Arity() != 4+3+2 {
		t.Errorf("3-way join arity = %d", got.Schema().Arity())
	}
	// Single-relation chain behaves as selection.
	single, err := JoinChain([]*relation.Relation{r}, Eq(A("r4"), CInt(100)), "RR")
	if err != nil {
		t.Fatal(err)
	}
	if single.Card() != 3 {
		t.Errorf("single chain card = %d", single.Card())
	}
	if _, err := JoinChain(nil, nil, "X"); err == nil {
		t.Errorf("empty chain should error")
	}
}

func TestBaseRelationsOf(t *testing.T) {
	got := BaseRelationsOf(paperView())
	if len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("base relations = %v", got)
	}
}

func TestRelExprStrings(t *testing.T) {
	s := paperView().String()
	for _, want := range []string{"π", "σ", "⋈", "R", "S"} {
		if !contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
	_ = (Union{L: Scan{Rel: "A"}, R: Scan{Rel: "B"}}).String()
	_ = (Diff{L: Scan{Rel: "A"}, R: Scan{Rel: "B"}}).String()
	_ = (DistinctOf{Input: Scan{Rel: "A"}}).String()
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: hash-join output equals brute-force nested-loop output on
// random bags.
func TestJoinEquivalenceProperty(t *testing.T) {
	as := relation.MustSchema("A", []relation.Attribute{
		{Name: "a1", Type: relation.KindInt}, {Name: "a2", Type: relation.KindInt}})
	bs := relation.MustSchema("B", []relation.Attribute{
		{Name: "b1", Type: relation.KindInt}, {Name: "b2", Type: relation.KindInt}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := relation.NewBag(as)
		b := relation.NewBag(bs)
		for i := 0; i < 20; i++ {
			a.Add(relation.T(rng.Intn(5), rng.Intn(5)), rng.Intn(2)+1)
			b.Add(relation.T(rng.Intn(5), rng.Intn(5)), rng.Intn(2)+1)
		}
		cond := Eq(A("a1"), A("b1"))
		fast, err := EvalJoin(a, b, cond, "J")
		if err != nil {
			return false
		}
		// Brute force.
		js, _ := as.Concat("J", bs)
		slow := relation.NewBag(js)
		a.Each(func(at relation.Tuple, an int) bool {
			b.Each(func(bt relation.Tuple, bn int) bool {
				joined := at.Concat(bt)
				if ok, _ := EvalPred(cond, js, joined); ok {
					slow.Add(joined, an*bn)
				}
				return true
			})
			return true
		})
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexAwareJoinEquivalence(t *testing.T) {
	// A persistent index on the join attribute must produce identical
	// results to the transient hash build.
	as := relation.MustSchema("A", []relation.Attribute{
		{Name: "a1", Type: relation.KindInt}, {Name: "a2", Type: relation.KindInt}})
	bs := relation.MustSchema("B", []relation.Attribute{
		{Name: "b1", Type: relation.KindInt}, {Name: "b2", Type: relation.KindInt}})
	rng := rand.New(rand.NewSource(5))
	plainA, plainB := relation.NewBag(as), relation.NewBag(bs)
	idxA, idxB := relation.NewBag(as), relation.NewBag(bs)
	if err := idxB.EnsureIndex("b1"); err != nil {
		t.Fatal(err)
	}
	if err := idxA.EnsureIndex("a1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		ta := relation.T(rng.Intn(8), rng.Intn(5))
		tb := relation.T(rng.Intn(8), rng.Intn(5))
		plainA.Add(ta, 1)
		idxA.Add(ta, 1)
		plainB.Add(tb, 1)
		idxB.Add(tb, 1)
	}
	cond := Eq(A("a1"), A("b1"))
	want, err := EvalJoin(plainA, plainB, cond, "J")
	if err != nil {
		t.Fatal(err)
	}
	// Index on the right side.
	got1, err := EvalJoin(plainA, idxB, cond, "J")
	if err != nil {
		t.Fatal(err)
	}
	if !got1.Equal(want) {
		t.Fatalf("right-index join diverged:\n%svs\n%s", got1, want)
	}
	// Index on the left side.
	got2, err := EvalJoin(idxA, plainB, cond, "J")
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want) {
		t.Fatalf("left-index join diverged:\n%svs\n%s", got2, want)
	}
	// Indexes on both: either path must still be exact.
	got3, err := EvalJoin(idxA, idxB, cond, "J")
	if err != nil {
		t.Fatal(err)
	}
	if !got3.Equal(want) {
		t.Fatalf("both-index join diverged")
	}
}
