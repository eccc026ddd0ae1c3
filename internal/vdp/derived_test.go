package vdp

import (
	"sort"
	"strings"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

func attrsOf(req Requirement) string {
	var out []string
	for a := range req.Attrs {
		out = append(out, a)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func TestNewRequirementClosesOverCond(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	req, err := NewRequirement(v, "T", []string{"s1"}, algebra.Lt(algebra.A("s2"), algebra.CInt(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !req.Attrs["s2"] || !req.Attrs["s1"] {
		t.Errorf("attrs = %v", req.Attrs)
	}
	if _, err := NewRequirement(v, "NOPE", []string{"x"}, nil); err == nil {
		t.Errorf("unknown node")
	}
	if _, err := NewRequirement(v, "T", []string{"zz"}, nil); err == nil {
		t.Errorf("unknown attribute")
	}
}

func TestDerivedFromSPJ(t *testing.T) {
	// Example 2.3: q = π_{r3,s1} σ_{r3<100} T. derived_from must request
	// r2, r3 from R' (r3 for output+cond, r2 for the join) and s1, s2...
	// s1 for output+join; s2 only if requested.
	v := paperVDP(t, nil, nil, nil)
	req, err := NewRequirement(v, "T", []string{"r3", "s1"}, algebra.Lt(algebra.A("r3"), algebra.CInt(100)))
	if err != nil {
		t.Fatal(err)
	}
	kids, err := v.DerivedFrom(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("children = %v", kids)
	}
	var rp, sp Requirement
	for _, k := range kids {
		switch k.Rel {
		case "R'":
			rp = k
		case "S'":
			sp = k
		}
	}
	if got := attrsOf(rp); got != "r2,r3" {
		t.Errorf("R' attrs = %s, want r2,r3", got)
	}
	if got := attrsOf(sp); got != "s1" {
		t.Errorf("S' attrs = %s, want s1", got)
	}
	// The r3<100 condition is local to R' and must be pushed there.
	if rp.Cond == nil || !strings.Contains(rp.Cond.String(), "r3 < 100") {
		t.Errorf("R' cond = %v", rp.Cond)
	}
	// Nothing pushes to S'.
	if !algebra.IsTrue(sp.Cond) {
		t.Errorf("S' cond = %v", sp.Cond)
	}
}

func TestDerivedFromLeafParent(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	req, _ := NewRequirement(v, "R'", []string{"r1", "r3"}, nil)
	kids, err := v.DerivedFrom(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0].Rel != "R" {
		t.Fatalf("kids = %v", kids)
	}
	// The leaf requirement includes the leaf-parent's own selection attrs
	// via the poll spec instead; here the def has Where over r4.
	if !kids[0].Attrs["r4"] {
		t.Errorf("leaf requirement should include selection attribute r4: %v", kids[0].Attrs)
	}
}

func TestDerivedFromDiff(t *testing.T) {
	v, _ := diffVDP(t)
	req, _ := NewRequirement(v, "G", []string{"x"}, algebra.Gt(algebra.A("x"), algebra.CInt(0)))
	kids, err := v.DerivedFrom(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("kids = %v", kids)
	}
	// Left branch needs x (proj, = node attr) and y (branch Where).
	if got := attrsOf(kids[0]); got != "x,y" {
		t.Errorf("left branch attrs = %s", got)
	}
	// Condition x>0 is renamed to the right branch's p.
	if !strings.Contains(kids[1].Cond.String(), "p > 0") {
		t.Errorf("right branch cond = %v", kids[1].Cond)
	}
	if got := attrsOf(kids[1]); got != "p" {
		t.Errorf("right branch attrs = %s", got)
	}
}

func TestDerivedFromUnion(t *testing.T) {
	v, _ := unionVDP(t)
	req, _ := NewRequirement(v, "G", []string{"x"}, nil)
	kids, err := v.DerivedFrom(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0].Rel != "A'" || kids[1].Rel != "B'" {
		t.Fatalf("kids = %v", kids)
	}
}

func TestDerivedFromErrors(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	if _, err := v.DerivedFrom(Requirement{Rel: "NOPE"}); err == nil {
		t.Errorf("unknown node")
	}
	if _, err := v.DerivedFrom(Requirement{Rel: "R"}); err == nil {
		t.Errorf("leaf node")
	}
}

func TestPlanTemporariesExample23(t *testing.T) {
	// Example 2.3 annotations: T[r1^m, r3^v, s1^m, s2^v] — wait, the
	// example's T is π_{r1,s1,s2}; we use our T(r1,s1,s2) with s2 virtual;
	// R' and S' fully virtual.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	v := paperVDP(t, AllVirtual(rp), AllVirtual(sp), Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))

	// Query touching the virtual attribute s2.
	req, _ := NewRequirement(v, "T", []string{"r1", "s2"}, nil)
	plan, err := v.PlanTemporaries([]Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	// Construction order: children first.
	var rels []string
	for _, p := range plan {
		rels = append(rels, p.Rel)
	}
	joined := strings.Join(rels, ",")
	if !strings.Contains(joined, "T") {
		t.Fatalf("plan must include T: %v", rels)
	}
	// T's requirement recursion must reach S' (s2 virtual there) and R'
	// (join attr r2 virtual there).
	if !strings.Contains(joined, "S'") || !strings.Contains(joined, "R'") {
		t.Fatalf("plan = %v", rels)
	}
	// Children appear before parents.
	idx := map[string]int{}
	for i, r := range rels {
		idx[r] = i
	}
	if idx["R'"] > idx["T"] || idx["S'"] > idx["T"] {
		t.Errorf("construction order wrong: %v", rels)
	}
}

func TestPlanTemporariesMaterializedStopsRecursion(t *testing.T) {
	// Fully materialized plan: requirement served from the store, no
	// recursion to children.
	v := paperVDP(t, nil, nil, nil)
	req, _ := NewRequirement(v, "T", []string{"r1", "s2"}, nil)
	plan, err := v.PlanTemporaries([]Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].Rel != "T" || plan[0].NeedsVirtual(v) {
		t.Fatalf("plan = %v", plan)
	}
}

func TestPlanTemporariesMerging(t *testing.T) {
	// Two requirements on T with different attrs and conditions merge.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	v := paperVDP(t, AllVirtual(rp), nil, Ann([]string{"s1", "s2"}, []string{"r1", "r3"}))
	r1, _ := NewRequirement(v, "T", []string{"r1"}, algebra.Gt(algebra.A("s2"), algebra.CInt(1)))
	r2, _ := NewRequirement(v, "T", []string{"s1", "r1"}, algebra.Lt(algebra.A("s2"), algebra.CInt(9)))
	plan, err := v.PlanTemporaries([]Requirement{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	var tReq *Requirement
	for i := range plan {
		if plan[i].Rel == "T" {
			tReq = &plan[i]
		}
	}
	if tReq == nil {
		t.Fatal("no T in plan")
	}
	if got := attrsOf(*tReq); got != "r1,s1,s2" {
		t.Errorf("merged attrs = %s", got)
	}
	if _, ok := tReq.Cond.(algebra.Or); !ok {
		t.Errorf("merged cond should be a disjunction: %v", tReq.Cond)
	}
}

func TestPlanTemporariesRejectsLeafRequirement(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	if _, err := v.PlanTemporaries([]Requirement{{Rel: "R", Attrs: map[string]bool{"r1": true}}}); err == nil {
		t.Errorf("leaf requirement should be rejected")
	}
	if _, err := v.PlanTemporaries([]Requirement{{Rel: "T"}}); err == nil {
		t.Errorf("nil attr set should be rejected")
	}
}

func TestLeafParentPollSpec(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	req, _ := NewRequirement(v, "R'", []string{"r1", "r3"}, algebra.Lt(algebra.A("r3"), algebra.CInt(100)))
	spec, err := v.LeafParentPollSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Source != "db1" || spec.Leaf != "R" {
		t.Errorf("spec = %+v", spec)
	}
	// Attrs: r1, r3 plus the def's selection attr r4.
	if got := strings.Join(spec.Attrs, ","); got != "r1,r3,r4" {
		t.Errorf("poll attrs = %s", got)
	}
	// Condition: both r4=100 (def) and r3<100 (request).
	cs := spec.Cond.String()
	if !strings.Contains(cs, "r4 = 100") || !strings.Contains(cs, "r3 < 100") {
		t.Errorf("poll cond = %s", cs)
	}
	if _, err := v.LeafParentPollSpec(Requirement{Rel: "T"}); err == nil {
		t.Errorf("T is not a leaf-parent")
	}
}

// touch is a transaction delta inserting one all-ones row into each named
// relation.
func touch(v *VDP, rels ...string) *delta.Delta {
	d := delta.New()
	for _, rel := range rels {
		row := make(relation.Tuple, v.Node(rel).Schema.Arity())
		for i := range row {
			row[i] = relation.Int(1)
		}
		d.Insert(rel, row)
	}
	return d
}

func TestKernelRequirementsPaper(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	// ΔR only: rule (T,R') reads S' — S' state needed, R' not (single
	// occurrence, no self-join), leaf states never needed.
	reqs, err := v.KernelRequirements(touch(v, "R"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Rel != "S'" {
		t.Fatalf("reqs = %+v", reqs)
	}
	// Both leaves dirty: both R' and S' states needed.
	reqs, err = v.KernelRequirements(touch(v, "R", "S"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, err := v.KernelRequirements(touch(v, "T")); err == nil {
		t.Errorf("non-leaf dirty set should be rejected")
	}
}

func TestKernelRequirementsSelfJoin(t *testing.T) {
	v, _ := selfJoinVDP(t)
	reqs, err := v.KernelRequirements(touch(v, "P"))
	if err != nil {
		t.Fatal(err)
	}
	// Self-join: P' own state needed.
	if len(reqs) != 1 || reqs[0].Rel != "P'" {
		t.Fatalf("reqs = %+v", reqs)
	}
}

func TestKernelRequirementsDiff(t *testing.T) {
	v, _ := diffVDP(t)
	reqs, err := v.KernelRequirements(touch(v, "A"))
	if err != nil {
		t.Fatal(err)
	}
	// Diff rules need both branch states even when only A changed.
	if len(reqs) != 2 {
		t.Fatalf("reqs = %+v", reqs)
	}
	// Left branch requirement covers x (proj) and y (branch where).
	for _, r := range reqs {
		if r.Rel == "A'" {
			if got := attrsOf(r); got != "x,y" {
				t.Errorf("A' attrs = %s", got)
			}
		}
	}
}

func TestKernelRequirementsUnion(t *testing.T) {
	v, _ := unionVDP(t)
	reqs, err := v.KernelRequirements(touch(v, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 0 {
		t.Fatalf("union is pass-through; reqs = %+v", reqs)
	}
}

// TestKernelRequirementsProbeKeys: with R′ and S′ virtual (Example 2.3), a
// sibling read only through the join probe is requested at the join-key
// values of the leaf delta that probes it — over inserts and deletes, and
// before the leaf-parent's own σ — while materialized siblings, self-joins
// and difference branches keep today's unrestricted condition.
func TestKernelRequirementsProbeKeys(t *testing.T) {
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	v := paperVDP(t, AllVirtual(rp), AllVirtual(sp), Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	d := delta.New()
	d.Insert("R", relation.T(1, 10, 5, 100))
	d.Insert("R", relation.T(2, 10, 6, 100))
	d.Delete("R", relation.T(3, 20, 7, 999)) // fails R′'s σ: still a key
	reqs, err := v.KernelRequirements(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Rel != "S'" {
		t.Fatalf("reqs = %+v", reqs)
	}
	if got, want := reqs[0].Cond.String(), "s1 IN (10, 20)"; got != want {
		t.Errorf("S' cond = %s, want %s", got, want)
	}
	if got := attrsOf(reqs[0]); got != "s1,s2" {
		t.Errorf("S' attrs = %s", got)
	}
	// Both leaves dirty: each sibling at the keys of the other's delta.
	d.Insert("S", relation.T(10, 1, 1))
	d.Insert("S", relation.T(30, 1, 1))
	reqs, err = v.KernelRequirements(d)
	if err != nil {
		t.Fatal(err)
	}
	conds := map[string]string{}
	for _, r := range reqs {
		conds[r.Rel] = r.Cond.String()
	}
	if conds["R'"] != "r2 IN (10, 30)" || conds["S'"] != "s1 IN (10, 20)" {
		t.Errorf("conds = %v", conds)
	}
	// Materialized siblings are never narrowed (no poll, no key work).
	v = paperVDP(t, nil, nil, nil)
	reqs, _ = v.KernelRequirements(d)
	for _, r := range reqs {
		if algebra.HasIn(r.Cond) {
			t.Errorf("materialized %s narrowed: %s", r.Rel, r.Cond)
		}
	}
}

func TestKeyBasedPlanExample23(t *testing.T) {
	// Example 2.3: T[r1^m, s1^m, s2^v]... the paper's key-based case uses
	// R' key r1 to fetch r3. Our T(r1,s1,s2): s2 lives in S' whose key is
	// s1, materialized in T. So key-based construction via S' applies.
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	v := paperVDP(t, AllVirtual(rp), nil, Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	req, _ := NewRequirement(v, "T", []string{"s1", "s2"}, nil)
	plan, ok := v.KeyBasedPlan(req)
	if !ok {
		t.Fatal("key-based plan should apply")
	}
	if plan.Child != "S'" || strings.Join(plan.Key, ",") != "s1" {
		t.Errorf("plan = %+v", plan)
	}
	if got := attrsOf(plan.ChildReq); got != "s1,s2" {
		t.Errorf("child req attrs = %s", got)
	}
	if got := strings.Join(plan.StoreAttrs, ","); got != "s1" {
		t.Errorf("store attrs = %s", got)
	}
}

func TestKeyBasedPlanInapplicable(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	// Fully materialized: no virtual attrs needed → no key-based plan.
	req, _ := NewRequirement(v, "T", []string{"r1", "s2"}, nil)
	if _, ok := v.KeyBasedPlan(req); ok {
		t.Errorf("no virtual attrs → no plan")
	}
	// T's key attr not materialized: plan must not apply via that child.
	v2 := paperVDP(t, nil, nil, Ann([]string{"r1"}, []string{"r3", "s1", "s2"}))
	req2, _ := NewRequirement(v2, "T", []string{"s2"}, nil)
	if plan, ok := v2.KeyBasedPlan(req2); ok && plan.Child == "S'" {
		t.Errorf("s1 virtual in T: S' key-based plan must not apply")
	}
	// Leaves and diff nodes have no key-based plan.
	vd, _ := diffVDP(t)
	reqd, _ := NewRequirement(vd, "G", []string{"x"}, nil)
	if _, ok := vd.KeyBasedPlan(reqd); ok {
		t.Errorf("diff node cannot use key-based construction")
	}
}

func TestSourcesNeeded(t *testing.T) {
	rp := relation.MustSchema("R'", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}}, "r1")
	sp := relation.MustSchema("S'", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt}}, "s1")
	v := paperVDP(t, AllVirtual(rp), AllVirtual(sp), Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	req, _ := NewRequirement(v, "T", []string{"r1", "s2"}, nil)
	if got := v.SourcesNeeded(req); got != 2 {
		t.Errorf("standard construction should poll both sources, got %d", got)
	}
	// Fully materialized: nothing to poll.
	vm := paperVDP(t, nil, nil, nil)
	reqm, _ := NewRequirement(vm, "T", []string{"r1"}, nil)
	if got := vm.SourcesNeeded(reqm); got != 0 {
		t.Errorf("materialized plan polls nothing, got %d", got)
	}
}

func TestEvalRestricted(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	states, _ := v.EvalAll(ResolverFromCatalog(paperLeafStates()))
	resolve := ResolverFromCatalog(states)
	// π_{s1} σ_{r3<100} T in the spirit of the Example 2.3 query: the
	// condition references r3, which T projects away, but restricted
	// evaluation works over the def's joined width where r3 is in scope.
	// T rows: r1=1 (r3=5, s1=10), r1=2 (r3=120, s1=10), r1=3 (r3=7, s1=20).
	got, err := EvalRestricted(v.Node("T"), []string{"s1"},
		algebra.Lt(algebra.A("r3"), algebra.CInt(100)), resolve)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(relation.T(10)) != 1 || got.Count(relation.T(20)) != 1 || got.Len() != 2 {
		t.Errorf("restricted eval with pre-projection condition = %s", got)
	}

	got2, err := EvalRestricted(v.Node("T"), []string{"s1"},
		algebra.Lt(algebra.A("s2"), algebra.CInt(2)), resolve)
	if err != nil {
		t.Fatal(err)
	}
	// s2<2 keeps rows with s2=1: two rows project to s1=10 (bag: count 2).
	if got2.Count(relation.T(10)) != 2 || got2.Len() != 1 {
		t.Errorf("restricted eval = %s", got2)
	}
	// Restricted eval of a diff node.
	vd, dleaves := diffVDP(t)
	dstates, _ := vd.EvalAll(ResolverFromCatalog(dleaves))
	got3, err := EvalRestricted(vd.Node("G"), []string{"x"}, nil, ResolverFromCatalog(dstates))
	if err != nil {
		t.Fatal(err)
	}
	if got3.Card() != 1 || !got3.Contains(relation.T(1)) {
		t.Errorf("restricted diff eval = %s", got3)
	}
	// Leaf rejected.
	if _, err := EvalRestricted(v.Node("R"), []string{"r1"}, nil, resolve); err == nil {
		t.Errorf("leaf should be rejected")
	}
}
