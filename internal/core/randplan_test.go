package core

import (
	"fmt"
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// This file contains the randomized-plan soak: VDPs with random shapes
// (leaf-parents, multi-way joins, union and difference tops, self-joins),
// random annotations across the materialized/virtual/hybrid spectrum, and
// random workloads — checked for incremental-equals-recompute and for the
// §3 consistency definition on every run.

// randPlan carries a generated environment.
type randPlan struct {
	plan    *vdp.VDP
	dbs     map[string]*source.DB
	med     *Mediator
	rec     *trace.Recorder
	export  string
	domains map[string]int64 // per-leaf value domain size (join compatibility)
}

// buildRandomPlan generates a random valid annotated VDP over two sources
// and wires a mediator. Shapes covered: single leaf-parent export, 2–3-way
// join export, union export, difference export — each with randomized
// conditions, projections, and annotations.
func buildRandomPlan(t *testing.T, rng *rand.Rand) *randPlan {
	t.Helper()
	return buildRandomPlanWith(t, rng, randPlanOpts{})
}

// randPlanOpts is what a random environment varies beyond its plan: the
// kernel executor, the clock (nil = a fresh clock.Logical), an injector
// wrapping every source connection in fault injection (nil = none), and
// the fault boundary.
type randPlanOpts struct {
	workers int
	clk     clock.Clock
	inj     *resilience.Injector
	resil   ResilienceConfig
}

// buildRandomPlanWith consumes rng identically for every opts, so two
// calls with equally-seeded rngs produce byte-identical plans whose
// environments differ only in opts — the setup the differential oracle
// and the twin test need.
func buildRandomPlanWith(t *testing.T, rng *rand.Rand, opts randPlanOpts) *randPlan {
	t.Helper()
	clk := opts.clk
	if clk == nil {
		clk = &clock.Logical{}
	}
	nLeaves := 2 + rng.Intn(2) // 2 or 3 leaves
	var nodes []*vdp.Node
	dbs := map[string]*source.DB{}
	conns := map[string]SourceConn{}
	domains := map[string]int64{}

	leafNames := make([]string, nLeaves)
	for i := 0; i < nLeaves; i++ {
		src := fmt.Sprintf("db%d", i%2+1)
		if dbs[src] == nil {
			dbs[src] = source.NewDB(src, clk)
			conns[src] = LocalSource{DB: dbs[src]}
			if opts.inj != nil {
				conns[src] = resilience.WrapSource(conns[src], opts.inj)
			}
		}
		name := fmt.Sprintf("L%d", i)
		leafNames[i] = name
		// Attributes: key k_i, join attribute j_i, payloads p_i, q_i.
		schema := relation.MustSchema(name, []relation.Attribute{
			{Name: fmt.Sprintf("k%d", i), Type: relation.KindInt},
			{Name: fmt.Sprintf("j%d", i), Type: relation.KindInt},
			{Name: fmt.Sprintf("p%d", i), Type: relation.KindInt},
			{Name: fmt.Sprintf("q%d", i), Type: relation.KindInt},
		}, fmt.Sprintf("k%d", i))
		nodes = append(nodes, &vdp.Node{Name: name, Schema: schema, Source: src})
		domain := int64(4 + rng.Intn(8))
		domains[name] = domain
		// Initial population.
		rel := relation.NewSet(schema)
		for r := 0; r < 20+rng.Intn(30); r++ {
			rel.Insert(relation.T(int64(r+1), rng.Int63n(domain), rng.Int63n(50), rng.Int63n(3)))
		}
		if err := dbs[src].LoadRelation(rel); err != nil {
			t.Fatal(err)
		}
	}

	// Leaf-parents: π over all but maybe q_i, σ over q_i or none.
	lpNames := make([]string, nLeaves)
	for i, leaf := range leafNames {
		name := leaf + "'"
		lpNames[i] = name
		proj := []string{fmt.Sprintf("k%d", i), fmt.Sprintf("j%d", i), fmt.Sprintf("p%d", i)}
		var where algebra.Expr
		if rng.Intn(2) == 0 {
			where = algebra.Ne(algebra.A(fmt.Sprintf("q%d", i)), algebra.CInt(0))
		}
		parent := nodes[i]
		schema, err := parent.Schema.Project(name, proj)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &vdp.Node{
			Name: name, Schema: schema,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: leaf}}, Where: where, Proj: proj},
			Ann: randomAnn(rng, schema),
		})
	}

	// Export top: pick a shape.
	shape := rng.Intn(4)
	export := "V"
	switch shape {
	case 0: // single-child π σ export over a leaf-parent (plus self-join sometimes)
		child := lpNames[rng.Intn(nLeaves)]
		childNode := findNode(nodes, child)
		proj := childNode.Schema.AttrNames()[:2]
		schema, err := childNode.Schema.Project(export, proj)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &vdp.Node{
			Name: export, Schema: schema, Export: true,
			Def: vdp.SPJ{Inputs: []vdp.SPJInput{{Rel: child}},
				Where: algebra.Ge(algebra.A(proj[1]), algebra.CInt(0)), Proj: proj},
			Ann: randomAnn(rng, schema),
		})
	case 1: // multi-way join over all leaf-parents on j attributes
		inputs := make([]vdp.SPJInput, nLeaves)
		var conds []algebra.Expr
		var proj []string
		var attrs []relation.Attribute
		for i, lp := range lpNames {
			inputs[i] = vdp.SPJInput{Rel: lp}
			if i > 0 {
				conds = append(conds, algebra.Eq(
					algebra.A(fmt.Sprintf("j%d", i-1)), algebra.A(fmt.Sprintf("j%d", i))))
			}
			proj = append(proj, fmt.Sprintf("k%d", i))
			attrs = append(attrs, relation.Attribute{Name: fmt.Sprintf("k%d", i), Type: relation.KindInt})
		}
		proj = append(proj, "p0")
		attrs = append(attrs, relation.Attribute{Name: "p0", Type: relation.KindInt})
		schema := relation.MustSchema(export, attrs)
		nodes = append(nodes, &vdp.Node{
			Name: export, Schema: schema, Export: true,
			Def: vdp.SPJ{Inputs: inputs, JoinCond: algebra.Conj(conds...), Proj: proj},
			Ann: randomAnn(rng, schema),
		})
	case 2, 3: // union or difference of the first two leaf-parents
		l, r := findNode(nodes, lpNames[0]), findNode(nodes, lpNames[1])
		lProj := []string{l.Schema.AttrNames()[1]} // j0
		rProj := []string{r.Schema.AttrNames()[1]} // j1
		// Branch projections map positionally onto the node schema; the
		// node's attribute is named after the LEFT branch attribute,
		// matching the no-renaming convention used elsewhere.
		schema := relation.MustSchema(export, []relation.Attribute{{Name: lProj[0], Type: relation.KindInt}})
		lb := vdp.Branch{Rel: l.Name, Proj: lProj,
			Where: algebra.Lt(algebra.A(l.Schema.AttrNames()[2]), algebra.CInt(40))}
		rb := vdp.Branch{Rel: r.Name, Proj: rProj}
		var def vdp.Def
		if shape == 2 {
			def = vdp.UnionDef{L: lb, R: rb}
		} else {
			def = vdp.DiffDef{L: lb, R: rb}
		}
		ann := randomAnn(rng, schema)
		nodes = append(nodes, &vdp.Node{Name: export, Schema: schema, Export: true, Def: def, Ann: ann})
	}

	// Any leaf-parent left maximal (not consumed by the chosen export
	// shape) becomes an export itself — §5.1 allows non-source nodes in
	// Export, and it gives the soak extra query targets.
	used := map[string]bool{}
	for _, n := range nodes {
		if n.Def == nil {
			continue
		}
		for _, c := range n.Def.Children() {
			used[c] = true
		}
	}
	for _, n := range nodes {
		if n.Def != nil && !used[n.Name] && !n.Export {
			n.Export = true
		}
	}
	plan, err := vdp.New(nodes...)
	if err != nil {
		t.Fatalf("generated plan invalid: %v\nshape=%d", err, shape)
	}
	rec := trace.NewRecorder()
	med, err := New(Config{VDP: plan, Sources: conns, Clock: clk, Recorder: rec, Resilience: opts.resil})
	if err != nil {
		t.Fatal(err)
	}
	useKernel(med, opts.workers)
	for _, db := range dbs {
		ConnectLocal(med, db)
	}
	if err := med.Initialize(); err != nil {
		t.Fatalf("initialize: %v\nplan:\n%s", err, plan)
	}
	return &randPlan{plan: plan, dbs: dbs, med: med, rec: rec, export: export, domains: domains}
}

func findNode(nodes []*vdp.Node, name string) *vdp.Node {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// randomAnn picks an annotation uniformly over {all-m, all-v, random mix}.
func randomAnn(rng *rand.Rand, s *relation.Schema) vdp.Annotation {
	switch rng.Intn(3) {
	case 0:
		return vdp.AllMaterialized(s)
	case 1:
		return vdp.AllVirtual(s)
	}
	ann := make(vdp.Annotation, s.Arity())
	for _, a := range s.AttrNames() {
		if rng.Intn(2) == 0 {
			ann[a] = vdp.Materialized
		} else {
			ann[a] = vdp.Virtual
		}
	}
	return ann
}

// randomCond draws a query condition over the schema's attributes: nil a
// third of the time, else one or two comparisons against small constants.
func randomCond(rng *rand.Rand, s *relation.Schema) algebra.Expr {
	if rng.Intn(3) == 0 {
		return nil
	}
	attrs := s.AttrNames()
	var terms []algebra.Expr
	for i := 0; i < 1+rng.Intn(2); i++ {
		a, c := algebra.A(attrs[rng.Intn(len(attrs))]), algebra.CInt(rng.Int63n(50))
		terms = append(terms, []func(l, r algebra.Expr) algebra.Expr{
			algebra.Lt, algebra.Ge, algebra.Eq, algebra.Ne}[rng.Intn(4)](a, c))
	}
	return algebra.Conj(terms...)
}

// randomLeafCommit applies a random non-redundant transaction to one leaf.
func (rp *randPlan) randomLeafCommit(t *testing.T, rng *rand.Rand) {
	t.Helper()
	leaves := rp.plan.Leaves()
	leaf := leaves[rng.Intn(len(leaves))]
	src := rp.plan.Node(leaf).Source
	db := rp.dbs[src]
	cur, err := db.Current(leaf)
	if err != nil {
		t.Fatal(err)
	}
	d := delta.New()
	for i := 0; i < 1+rng.Intn(3); i++ {
		if rng.Intn(3) == 0 && cur.Len() > 0 {
			rows := cur.Rows()
			tp := rows[rng.Intn(len(rows))].Tuple
			if d.Rel(leaf).Count(tp) == 0 {
				d.Delete(leaf, tp)
				cur.Delete(tp)
			}
			continue
		}
		tp := relation.T(rng.Int63n(1<<40)+1000, rng.Int63n(rp.domains[leaf]), rng.Int63n(50), rng.Int63n(3))
		if cur.Count(tp) == 0 && d.Rel(leaf).Count(tp) == 0 {
			// Key uniqueness: huge random keys collide with negligible
			// probability; Apply would reject redundancy anyway.
			d.Insert(leaf, tp)
			cur.Insert(tp)
		}
	}
	if d.IsEmpty() {
		return
	}
	if _, err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
}

// checkStores asserts every materialized portion equals projected
// recomputation over the current leaf states, and carries exactly the
// join indexes its plan declares, each agreeing with a scan.
func (rp *randPlan) checkStores(t *testing.T) {
	t.Helper()
	if err := rp.med.CheckJoinIndexes(); err != nil {
		t.Fatalf("%v\nplan:\n%s", err, rp.plan)
	}
	leaves := map[string]*relation.Relation{}
	for _, leaf := range rp.plan.Leaves() {
		cur, err := rp.dbs[rp.plan.Node(leaf).Source].Current(leaf)
		if err != nil {
			t.Fatal(err)
		}
		leaves[leaf] = cur
	}
	truth, err := rp.plan.EvalAll(vdp.ResolverFromCatalog(leaves))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rp.plan.NonLeaves() {
		n := rp.plan.Node(name)
		st := rp.med.StoreSnapshot(name)
		if n.FullyVirtual() {
			if st != nil {
				t.Fatalf("virtual node %s has a store", name)
			}
			continue
		}
		want, err := projectSelectLocal(truth[name], name, n.MaterializedAttrs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Equal(want) {
			t.Fatalf("node %s diverged\nplan:\n%s\nstore:\n%swant:\n%s", name, rp.plan, st, want)
		}
	}
}

// TestRandomPlansSoak is the flagship randomized test: 120 random plans,
// each driven by a random interleaving of commits, update transactions
// and π σ queries (random attributes, condition and key-based mode), each
// checked for store correctness and trace consistency.
func TestRandomPlansSoak(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rp := buildRandomPlan(t, rng)
			for step := 0; step < 20; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					rp.randomLeafCommit(t, rng)
				case op < 8:
					if _, err := rp.med.RunUpdateTransaction(); err != nil {
						t.Fatalf("step %d: %v\nplan:\n%s", step, err, rp.plan)
					}
				default:
					n := rp.plan.Node(rp.export)
					attrs := n.Schema.AttrNames()
					if rng.Intn(2) == 0 && len(attrs) > 1 {
						attrs = attrs[:1+rng.Intn(len(attrs)-1)]
					}
					mode := []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce}[rng.Intn(3)]
					cond := randomCond(rng, n.Schema)
					if _, err := rp.med.Query(algebra.SelectFrom(rp.export, attrs, cond), QueryOptions{KeyBased: mode}); err != nil {
						t.Fatalf("step %d query: %v\nplan:\n%s", step, err, rp.plan)
					}
				}
			}
			// Drain and verify stores.
			for {
				ran, err := rp.med.RunUpdateTransaction()
				if err != nil {
					t.Fatal(err)
				}
				if !ran {
					break
				}
			}
			rp.checkStores(t)
			// Verify the whole trace against the §3 definitions.
			env := checker.Environment{VDP: rp.plan, Sources: rp.dbs, Trace: rp.rec}
			if err := env.CheckConsistency(); err != nil {
				t.Fatalf("consistency: %v\nplan:\n%s", err, rp.plan)
			}
		})
	}
}
