// Benchmarks: the primitive costs behind the paper's artifacts and behind
// the retired E-series sweeps, so regressions are visible. EXPERIMENTS.md
// indexes each artifact to the scenario spec or test that states its
// behaviour and points each retired sweep at the Benchmark* here that
// replaces it. The end-to-end numbers live in bench/ (BENCHMARK.json).
package squirrel_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"squirrel"
	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/federate"
	"squirrel/internal/relation"
	"squirrel/internal/sim"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// benchSystem assembles the paper's running example at the given scale
// with one of the named annotation configurations.
func benchSystem(b *testing.B, nR, nS int, cfg string) *squirrel.System {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	sys := squirrel.NewSystem()
	db1 := sys.AddSource("db1")
	r := squirrel.NewRelation(squirrel.MustSchema("R", []squirrel.Attribute{
		{Name: "r1", Type: squirrel.KindInt}, {Name: "r2", Type: squirrel.KindInt},
		{Name: "r3", Type: squirrel.KindInt}, {Name: "r4", Type: squirrel.KindInt}}, "r1"),
		squirrel.Set)
	for i := 1; i <= nR; i++ {
		r4 := int64(100)
		if rng.Intn(4) == 0 {
			r4 = 50
		}
		r.Insert(squirrel.T(int64(i), int64(1+rng.Intn(nS)), int64(rng.Intn(200)), r4))
	}
	db1.MustLoadTable(r)
	db2 := sys.AddSource("db2")
	s := squirrel.NewRelation(squirrel.MustSchema("S", []squirrel.Attribute{
		{Name: "s1", Type: squirrel.KindInt}, {Name: "s2", Type: squirrel.KindInt},
		{Name: "s3", Type: squirrel.KindInt}}, "s1"), squirrel.Set)
	for i := 1; i <= nS; i++ {
		s.Insert(squirrel.T(int64(i), int64(rng.Intn(10)), int64(rng.Intn(100))))
	}
	db2.MustLoadTable(s)
	sys.MustDefineView("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`)
	switch cfg {
	case "materialized":
	case "virtual-aux":
		sys.AnnotateAllVirtual("R'", []string{"r1", "r2", "r3"})
	case "hybrid":
		sys.AnnotateAllVirtual("R'", []string{"r1", "r2", "r3"})
		sys.AnnotateAllVirtual("S'", []string{"s1", "s2"})
		sys.Annotate("T", []string{"r1", "s1"}, []string{"r3", "s2"})
	case "virtual":
		sys.AnnotateAllVirtual("R'", []string{"r1", "r2", "r3"})
		sys.AnnotateAllVirtual("S'", []string{"s1", "s2"})
		sys.AnnotateAllVirtual("T", []string{"r1", "r3", "s1", "s2"})
	default:
		b.Fatalf("unknown config %q", cfg)
	}
	sys.MustStart()
	return sys
}

// nextKey hands out fresh primary keys for benchmark inserts.
var nextKey int64 = 1 << 40

func commitR(b *testing.B, sys *squirrel.System, n int) {
	b.Helper()
	d := squirrel.NewDelta()
	for i := 0; i < n; i++ {
		nextKey++
		d.Insert("R", squirrel.T(nextKey, int64(1+i%500), int64(i%200), 100))
	}
	if _, err := sys.MustSource("db1").Apply(d); err != nil {
		b.Fatal(err)
	}
}

func commitS(b *testing.B, sys *squirrel.System, n int) {
	b.Helper()
	d := squirrel.NewDelta()
	for i := 0; i < n; i++ {
		nextKey++
		d.Insert("S", squirrel.T(nextKey, int64(i%10), int64(i%100)))
	}
	if _, err := sys.MustSource("db2").Apply(d); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1IncrementalMaintenance measures one fully-materialized update
// transaction (Example 2.1 / Figure 1) at several scales.
func BenchmarkE1IncrementalMaintenance(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("R=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n, n/2, "materialized")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitR(b, sys, 8)
				if _, err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1RecomputeBaseline measures the from-scratch evaluation that
// incremental maintenance replaces.
func BenchmarkE1RecomputeBaseline(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("R=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n, n/2, "materialized")
			plan := sys.Plan()
			db1 := squirrel.SourceDBOf(sys.MustSource("db1"))
			db2 := squirrel.SourceDBOf(sys.MustSource("db2"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _ := db1.Current("R")
				s, _ := db2.Current("S")
				if _, err := plan.EvalAll(vdp.ResolverFromCatalog(
					map[string]*relation.Relation{"R": r, "S": s})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2VirtualAuxiliary measures Example 2.2's two propagation
// paths: ΔR (no polling) vs ΔS (polls db1 for the virtual R').
func BenchmarkE2VirtualAuxiliary(b *testing.B) {
	b.Run("deltaR-no-poll", func(b *testing.B) {
		sys := benchSystem(b, 4000, 2000, "virtual-aux")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			commitR(b, sys, 4)
			if _, err := sys.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deltaS-polls-db1", func(b *testing.B) {
		sys := benchSystem(b, 4000, 2000, "virtual-aux")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			commitS(b, sys, 4)
			if _, err := sys.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3HybridQueries measures Example 2.3's query paths against the
// hybrid export: hot (materialized only), cold standard, cold key-based.
func BenchmarkE3HybridQueries(b *testing.B) {
	cond, err := squirrel.ParseCondition("r3 < 100")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		attrs []string
		cond  squirrel.Expr
		opts  squirrel.QueryOptions
	}{
		{"hot-materialized", []string{"r1", "s1"}, nil, squirrel.QueryOptions{}},
		{"cold-standard", []string{"r3", "s1"}, cond, squirrel.QueryOptions{KeyBased: squirrel.KeyBasedOff}},
		{"cold-keybased", []string{"r3", "s1"}, cond, squirrel.QueryOptions{KeyBased: squirrel.KeyBasedForce}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sys := benchSystem(b, 4000, 2000, "hybrid")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.QueryExport("T", c.attrs, c.cond, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Figure2 measures the exact pseudo-consistency/consistency
// decision over the Figure 2 scenario.
func BenchmarkE4Figure2(b *testing.B) {
	sc, _ := checker.Figure2Scenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sc.PseudoConsistent()
		if err != nil || !p {
			b.Fatal("pseudo must hold")
		}
		c, err := sc.Consistent()
		if err != nil || c {
			b.Fatal("consistent must fail")
		}
	}
}

// BenchmarkE5Figure4 measures update transactions against the Example 5.1
// two-export plan (difference node, θ-join, hybrid E) for each churn side.
func BenchmarkE5Figure4(b *testing.B) {
	build := func(b *testing.B) *squirrel.System {
		sys := squirrel.NewSystem()
		rng := rand.New(rand.NewSource(2))
		for _, spec := range []struct{ src, rel, a1, a2 string }{
			{"dbA", "A", "a1", "a2"}, {"dbB", "B", "b1", "b2"},
			{"dbC", "C", "c1", "c2"}, {"dbD", "D", "d1", "d2"},
		} {
			rel := squirrel.NewRelation(squirrel.MustSchema(spec.rel, []squirrel.Attribute{
				{Name: spec.a1, Type: squirrel.KindInt}, {Name: spec.a2, Type: squirrel.KindInt}}, spec.a1),
				squirrel.Set)
			for i := 1; i <= 400; i++ {
				rel.Insert(squirrel.T(int64(i), int64(rng.Intn(40))))
			}
			sys.AddSource(spec.src).MustLoadTable(rel)
		}
		sys.MustDefineView("E", `SELECT a1, a2, b1 FROM A JOIN B ON a1*a1 + a2 < b2*b2`)
		sys.MustDefineView("G", `SELECT a1, b1 FROM E EXCEPT SELECT c1, d1 FROM C JOIN D ON c2 = d2`)
		sys.Annotate("E", []string{"a1", "b1"}, []string{"a2"})
		sys.AnnotateAllVirtual("B'", []string{"b1", "b2"})
		sys.AnnotateAllVirtual("G_r", []string{"c1", "d1"})
		sys.MustStart()
		return sys
	}
	for _, side := range []struct{ name, src, rel string }{
		{"AB-churn", "dbA", "A"}, {"CD-churn", "dbC", "C"},
	} {
		b.Run(side.name, func(b *testing.B) {
			sys := build(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nextKey++
				d := squirrel.NewDelta()
				d.Insert(side.rel, squirrel.T(nextKey, int64(i%40)))
				if _, err := sys.MustSource(side.src).Apply(d); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6KernelDiscipline measures the disciplined kernel propagation
// on the adversarial Example 6.1 pattern (simultaneous ΔR' and ΔS' whose
// join partners are each other).
func BenchmarkE6KernelDiscipline(b *testing.B) {
	sys := benchSystem(b, 2000, 1000, "materialized")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextKey++
		joinKey := nextKey
		d := squirrel.NewDelta()
		nextKey++
		d.Insert("R", squirrel.T(nextKey, joinKey, int64(i%200), 100))
		d.Insert("S", squirrel.T(joinKey, int64(i%10), int64(i%50)))
		if _, err := sys.MustSource("db1").Apply(d.Filter("R")); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.MustSource("db2").Apply(d.Filter("S")); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7ConsistencyCheck measures the trace checker (the Theorem 7.1
// verifier): replaying source logs and validating one recorded query.
func BenchmarkE7ConsistencyCheck(b *testing.B) {
	sys := benchSystem(b, 1000, 500, "hybrid")
	for i := 0; i < 10; i++ {
		commitR(b, sys, 3)
		if _, err := sys.Sync(); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.QueryExport("T", []string{"r1", "s1"}, nil, squirrel.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.CheckConsistency(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8FreshnessSimulation measures one full discrete-event
// simulation run of the Theorem 7.2 environment (commits, announcements,
// delayed polls, periodic update transactions, queries; 20k virtual
// ticks) plus its freshness verification.
func BenchmarkE8FreshnessSimulation(b *testing.B) {
	rSchema := squirrel.MustSchema("R", []squirrel.Attribute{
		{Name: "r1", Type: squirrel.KindInt}, {Name: "r2", Type: squirrel.KindInt},
		{Name: "r3", Type: squirrel.KindInt}, {Name: "r4", Type: squirrel.KindInt}}, "r1")
	sSchema := squirrel.MustSchema("S", []squirrel.Attribute{
		{Name: "s1", Type: squirrel.KindInt}, {Name: "s2", Type: squirrel.KindInt},
		{Name: "s3", Type: squirrel.KindInt}}, "s1")
	for i := 0; i < b.N; i++ {
		bld := vdp.NewBuilder()
		if err := bld.AddSource("db1", rSchema); err != nil {
			b.Fatal(err)
		}
		if err := bld.AddSource("db2", sSchema); err != nil {
			b.Fatal(err)
		}
		if err := bld.AddViewSQL("T",
			`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`); err != nil {
			b.Fatal(err)
		}
		plan, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		d := sim.Delays{
			Ann:         map[string]clock.Time{"db1": 100, "db2": 300},
			Comm:        map[string]clock.Time{"db1": 20, "db2": 50},
			QProcSource: map[string]clock.Time{"db1": 10, "db2": 15},
			UHold:       1000, UProc: 50, QProcMed: 5,
		}
		h, err := sim.NewHarness(plan, nil, d)
		if err != nil {
			b.Fatal(err)
		}
		h.Sim.Horizon = 20000
		next := int64(0)
		for t := clock.Time(137); t < 20000; t += 713 {
			h.ScheduleCommit(t, "db1", func() *delta.Delta {
				next++
				dd := delta.New()
				dd.Insert("R", relation.T(next, 10*(1+next%4), next%50, 100))
				return dd
			})
		}
		for t := clock.Time(550); t < 20000; t += 1103 {
			h.ScheduleQuery(t, "T", nil)
		}
		h.Sim.Run()
		if _, err := h.Environment(plan).CheckFreshness(h.Bounds()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Spectrum measures the update-vs-query cost asymmetry that
// produces the §1 crossover: one update transaction and one hot query per
// configuration.
func BenchmarkE9Spectrum(b *testing.B) {
	for _, cfg := range []string{"materialized", "hybrid", "virtual"} {
		b.Run(cfg+"/update", func(b *testing.B) {
			sys := benchSystem(b, 2000, 1000, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitR(b, sys, 4)
				if _, err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg+"/query", func(b *testing.B) {
			sys := benchSystem(b, 2000, 1000, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.QueryExport("T", []string{"r1", "s1"}, nil,
					squirrel.QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10ColdQueryByMaterialization measures the §5.3 trade-off: the
// cold (all-attributes) query cost as the export's materialized fraction
// grows.
func BenchmarkE10ColdQueryByMaterialization(b *testing.B) {
	fractions := []struct {
		name string
		mats []string
	}{
		{"0of4", nil},
		{"2of4", []string{"r1", "s1"}},
		{"4of4", []string{"r1", "r3", "s1", "s2"}},
	}
	all := []string{"r1", "r3", "s1", "s2"}
	for _, f := range fractions {
		b.Run(f.name, func(b *testing.B) {
			sys := benchAnnotated(b, f.mats, all)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.QueryExport("T", nil, nil,
					squirrel.QueryOptions{KeyBased: squirrel.KeyBasedOff}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchAnnotated(b *testing.B, mats, all []string) *squirrel.System {
	b.Helper()
	matSet := map[string]bool{}
	for _, m := range mats {
		matSet[m] = true
	}
	var virt []string
	for _, a := range all {
		if !matSet[a] {
			virt = append(virt, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	sys := squirrel.NewSystem()
	db1 := sys.AddSource("db1")
	r := squirrel.NewRelation(squirrel.MustSchema("R", []squirrel.Attribute{
		{Name: "r1", Type: squirrel.KindInt}, {Name: "r2", Type: squirrel.KindInt},
		{Name: "r3", Type: squirrel.KindInt}, {Name: "r4", Type: squirrel.KindInt}}, "r1"),
		squirrel.Set)
	for i := 1; i <= 3000; i++ {
		r.Insert(squirrel.T(int64(i), int64(1+rng.Intn(1500)), int64(rng.Intn(200)), 100))
	}
	db1.MustLoadTable(r)
	db2 := sys.AddSource("db2")
	s := squirrel.NewRelation(squirrel.MustSchema("S", []squirrel.Attribute{
		{Name: "s1", Type: squirrel.KindInt}, {Name: "s2", Type: squirrel.KindInt},
		{Name: "s3", Type: squirrel.KindInt}}, "s1"), squirrel.Set)
	for i := 1; i <= 1500; i++ {
		s.Insert(squirrel.T(int64(i), int64(rng.Intn(10)), int64(rng.Intn(100))))
	}
	db2.MustLoadTable(s)
	sys.MustDefineView("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`)
	sys.AnnotateAllVirtual("R'", []string{"r1", "r2", "r3"})
	sys.AnnotateAllVirtual("S'", []string{"s1", "s2"})
	sys.Annotate("T", mats, virt)
	sys.MustStart()
	return sys
}

// BenchmarkE11WireQuery measures a cold query whose poll crosses TCP
// loopback versus staying in-process (the Figure 3 deployment overhead).
func BenchmarkE11WireQuery(b *testing.B) {
	// The in-process variant; the TCP variant lives in the E11 experiment
	// table (it needs server lifecycle management awkward under b.N).
	sys := benchSystem(b, 2000, 1000, "hybrid")
	cond, _ := squirrel.ParseCondition("r3 < 100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.QueryExport("T", []string{"r3", "s1"}, cond,
			squirrel.QueryOptions{KeyBased: squirrel.KeyBasedOff}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Batching measures the smash-annihilation ablation: one
// churn-heavy batch propagated as a single update transaction.
func BenchmarkE12Batching(b *testing.B) {
	for _, batch := range []int{1, 25} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sys := benchSystem(b, 2000, 1000, "materialized")
			src := sys.MustSource("db1")
			hot := squirrel.T(int64(987654), int64(10), int64(1), int64(100))
			present := false
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < batch; c++ {
					d := squirrel.NewDelta()
					if present {
						d.Delete("R", hot)
					} else {
						d.Insert("R", hot)
					}
					present = !present
					if _, err := src.Apply(d); err != nil {
						b.Fatal(err)
					}
				}
				if err := sys.SyncAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13JoinStrategies isolates the three join strategies of the
// §5.3 ablation: no usable equality, a join index built on the spot, and a
// resident join index on R.
func BenchmarkE13JoinStrategies(b *testing.B) {
	ls := squirrel.MustSchema("L", []squirrel.Attribute{
		{Name: "lk", Type: squirrel.KindInt}, {Name: "lv", Type: squirrel.KindInt}})
	rs := squirrel.MustSchema("Rr", []squirrel.Attribute{
		{Name: "rk", Type: squirrel.KindInt}, {Name: "rv", Type: squirrel.KindInt}})
	rng := rand.New(rand.NewSource(6))
	const n = 1000
	l := squirrel.NewRelation(ls, squirrel.Bag)
	rPlain := squirrel.NewRelation(rs, squirrel.Bag)
	rIndexed := squirrel.NewRelation(rs, squirrel.Bag)
	if err := rIndexed.EnsureIndex("rk"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Add(squirrel.T(rng.Intn(n), rng.Intn(10)), 1)
		tr := squirrel.T(rng.Intn(n), rng.Intn(10))
		rPlain.Add(tr, 1)
		rIndexed.Add(tr, 1)
	}
	hashCond := algebra.Eq(algebra.A("lk"), algebra.A("rk"))
	nlCond := algebra.Eq(algebra.Add(algebra.A("lk"), algebra.CInt(0)), algebra.A("rk"))
	cases := []struct {
		name string
		r    *squirrel.Relation
		cond squirrel.Expr
	}{
		{"nested-loop", rPlain, nlCond},
		{"index-on-the-spot", rPlain, hashCond},
		{"resident-index", rIndexed, hashCond},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.EvalJoin(l, c.r, c.cond, "J"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchMediatorE15 assembles the running example around a RAW mediator
// (no trace recorder — recording clones every answer, which would swamp a
// throughput benchmark) for the concurrent-read experiment.
func benchMediatorE15(b *testing.B, nR, nS int, cfg string) (*squirrel.Mediator, *source.DB, *source.DB) {
	b.Helper()
	rng := rand.New(rand.NewSource(15))
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	r := squirrel.NewRelation(squirrel.MustSchema("R", []squirrel.Attribute{
		{Name: "r1", Type: squirrel.KindInt}, {Name: "r2", Type: squirrel.KindInt},
		{Name: "r3", Type: squirrel.KindInt}, {Name: "r4", Type: squirrel.KindInt}}, "r1"),
		squirrel.Set)
	for i := 1; i <= nR; i++ {
		r4 := int64(100)
		if rng.Intn(4) == 0 {
			r4 = 50
		}
		r.Insert(squirrel.T(int64(i), int64(1+rng.Intn(nS)), int64(rng.Intn(200)), r4))
	}
	if err := db1.LoadRelation(r); err != nil {
		b.Fatal(err)
	}
	db2 := source.NewDB("db2", clk)
	s := squirrel.NewRelation(squirrel.MustSchema("S", []squirrel.Attribute{
		{Name: "s1", Type: squirrel.KindInt}, {Name: "s2", Type: squirrel.KindInt},
		{Name: "s3", Type: squirrel.KindInt}}, "s1"), squirrel.Set)
	for i := 1; i <= nS; i++ {
		s.Insert(squirrel.T(int64(i), int64(rng.Intn(10)), int64(rng.Intn(100))))
	}
	if err := db2.LoadRelation(s); err != nil {
		b.Fatal(err)
	}
	builder := vdp.NewBuilder()
	if err := builder.AddSource("db1", r.Schema()); err != nil {
		b.Fatal(err)
	}
	if err := builder.AddSource("db2", s.Schema()); err != nil {
		b.Fatal(err)
	}
	if err := builder.AddViewSQL("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`); err != nil {
		b.Fatal(err)
	}
	switch cfg {
	case "materialized":
	case "hybrid":
		builder.Annotate("R'", squirrel.Ann(nil, []string{"r1", "r2", "r3"}))
		builder.Annotate("S'", squirrel.Ann(nil, []string{"s1", "s2"}))
		builder.Annotate("T", squirrel.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	case "virtual":
		builder.Annotate("R'", squirrel.Ann(nil, []string{"r1", "r2", "r3"}))
		builder.Annotate("S'", squirrel.Ann(nil, []string{"s1", "s2"}))
		builder.Annotate("T", squirrel.Ann(nil, []string{"r1", "r3", "s1", "s2"}))
	default:
		b.Fatalf("unknown config %q", cfg)
	}
	plan, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	med, err := core.New(core.Config{
		VDP: plan,
		Sources: map[string]squirrel.SourceConn{
			"db1": core.LocalSource{DB: db1}, "db2": core.LocalSource{DB: db2}},
		Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	core.ConnectLocal(med, db1)
	core.ConnectLocal(med, db2)
	if err := med.Initialize(); err != nil {
		b.Fatal(err)
	}
	return med, db1, db2
}

// BenchmarkE15ConcurrentReads measures query throughput with 1/4/16
// reader goroutines while an update stream churns (commit + update
// transaction per iteration). With the versioned store, the {r1,s1}
// query is lock-free in the materialized and hybrid configurations (both
// attributes materialized in T), so throughput should scale with
// readers; the virtual configuration takes the polling path and bounds
// the cost of version pinning + Eager Compensation under contention.
func BenchmarkE15ConcurrentReads(b *testing.B) {
	for _, cfg := range []string{"materialized", "hybrid", "virtual"} {
		for _, readers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/readers=%d", cfg, readers), func(b *testing.B) {
				med, db1, db2 := benchMediatorE15(b, 4000, 2000, cfg)
				stop := make(chan struct{})
				var churn sync.WaitGroup
				// The update stream runs as it does in deployment: each
				// source commits on its own thread while the mediator's
				// update loop drains the queue on another.
				churn.Add(3)
				go func() {
					defer churn.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						d := squirrel.NewDelta()
						nextKey++
						d.Insert("R", squirrel.T(nextKey, int64(1+nextKey%500), int64(nextKey%200), 100))
						if _, err := db1.Apply(d); err != nil {
							b.Error(err)
							return
						}
					}
				}()
				go func() {
					defer churn.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						d := squirrel.NewDelta()
						nextKey++
						d.Insert("S", squirrel.T(nextKey, int64(nextKey%10), int64(nextKey%100)))
						if _, err := db2.Apply(d); err != nil {
							b.Error(err)
							return
						}
					}
				}()
				go func() {
					defer churn.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := med.RunUpdateTransaction(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
				attrs := []string{"r1", "s1"}
				per := b.N/readers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < readers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							if _, err := med.Query(algebra.SelectFrom("T", attrs, nil), squirrel.QueryOptions{}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				churn.Wait()
			})
		}
	}
}

// benchWidePropagationMediator assembles the wide-VDP benchmark topology
// for the staged kernel: `units` independent join views T0..T{units-1},
// each R{i} ⋈ S{i}. All R leaves live on one shared source ("upd") so a
// single source transaction announces work for every unit at once; each
// S{i} lives on its own source ("pol{i}") wrapped with deterministic
// injected latency, modelling the network round trip of a real remote
// database. S{i}' and T{i} are hybrid with the S-payload virtual — the
// same shape as the fault-tolerance chaos environment — so maintaining
// T{i} after an R commit forces an Eager-Compensated poll of pol{i}.
// Update-transaction latency is then dominated by the `units` polls, which
// the VAP issues concurrently, one goroutine per polled source.
func benchWidePropagationMediator(b *testing.B, units int, latency time.Duration) (*squirrel.Mediator, *source.DB) {
	b.Helper()
	clk := &clock.Logical{}
	rng := rand.New(rand.NewSource(7))
	builder := vdp.NewBuilder()
	inj := squirrel.NewFaultInjector(7)
	conns := map[string]squirrel.SourceConn{}

	upd := source.NewDB("upd", clk)
	conns["upd"] = core.LocalSource{DB: upd}
	var polls []*source.DB
	for i := 0; i < units; i++ {
		rs := squirrel.MustSchema(fmt.Sprintf("R%d", i), []squirrel.Attribute{
			{Name: fmt.Sprintf("ra%d", i), Type: squirrel.KindInt},
			{Name: fmt.Sprintf("rb%d", i), Type: squirrel.KindInt},
			{Name: fmt.Sprintf("rc%d", i), Type: squirrel.KindInt}}, fmt.Sprintf("ra%d", i))
		r := squirrel.NewRelation(rs, squirrel.Set)
		for k := 1; k <= 8; k++ {
			r.Insert(squirrel.T(int64(k), int64(1+rng.Intn(4)), int64(rng.Intn(50))))
		}
		if err := upd.LoadRelation(r); err != nil {
			b.Fatal(err)
		}
		if err := builder.AddSource("upd", rs); err != nil {
			b.Fatal(err)
		}

		src := fmt.Sprintf("pol%d", i)
		db := source.NewDB(src, clk)
		ss := squirrel.MustSchema(fmt.Sprintf("S%d", i), []squirrel.Attribute{
			{Name: fmt.Sprintf("sa%d", i), Type: squirrel.KindInt},
			{Name: fmt.Sprintf("sb%d", i), Type: squirrel.KindInt}}, fmt.Sprintf("sa%d", i))
		s := squirrel.NewRelation(ss, squirrel.Set)
		for k := 1; k <= 4; k++ {
			s.Insert(squirrel.T(int64(k), int64(rng.Intn(100))))
		}
		if err := db.LoadRelation(s); err != nil {
			b.Fatal(err)
		}
		if err := builder.AddSource(src, ss); err != nil {
			b.Fatal(err)
		}
		polls = append(polls, db)
		conns[src] = squirrel.WrapChaos(core.LocalSource{DB: db}, inj)

		if err := builder.AddViewSQL(fmt.Sprintf("T%d", i),
			fmt.Sprintf("SELECT ra%d, rc%d, sa%d, sb%d FROM R%d JOIN S%d ON rb%d = sa%d",
				i, i, i, i, i, i, i, i)); err != nil {
			b.Fatal(err)
		}
		builder.Annotate(fmt.Sprintf("S%d'", i),
			squirrel.Ann([]string{fmt.Sprintf("sa%d", i)}, []string{fmt.Sprintf("sb%d", i)}))
		builder.Annotate(fmt.Sprintf("T%d", i), squirrel.Ann(
			[]string{fmt.Sprintf("ra%d", i), fmt.Sprintf("rc%d", i), fmt.Sprintf("sa%d", i)},
			[]string{fmt.Sprintf("sb%d", i)}))
	}
	plan, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	med, err := core.New(core.Config{
		VDP: plan, Sources: conns, Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	core.ConnectLocal(med, upd)
	for _, db := range polls {
		core.ConnectLocal(med, db)
	}
	if err := med.Initialize(); err != nil {
		b.Fatal(err)
	}
	// Inject the poll latency only after the initial full load.
	for i := 0; i < units; i++ {
		inj.Set(fmt.Sprintf("pol%d", i), squirrel.Faults{LatencyProb: 1, Latency: latency})
	}
	return med, upd
}

// BenchmarkColumnarPropagation (E19) measures the columnar data plane
// end-to-end in the compute-bound regime: the running example fully
// materialized over large base relations, no injected poll latency, with
// group-commit batching (8 source transactions coalesce into one update
// transaction, so one copy-on-write clone per touched node amortizes the
// whole batch) and a hot materialized query per iteration. In this regime
// an update transaction is dominated by cloning and re-keying the stores,
// which the columnar store turns into slice copies plus open-addressed
// probes over column vectors. EXPERIMENTS.md E19 records the numbers.
func BenchmarkColumnarPropagation(b *testing.B) {
	const batch = 8
	med, db1, db2 := benchMediatorE15(b, 24000, 12000, "materialized")
	attrs := []string{"r1", "s1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < batch; c++ {
			d := squirrel.NewDelta()
			nextKey++
			d.Insert("R", squirrel.T(nextKey, int64(1+nextKey%500), int64(nextKey%200), 100))
			if _, err := db1.Apply(d); err != nil {
				b.Fatal(err)
			}
			d = squirrel.NewDelta()
			nextKey++
			d.Insert("S", squirrel.T(nextKey, int64(nextKey%10), int64(nextKey%100)))
			if _, err := db2.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
		// One coalesced drain: the transaction smashes the whole
		// 16-announcement queue into a single propagated delta.
		ran, err := med.RunUpdateTransaction()
		if err != nil {
			b.Fatal(err)
		}
		if !ran {
			b.Fatal("update transaction had nothing to do")
		}
		if _, err := med.Query(algebra.SelectFrom("T", attrs, nil), squirrel.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPropagation measures one update transaction over the
// wide topology above (8 units, 2ms injected poll latency). Each iteration
// commits one insert per R leaf in a single source transaction, then runs
// the update transaction that maintains all 8 join views. The 8 polls
// overlap, so an iteration pays about one round trip rather than 8 in
// sequence; the kernel itself runs on the mediator's GOMAXPROCS pool.
func BenchmarkParallelPropagation(b *testing.B) {
	const units = 8
	med, upd := benchWidePropagationMediator(b, units, 2*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := squirrel.NewDelta()
		for u := 0; u < units; u++ {
			nextKey++
			d.Insert(fmt.Sprintf("R%d", u),
				squirrel.T(nextKey, int64(1+i%4), int64(i%50)))
		}
		if _, err := upd.Apply(d); err != nil {
			b.Fatal(err)
		}
		ran, err := med.RunUpdateTransaction()
		if err != nil {
			b.Fatal(err)
		}
		if !ran {
			b.Fatal("update transaction had nothing to do")
		}
	}
}

// BenchmarkE21SubscriptionFanout (E21) measures push-based continuous
// queries (the subscription subsystem). The drain variant is the
// steady-state fan-out cost: one 8-row commit published to N subscribers
// that each receive and consume their delta frame — frames alias the
// single committed delta, so the per-subscriber cost is queue bookkeeping,
// not copying. The stalled variant is the backpressure guarantee under
// load: N subscribers with 4-frame queues that never drain, so every
// commit coalesces into each tail via Smash; what is measured is the
// commit path itself, which must stay flat rather than stall on slow
// consumers.
func BenchmarkE21SubscriptionFanout(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("drain/subs=%d", n), func(b *testing.B) {
			sys := benchSystem(b, 1000, 500, "materialized")
			defer sys.Shutdown()
			med := sys.Mediator()
			subs := make([]*core.Subscription, n)
			for i := range subs {
				s, err := med.Subscribe("T", core.SubscribeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := s.TryRecv(); err != nil || !ok {
					b.Fatalf("initial snapshot: ok=%v err=%v", ok, err)
				}
				subs[i] = s
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitR(b, sys, 8)
				if _, err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
				for _, s := range subs {
					f, ok, err := s.TryRecv()
					if err != nil || !ok || f.Kind != core.SubDelta {
						b.Fatalf("frame: kind=%v ok=%v err=%v", f.Kind, ok, err)
					}
				}
			}
			b.StopTimer()
			for _, s := range subs {
				s.Close()
			}
		})
		b.Run(fmt.Sprintf("stalled/subs=%d", n), func(b *testing.B) {
			sys := benchSystem(b, 1000, 500, "materialized")
			defer sys.Shutdown()
			med := sys.Mediator()
			subs := make([]*core.Subscription, n)
			for i := range subs {
				s, err := med.Subscribe("T", core.SubscribeOptions{MaxQueue: 4})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := s.TryRecv(); err != nil || !ok {
					b.Fatalf("initial snapshot: ok=%v err=%v", ok, err)
				}
				subs[i] = s
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitR(b, sys, 8)
				if _, err := sys.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, s := range subs {
				s.Close()
			}
		})
	}
}

// BenchmarkE22FederationFanIn (E22) measures two-hop propagation through
// the 1×2×4 federation tree (DESIGN.md §11): per iteration, `batch`
// round-robin leaf commits are absorbed by the two tier mediators and
// lifted into the top mediator through the export-as-source hop.
func BenchmarkE22FederationFanIn(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			f, err := newFedBench(batch)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fedBench is the 1×2×4 federation tree of DESIGN.md §11: four leaf
// databases, two middle-tier mediators each joining its own pair, and a
// top mediator joining the two exports. Announcements flow synchronously
// (ConnectLocal for the leaf hop, Exporter.Subscribe for the tier hop),
// so the measured cost is pure mediator work, not transport. Each Step
// commits batch leaf transactions round-robin and drains both hops.
// Commits past the seeded join window stop producing T rows but still
// exercise the full per-hop machinery (empty export deltas are announced
// for sequence density).
type fedBench struct {
	leaves []*source.DB     // db1..db4
	tiers  []*core.Mediator // meda, medb
	top    *core.Mediator
	cnt    []int64 // per-leaf commit counters (keeps tree-wide keys aligned)
	batch  int
	n      int
}

// newFedBench assembles the tree. 4096 rows of RA/RB carry join targets
// (i, 16+i) for later SA/SB inserts; SA/SB seed the 16 hot keys RA/RB
// inserts join against.
func newFedBench(batch int) (*fedBench, error) {
	const seedR = 4096
	clk := &clock.Logical{}
	f := &fedBench{cnt: make([]int64, 4), batch: batch}
	mk := func(rel, k, v string) *relation.Schema {
		return relation.MustSchema(rel, []relation.Attribute{
			{Name: k, Type: relation.KindInt}, {Name: v, Type: relation.KindInt}}, k)
	}
	schemas := []*relation.Schema{
		mk("RA", "a1", "a2"), mk("SA", "a3", "a4"),
		mk("RB", "b1", "b2"), mk("SB", "b3", "b4"),
	}
	for i, s := range schemas {
		db := source.NewDB(fmt.Sprintf("db%d", i+1), clk)
		if err := db.CreateRelation(s, relation.Set); err != nil {
			return nil, err
		}
		seed := delta.New()
		if i%2 == 0 { // RA/RB: join targets for later SA/SB inserts
			for k := int64(0); k < seedR; k++ {
				seed.Insert(s.Name(), relation.T(k, 16+k))
			}
		} else { // SA/SB: the 16 hot keys RA/RB inserts join against
			for k := int64(0); k < 16; k++ {
				seed.Insert(s.Name(), relation.T(k, 100+k))
			}
		}
		db.MustApply(seed)
		f.leaves = append(f.leaves, db)
	}

	var exps []*federate.Exporter
	for _, tier := range []struct {
		name, view, sql string
		left, right     int
	}{
		{"meda", "VA", `SELECT a1, a4 FROM RA JOIN SA ON a2 = a3`, 0, 1},
		{"medb", "VB", `SELECT b1, b4 FROM RB JOIN SB ON b2 = b3`, 2, 3},
	} {
		l, r := f.leaves[tier.left], f.leaves[tier.right]
		b := vdp.NewBuilder()
		if err := b.AddSource(l.Name(), schemas[tier.left]); err != nil {
			return nil, err
		}
		if err := b.AddSource(r.Name(), schemas[tier.right]); err != nil {
			return nil, err
		}
		if err := b.AddViewSQL(tier.view, tier.sql); err != nil {
			return nil, err
		}
		plan, err := b.Build()
		if err != nil {
			return nil, err
		}
		med, err := core.New(core.Config{VDP: plan, Sources: map[string]core.SourceConn{
			l.Name(): core.LocalSource{DB: l}, r.Name(): core.LocalSource{DB: r},
		}, Clock: clk})
		if err != nil {
			return nil, err
		}
		core.ConnectLocal(med, l)
		core.ConnectLocal(med, r)
		if err := med.Initialize(); err != nil {
			return nil, err
		}
		x, err := federate.New(med, tier.name)
		if err != nil {
			return nil, err
		}
		f.tiers = append(f.tiers, med)
		exps = append(exps, x)
	}

	b := vdp.NewBuilder()
	conns := map[string]core.SourceConn{}
	for _, x := range exps {
		for _, rel := range x.Relations() {
			s, err := x.Schema(rel)
			if err != nil {
				return nil, err
			}
			if err := b.AddSource(x.Name(), s); err != nil {
				return nil, err
			}
		}
		conns[x.Name()] = x
	}
	if err := b.AddViewSQL("T", `SELECT a1, a4, b4 FROM VA JOIN VB ON a1 = b1`); err != nil {
		return nil, err
	}
	plan, err := b.Build()
	if err != nil {
		return nil, err
	}
	top, err := core.New(core.Config{VDP: plan, Sources: conns, Clock: clk})
	if err != nil {
		return nil, err
	}
	for _, x := range exps {
		x.Subscribe(top.OnAnnouncement)
	}
	if err := top.Initialize(); err != nil {
		return nil, err
	}
	f.top = top
	return f, nil
}

// commitLeaf applies the next scripted insert to leaf l (0..3). RA/RB
// inserts join the 16 hot SA/SB seed keys; SA/SB inserts join the RA/RB
// seed rows, so every commit eventually surfaces in T when its partner
// leaf on the other branch reaches the same counter.
func (f *fedBench) commitLeaf(l int) error {
	c := f.cnt[l]
	f.cnt[l]++
	d := delta.New()
	switch l {
	case 0:
		d.Insert("RA", relation.T(10000+c, c%16))
	case 1:
		d.Insert("SA", relation.T(16+c, 500+c))
	case 2:
		d.Insert("RB", relation.T(10000+c, c%16))
	case 3:
		d.Insert("SB", relation.T(16+c, 500+c))
	}
	_, err := f.leaves[l].Apply(d)
	return err
}

// Step runs one drain cycle: batch commits, tier transactions, top
// transactions.
func (f *fedBench) Step() error {
	for i := 0; i < f.batch; i++ {
		if err := f.commitLeaf(f.n % 4); err != nil {
			return err
		}
		f.n++
	}
	for _, tier := range f.tiers {
		if err := drainMed(tier); err != nil {
			return err
		}
	}
	return drainMed(f.top)
}

// drainMed runs update transactions until the mediator's queue is empty.
func drainMed(m *core.Mediator) error {
	for {
		ran, err := m.RunUpdateTransaction()
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
	}
}
