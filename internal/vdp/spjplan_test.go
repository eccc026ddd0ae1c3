package vdp

import (
	"fmt"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// chainVDP is A'(a1,a2) ⋈ B'(b1,b2) ⋈ C'(c1,c2) under cond, each operand a
// pass-through leaf-parent.
func chainVDP(t testing.TB, cond algebra.Expr) *VDP {
	t.Helper()
	var nodes []*Node
	var inputs []SPJInput
	for _, l := range []string{"a", "b", "c"} {
		leaf, lp := fmt.Sprintf("%c", l[0]-32), fmt.Sprintf("%c'", l[0]-32)
		attrs := []string{l + "1", l + "2"}
		s := intSchema(lp, attrs...)
		nodes = append(nodes,
			&Node{Name: leaf, Schema: intSchema(leaf, attrs...), Source: "db"},
			&Node{Name: lp, Schema: s, Ann: AllMaterialized(s), Def: SPJ{Inputs: []SPJInput{{Rel: leaf}}, Proj: attrs}})
		inputs = append(inputs, SPJInput{Rel: lp})
	}
	j := intSchema("J", "a1", "b1", "c1")
	nodes = append(nodes, &Node{Name: "J", Schema: j, Ann: AllMaterialized(j), Export: true,
		Def: SPJ{Inputs: inputs, JoinCond: cond, Proj: []string{"a1", "b1", "c1"}}})
	v, err := New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestJoinIndexesDerivedFromPlan(t *testing.T) {
	eq := func(l, r string) algebra.Expr { return algebra.Eq(algebra.A(l), algebra.A(r)) }
	show := func(v *VDP, nodes ...string) string {
		out := ""
		for _, n := range nodes {
			out += fmt.Sprintf("%s%v ", n, v.JoinIndexes(n))
		}
		return out
	}
	// The running example: each side is probed on its join attribute; the
	// leaf-parents' single-input rules and T itself need nothing.
	paper := paperVDP(t, nil, nil, nil)
	if got, want := show(paper, "R'", "S'", "T", "R"), "R'[[r2]] S'[[s1]] T[] R[] "; got != want {
		t.Errorf("paper plan: %s, want %s", got, want)
	}
	// A chain a2=b1, b2=c1: B' is probed on b1 (from A') and on b2 (from
	// C'); A' and C' once each — whichever input the delta enters at.
	chain := chainVDP(t, algebra.Conj(eq("a2", "b1"), eq("c1", "b2")))
	if got, want := show(chain, "A'", "B'", "C'"), "A'[[a2]] B'[[b1] [b2]] C'[[c1]] "; got != want {
		t.Errorf("chain plan: %s, want %s", got, want)
	}
	// Two equalities between the same pair form one composite key, sorted.
	composite := chainVDP(t, algebra.Conj(eq("b2", "a2"), eq("a1", "b1"), eq("b1", "c1")))
	if got, want := show(composite, "A'", "B'", "C'"), "A'[[a1 a2]] B'[[b1 b2] [b1]] C'[[c1]] "; got != want {
		t.Errorf("composite plan: %s, want %s", got, want)
	}
	// Nothing to probe on: arithmetic hides the equality, the rest is a
	// theta join. No index is declared; the residual keeps both conjuncts.
	theta := chainVDP(t, algebra.Conj(
		algebra.Eq(algebra.Add(algebra.A("a2"), algebra.CInt(0)), algebra.A("b1")),
		algebra.Lt(algebra.A("b2"), algebra.A("c1"))))
	if got, want := show(theta, "A'", "B'", "C'"), "A'[] B'[] C'[] "; got != want {
		t.Errorf("theta plan: %s, want %s", got, want)
	}
	if got := len(algebra.Conjuncts(theta.plans["J"].residual)); got != 2 {
		t.Errorf("theta residual keeps %d conjuncts, want 2", got)
	}
	// The self-join probes the one child on either side's attribute.
	self, _ := selfJoinVDP(t)
	if got, want := show(self, "P'"), "P'[[p3] [p2]] "; got != want {
		t.Errorf("self-join plan: %s, want %s", got, want)
	}
}

// The three join shapes above stay exact (incremental = recompute) with
// and without resident indexes, and the row counters tell the two apart.
func TestChainJoinsIncrementalAndCounted(t *testing.T) {
	eq := func(l, r string) algebra.Expr { return algebra.Eq(algebra.A(l), algebra.A(r)) }
	conds := map[string]algebra.Expr{
		"chain":     algebra.Conj(eq("a2", "b1"), eq("c1", "b2")),
		"composite": algebra.Conj(eq("b2", "a2"), eq("a1", "b1"), eq("b1", "c1")),
		"theta": algebra.Conj(
			algebra.Eq(algebra.Add(algebra.A("a2"), algebra.CInt(0)), algebra.A("b1")),
			algebra.Lt(algebra.A("b2"), algebra.A("c1"))),
	}
	for name, cond := range conds {
		v := chainVDP(t, cond)
		leaves := map[string]*relation.Relation{}
		for i, leaf := range []string{"A", "B", "C"} {
			rel := relation.NewSet(v.Node(leaf).Schema)
			for k := 0; k < 12; k++ {
				rel.Insert(relation.T((k+i)%4, (k*7+i)%4))
			}
			leaves[leaf] = rel
		}
		d := delta.New()
		d.Insert("A", relation.T(9, 1))
		d.Insert("B", relation.T(1, 2))
		d.Delete("B", relation.T(1, 1))
		d.Insert("C", relation.T(2, 9))
		p0, s0 := v.JoinRowCounts()
		checkIncrementalEqualsRecompute(t, v, leaves, d)
		p1, s1 := v.JoinRowCounts()
		if name == "theta" {
			if p1 != p0 || s1 == s0 {
				t.Errorf("theta join: probed %d scanned %d rows; nothing to probe, everything scanned", p1-p0, s1-s0)
			}
		} else if p1 == p0 || s1 == s0 {
			// The resident run only probes, the bare run only scans.
			t.Errorf("%s join: probed %d scanned %d rows over the two runs", name, p1-p0, s1-s0)
		}
	}
}

// BenchmarkRuleFiringBySiblingSize fires rule #1 of Example 2.1
// (ΔT = ΔR′ ⋈ S′) for an 8-atom ΔR′ against a stored S′ of growing size.
// With the sibling's join index resident the firing costs O(|Δ|): ns/op
// must stay flat across |S′| (EXPERIMENTS.md E23).
func BenchmarkRuleFiringBySiblingSize(b *testing.B) {
	v := paperVDP(b, nil, nil, nil)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("sibling=%d", n), func(b *testing.B) {
			sp := relation.NewBag(v.Node("S'").Schema)
			for i := 0; i < n; i++ {
				sp.Add(relation.T(i, i%97), 1)
			}
			for _, attrs := range v.JoinIndexes("S'") {
				if err := sp.EnsureIndex(attrs...); err != nil {
					b.Fatal(err)
				}
			}
			resolve := ResolverFromCatalog(map[string]*relation.Relation{"S'": sp})
			d := delta.NewRel("R'")
			for i := 0; i < 8; i++ {
				d.Add(relation.T(1_000_000+i, (i*7919)%n, i), 1-2*(i%2))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := v.Propagate("T", "R'", d, resolve)
				if err != nil {
					b.Fatal(err)
				}
				if out.Len() != 8 {
					b.Fatalf("ΔT has %d rows, want 8", out.Len())
				}
			}
		})
	}
}
