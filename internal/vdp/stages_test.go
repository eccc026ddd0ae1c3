package vdp

import (
	"fmt"
	"testing"

	"squirrel/internal/relation"
)

func intSchema(name string, attrs ...string) *relation.Schema {
	as := make([]relation.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = relation.Attribute{Name: a, Type: relation.KindInt}
	}
	return relation.MustSchema(name, as, attrs[0])
}

// StageCount reports the number of antichain stages.
func (v *VDP) StageCount() int { return len(v.stages) }

// MaxStageWidth reports the size of the widest antichain stage — the
// maximum parallelism a staged executor can extract from this plan.
func (v *VDP) MaxStageWidth() int {
	w := 0
	for _, s := range v.stages {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// checkStageInvariants asserts the three Stages() guarantees the staged
// kernel relies on (see stages.go).
func checkStageInvariants(t *testing.T, v *VDP) {
	t.Helper()
	stages := v.Stages()

	// Concatenating the stages reproduces the topological order exactly,
	// so a staged executor replays the serial kernel's discipline.
	var flat []string
	stageOf := make(map[string]int)
	for i, stage := range stages {
		if len(stage) == 0 {
			t.Fatalf("stage %d is empty", i)
		}
		for _, name := range stage {
			flat = append(flat, name)
			stageOf[name] = i
		}
	}
	order := v.Order()
	if len(flat) != len(order) {
		t.Fatalf("stages cover %d nodes, order has %d", len(flat), len(order))
	}
	for i, name := range order {
		if flat[i] != name {
			t.Fatalf("concat(Stages())[%d] = %q, Order()[%d] = %q", i, flat[i], i, name)
		}
		if v.TopoIndex(name) != i {
			t.Fatalf("TopoIndex(%q) = %d, want %d", name, v.TopoIndex(name), i)
		}
	}

	// Every child lies in a strictly earlier stage: at stage entry, all
	// deltas feeding the stage are final.
	for _, stage := range stages {
		for _, name := range stage {
			for _, c := range v.Children(name) {
				if stageOf[c] >= stageOf[name] {
					t.Errorf("child %q (stage %d) not strictly before parent %q (stage %d)",
						c, stageOf[c], name, stageOf[name])
				}
			}
		}
	}

	// No stage member is an ancestor of another member of its stage
	// (stages are antichains).
	var ancestors func(name string, seen map[string]bool)
	ancestors = func(name string, seen map[string]bool) {
		for _, p := range v.Parents(name) {
			if !seen[p] {
				seen[p] = true
				ancestors(p, seen)
			}
		}
	}
	for _, stage := range stages {
		for _, name := range stage {
			up := make(map[string]bool)
			ancestors(name, up)
			for _, other := range stage {
				if other != name && up[other] {
					t.Errorf("stage members %q and %q are comparable (%q is an ancestor)",
						name, other, other)
				}
			}
		}
	}

	if v.StageCount() != len(stages) {
		t.Errorf("StageCount() = %d, want %d", v.StageCount(), len(stages))
	}
	width := 0
	for _, stage := range stages {
		if len(stage) > width {
			width = len(stage)
		}
	}
	if v.MaxStageWidth() != width {
		t.Errorf("MaxStageWidth() = %d, want %d", v.MaxStageWidth(), width)
	}
}

func TestStagesPaperPlan(t *testing.T) {
	v := paperVDP(t, nil, nil, nil)
	checkStageInvariants(t, v)
	// R, S | R', S' | T: the leaf-parents are independent, T joins them.
	if got, want := v.StageCount(), 3; got != want {
		t.Fatalf("StageCount = %d, want %d (stages: %v)", got, want, v.Stages())
	}
	if got, want := v.MaxStageWidth(), 2; got != want {
		t.Fatalf("MaxStageWidth = %d, want %d (stages: %v)", got, want, v.Stages())
	}
}

func TestStagesUnionAndExcept(t *testing.T) {
	b := NewBuilder()
	builderSources(t, b)
	if err := b.AddViewSQL("U",
		"SELECT r1 FROM R WHERE r4 = 100 UNION SELECT s1 FROM S"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("D",
		"SELECT r1 FROM R EXCEPT SELECT s1 FROM S WHERE s3 < 50"); err != nil {
		t.Fatal(err)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, v)
}

// TestStagesWidePlan checks that independent single-table views form one
// wide antichain — the shape BenchmarkParallelPropagation relies on.
func TestStagesWidePlan(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 8; i++ {
		schema := intSchema(fmt.Sprintf("L%d", i),
			fmt.Sprintf("k%d", i), fmt.Sprintf("p%d", i))
		if err := b.AddSource("db", schema); err != nil {
			t.Fatal(err)
		}
		if err := b.AddViewSQL(fmt.Sprintf("E%d", i),
			fmt.Sprintf("SELECT k%d, p%d FROM L%d", i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, v)
	if got := v.MaxStageWidth(); got < 8 {
		t.Fatalf("MaxStageWidth = %d, want >= 8 (stages: %v)", got, v.Stages())
	}
}

// TestStagesInterleavedOrder builds a plan whose alphabetical Kahn order
// interleaves DAG depths (a deep branch sorts before a shallow leaf), so
// the greedy chunking must cut stages that do NOT coincide with the
// depth-grouped partition — the case that distinguishes "chunks of
// Order()" from "group by depth".
func TestStagesInterleavedOrder(t *testing.T) {
	b := NewBuilder()
	// Deep branch over leaf "a"; shallow branch over leaf "z". In the
	// sorted topological order the deep branch's inner node "b" (and its
	// parent export "c") precede "z"'s parent, exercising interleaving.
	if err := b.AddSource("db", intSchema("a", "x", "y")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("db", intSchema("z", "u", "w")); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("b", "SELECT x, y FROM a WHERE y = 1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("c", "SELECT x FROM b"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("y2", "SELECT u FROM z"); err != nil {
		t.Fatal(err)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkStageInvariants(t, v)
}
