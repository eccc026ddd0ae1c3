package resilience

import (
	"testing"

	"squirrel/internal/clock"
)

func TestComposeFreshness(t *testing.T) {
	upper := clock.Vector{"medA": 10, "medB": 7, "db9": 3}
	lower := map[string]clock.Vector{
		"medA": {"db1": 5, "db2": 8},
		"medB": {"db2": 1, "db3": 4},
	}
	got := ComposeFreshness(upper, lower)
	want := clock.Vector{
		"db1": 15, // 10 + 5 through medA
		"db2": 18, // max(10+8 via medA, 7+1 via medB): the worst path wins
		"db3": 11, // 7 + 4 through medB
		"db9": 3,  // plain source, passes through
	}
	if len(got) != len(want) {
		t.Fatalf("composed %v, want %v", got, want)
	}
	for src, f := range want {
		if got[src] != f {
			t.Fatalf("composed[%s] = %d, want %d (full: %v)", src, got[src], f, got)
		}
	}

	// Associativity over a three-tier chain: folding leaf-first equals
	// folding top-first.
	top := clock.Vector{"mid": 2}
	mid := clock.Vector{"leaf": 3}
	leaf := clock.Vector{"db": 4}
	a := ComposeFreshness(ComposeFreshness(top, map[string]clock.Vector{"mid": mid}),
		map[string]clock.Vector{"leaf": leaf})
	b := ComposeFreshness(top,
		map[string]clock.Vector{"mid": ComposeFreshness(mid, map[string]clock.Vector{"leaf": leaf})})
	if a["db"] != 9 || b["db"] != 9 {
		t.Fatalf("associativity broken: %v vs %v", a, b)
	}

	// A zero bound is a bound (nothing may be stale), not a missing one:
	// it must survive composition, plain or through a tier.
	zero := ComposeFreshness(clock.Vector{"db1": 0, "mid": 0}, map[string]clock.Vector{"mid": {"db2": 0}})
	for _, src := range []string{"db1", "db2"} {
		if f, ok := zero[src]; !ok || f != 0 {
			t.Fatalf("zero bound for %s lost in composition: %v", src, zero)
		}
	}
}
