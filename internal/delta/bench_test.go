package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

// Microbenchmarks for the three hot delta kernels (smash, apply,
// select-project) over the columnar store, measured in isolation from the
// mediator stack (EXPERIMENTS.md E19 records the end-to-end numbers).

func benchSchema(width int) *relation.Schema {
	attrs := make([]relation.Attribute, width)
	attrs[0] = relation.Attribute{Name: "k", Type: relation.KindInt}
	attrs[1] = relation.Attribute{Name: "s", Type: relation.KindString}
	for i := 2; i < width; i++ {
		attrs[i] = relation.Attribute{Name: fmt.Sprintf("a%d", i), Type: relation.KindInt}
	}
	return relation.MustSchema("B", attrs)
}

func benchDelta(n, keyspace int, seed int64) *RelDelta {
	rng := rand.New(rand.NewSource(seed))
	d := NewRel("B")
	for i := 0; i < n; i++ {
		d.Add(relation.T(rng.Intn(keyspace), fmt.Sprintf("s%d", rng.Intn(64)), rng.Intn(1000), rng.Intn(1000)), rng.Intn(5)-2)
	}
	return d
}

func BenchmarkDeltaSmash(b *testing.B) {
	base := benchDelta(4096, 1<<16, 1)
	inc := benchDelta(4096, 1<<16, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		d.Smash(inc)
	}
}

func BenchmarkDeltaSmashSet(b *testing.B) {
	base := benchDelta(4096, 1<<16, 1)
	inc := benchDelta(4096, 1<<16, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		d.SmashSet(inc)
	}
}

func BenchmarkApplyTo(b *testing.B) {
	schema := benchSchema(4)
	store := relation.NewBag(schema)
	seedDelta := benchDelta(8192, 1<<16, 3)
	seedDelta.Each(func(t relation.Tuple, n int) bool {
		if n < 0 {
			n = -n
		}
		store.Add(t, n+1)
		return true
	})
	inc := benchDelta(4096, 1<<16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := store.Clone()
		if err := inc.ApplyTo(work, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaProject(b *testing.B) {
	d := benchDelta(8192, 1<<16, 5)
	positions := []int{0, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Project("P", positions)
	}
}

func BenchmarkDeltaSelect(b *testing.B) {
	d := benchDelta(8192, 1<<16, 6)
	schema := relation.MustSchema("B", []relation.Attribute{{Name: "k", Type: relation.KindInt},
		{Name: "s", Type: relation.KindString}, {Name: "x", Type: relation.KindInt}, {Name: "y", Type: relation.KindInt}})
	pred := algebra.Compile(algebra.Lt(algebra.A("x"), algebra.CInt(500)), schema)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Select(pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationClone isolates the copy-on-write clone cost that
// dominates staged-kernel setup for large stores.
func BenchmarkRelationClone(b *testing.B) {
	schema := benchSchema(4)
	store := relation.NewBag(schema)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		store.Add(relation.T(i, fmt.Sprintf("s%d", rng.Intn(64)), rng.Intn(1000), rng.Intn(1000)), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Clone()
	}
}
