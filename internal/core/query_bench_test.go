package core

import (
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// BenchmarkQueryFastPath measures the QP fast path at the shape of the
// loopback benchmark's reads (bench/datagen.go): the paper's T over
// |R| = 20k and |S| = 10k, fully materialized, queried with a 200-key
// range on r1 projected to (r1, s1), no recorder attached.
func BenchmarkQueryFastPath(b *testing.B) {
	clk := &clock.Logical{}
	db1, db2 := source.NewDB("db1", clk), source.NewDB("db2", clk)
	rng := rand.New(rand.NewSource(1))
	r := relation.NewSet(rSchema())
	for i := 1; i <= 20000; i++ {
		r4 := 50
		if rng.Intn(2) == 0 {
			r4 = 100
		}
		r.Insert(relation.T(i, 1+rng.Intn(10000), rng.Intn(1_000_000_000), r4))
	}
	s := relation.NewSet(sSchema())
	for i := 1; i <= 10000; i++ {
		s.Insert(relation.T(i, rng.Intn(1_000_000_000), rng.Intn(100)))
	}
	if err := db1.LoadRelation(r); err != nil {
		b.Fatal(err)
	}
	if err := db2.LoadRelation(s); err != nil {
		b.Fatal(err)
	}
	med, err := New(Config{
		VDP:     paperPlan(b, nil, nil, nil),
		Sources: map[string]SourceConn{"db1": LocalSource{DB: db1}, "db2": LocalSource{DB: db2}},
		Clock:   clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := med.Initialize(); err != nil {
		b.Fatal(err)
	}
	attrs := []string{"r1", "s1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(1 + (i*7919)%19800)
		cond := algebra.Conj(algebra.Ge(algebra.A("r1"), algebra.CInt(lo)), algebra.Lt(algebra.A("r1"), algebra.CInt(lo+200)))
		if _, err := med.Query(algebra.SelectFrom("T", attrs, cond), QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
