package core

import (
	"math/rand"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// TestTheorem71Consistency runs randomized workloads through every
// annotation configuration and verifies the §3 consistency definition
// against the recorded trace — validity (answers equal ν at the reported
// ref vector, replayed from the source commit logs), chronology, and
// order preservation. This is the executable content of Theorem 7.1.
func TestTheorem71Consistency(t *testing.T) {
	for name, anns := range soakConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed + 100))
				e := newEnv(t, anns[0], anns[1], anns[2])
				for step := 0; step < 30; step++ {
					switch op := rng.Intn(10); {
					case op < 4:
						randomCommit(t, e, rng)
					case op < 7:
						if _, err := e.med.RunUpdateTransaction(); err != nil {
							t.Fatal(err)
						}
					default:
						attrs := [][]string{{"r1", "s1"}, {"r1", "r3"}, {"s1", "s2"}, nil}[rng.Intn(4)]
						mode := []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce}[rng.Intn(3)]
						if _, err := e.med.Query(algebra.SelectFrom("T", attrs, nil), QueryOptions{KeyBased: mode}); err != nil {
							t.Fatal(err)
						}
					}
				}
				env := checker.Environment{
					VDP:     e.vdp_,
					Sources: map[string]*source.DB{"db1": e.db1, "db2": e.db2},
					Trace:   e.rec,
				}
				if err := env.CheckConsistency(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				_, q := e.rec.Len()
				if q == 0 {
					t.Fatalf("seed %d: no queries recorded", seed)
				}
			}
		})
	}
}

// TestReflectVectorSemantics spot-checks the ref construction of §6.1:
// materialized contributors carry ref′; uninvolved virtual contributors
// carry the query commit time.
func TestReflectVectorSemantics(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	res, err := e.med.Query(algebra.SelectFrom("T", []string{"r1"}, nil), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lp := e.med.LastProcessed()
	for _, src := range []string{"db1", "db2"} {
		if res.Reflect[src] != lp[src] {
			t.Errorf("%s: reflect %d != ref′ %d", src, res.Reflect[src], lp[src])
		}
		if res.Reflect[src] > res.Committed {
			t.Errorf("%s: chronology violated", src)
		}
	}

	// Fully virtual plan: sources are virtual contributors; an uninvolved
	// one gets the commit time, an involved one its poll instant.
	rp := e.vdp_.Node("R'").Schema
	sp := e.vdp_.Node("S'").Schema
	tS := e.vdp_.Node("T").Schema
	e2 := newEnv(t, vdp.AllVirtual(rp), vdp.AllVirtual(sp), vdp.AllVirtual(tS))
	res2, err := e2.med.Query(algebra.SelectFrom("T", nil, nil), QueryOptions{KeyBased: KeyBasedOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"db1", "db2"} {
		if e2.med.Contributor(src) != VirtualContributor {
			t.Fatalf("%s should be virtual contributor", src)
		}
		if res2.Reflect[src] >= res2.Committed {
			t.Errorf("%s: polled reflect should be the poll instant (< commit)", src)
		}
	}
	if res2.Polled != 2 {
		t.Errorf("fully virtual query polls both sources: %d", res2.Polled)
	}
}
