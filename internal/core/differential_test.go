package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
)

// The differential test oracle for the staged parallel kernel: the serial
// kernel (export_test.go) is the reference implementation, and every
// staged configuration must be observationally identical to it on the same
// random plan and the same random update/query stream. "Observationally
// identical" means the full transcript matches byte for byte: per update
// transaction the published version's sequence number and the rendering of
// every materialized store node, and per query the answer's rendering plus
// its poll count, key-based verdict, and version attribution.
//
// Deliberately NOT compared: raw poll instants and the Reflect components
// they induce for virtual-contributor sources. Concurrent polls can tick
// the logical clock in either order, so those instants may permute between
// executors; Eager Compensation makes the answer CONTENTS exact at each
// answer's own Reflect vector regardless, and every transcript is
// additionally validated against the §3 consistency checker, which proves
// each answer correct at its own vector.

// differentialTranscript drives the deterministic workload derived from
// seed through a mediator with the given kernel executor and returns the
// observation transcript. Each call builds its own identically-seeded rng,
// so transcripts for different workers values are directly comparable.
func differentialTranscript(t *testing.T, seed int64, workers int) []string {
	t.Helper()
	return observedTranscript(t, seed, workers, nil)
}

// observedTranscript is differentialTranscript with a hook: afterTxn, when
// non-nil, runs after every update transaction (drain included), once the
// transaction's version is published.
func observedTranscript(t *testing.T, seed int64, workers int, afterTxn func(rp *randPlan)) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rp := buildRandomPlanWith(t, rng, randPlanOpts{workers: workers})
	var tr []string
	record := func(format string, args ...any) {
		tr = append(tr, fmt.Sprintf(format, args...))
	}
	renderStores := func() string {
		var b strings.Builder
		for _, name := range rp.plan.NonLeaves() {
			st := rp.med.StoreSnapshot(name)
			if st == nil {
				fmt.Fprintf(&b, "%s: <virtual>\n", name)
				continue
			}
			fmt.Fprintf(&b, "%s:\n%s", name, st)
		}
		return b.String()
	}
	runTxn := func(step int) {
		ran, err := rp.med.RunUpdateTransaction()
		if err != nil {
			t.Fatalf("workers=%d step %d txn: %v\nplan:\n%s", workers, step, err, rp.plan)
		}
		if afterTxn != nil {
			afterTxn(rp)
		}
		record("step %d txn ran=%v seq=%d\n%s",
			step, ran, rp.med.vstore.Current().Seq(), renderStores())
	}
	for step := 0; step < 20; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			rp.randomLeafCommit(t, rng)
		case op < 8:
			runTxn(step)
		default:
			n := rp.plan.Node(rp.export)
			attrs := n.Schema.AttrNames()
			if rng.Intn(2) == 0 && len(attrs) > 1 {
				attrs = attrs[:1+rng.Intn(len(attrs)-1)]
			}
			mode := []KeyBasedMode{KeyBasedAuto, KeyBasedOff, KeyBasedForce}[rng.Intn(3)]
			cond := randomCond(rng, n.Schema)
			res, err := rp.med.Query(algebra.SelectFrom(rp.export, attrs, cond), QueryOptions{KeyBased: mode})
			if err != nil {
				t.Fatalf("workers=%d step %d query: %v\nplan:\n%s", workers, step, err, rp.plan)
			}
			record("step %d query attrs=%v cond=%v mode=%d polled=%d keybased=%v version=%d\n%s",
				step, attrs, cond, mode, res.Polled, res.KeyBased, res.Version, res.Answer)
		}
	}
	// Drain, then record the final state once more.
	for step := 100; ; step++ {
		ran, err := rp.med.RunUpdateTransaction()
		if err != nil {
			t.Fatalf("workers=%d drain: %v", workers, err)
		}
		if !ran {
			break
		}
		if afterTxn != nil {
			afterTxn(rp)
		}
		record("drain txn seq=%d\n%s", rp.med.vstore.Current().Seq(), renderStores())
	}
	// Each executor must independently agree with from-scratch
	// recomputation and satisfy the §3 consistency definitions.
	rp.checkStores(t)
	env := checker.Environment{VDP: rp.plan, Sources: rp.dbs, Trace: rp.rec}
	if err := env.CheckConsistency(); err != nil {
		t.Fatalf("workers=%d consistency: %v\nplan:\n%s", workers, err, rp.plan)
	}
	return tr
}

// TestDifferentialOracle: for each seeded random plan and workload, the
// serial reference transcript must equal the staged transcript at 1, 2,
// and 8 workers. 70 seeds × 3 staged configurations = 210 staged cases
// (20 seeds under -short).
func TestDifferentialOracle(t *testing.T) {
	seeds := int64(70)
	if testing.Short() {
		seeds = 20
	}
	stagedCases := 0
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := differentialTranscript(t, seed, 0)
			for _, workers := range []int{1, 2, 8} {
				got := differentialTranscript(t, seed, workers)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d transcript has %d records, serial has %d",
						workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d transcript diverges from the serial reference at record %d:\n--- staged ---\n%s\n--- serial ---\n%s",
							workers, i, got[i], ref[i])
					}
				}
				stagedCases++
			}
		})
	}
	if !testing.Short() && stagedCases < 200 {
		t.Errorf("exercised %d staged cases, want >= 200", stagedCases)
	}
}
