package core

import (
	"testing"

	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// TestParallelSoak re-runs the full chaos soak of fault_soak_test.go with
// the staged kernel on an 8-worker pool: committers churn both sources,
// update transactions run the antichain stages on the pool with
// concurrent VAP polls, and ServeStale readers race against them under
// -race. The invariants are unchanged — every answer exact at its Reflect
// vector, degraded answers bounded, stores converging to ground truth,
// no pin or announcement leaks — because the pool size must not be
// observable.
func TestParallelSoak(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			runFaultSoak(t, seed, 8)
		})
	}
}

// TestZeroConfigRunsStagedKernel: a mediator built with no kernel options
// (newEnv sets only the plan, sources, clock and recorder) propagates
// through the staged kernel — the serial kernel is a test-only oracle.
func TestZeroConfigRunsStagedKernel(t *testing.T) {
	e := newEnv(t, nil, nil, nil)
	d := delta.New()
	d.Insert("R", relation.T(5, 10, 6, 100))
	e.db1.MustApply(d)
	if ran, err := e.med.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("update transaction: ran=%v err=%v", ran, err)
	}
	st := e.med.Stats()
	if st.KernelStages == 0 || st.KernelStageNodes == 0 {
		t.Fatalf("KernelStages=%d KernelStageNodes=%d, want both > 0", st.KernelStages, st.KernelStageNodes)
	}
}
