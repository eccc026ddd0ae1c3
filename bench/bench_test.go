package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at -quick scale, plus one traced run, and
// holds the benchmark together: each run passes its own correctness gate,
// every metric BENCHMARK.json declares is emitted with the declared unit,
// the traced run yields complete commit segments and real byte counts, and
// comparing a result file with itself finds nothing but "same".
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	out := filepath.Join(t.TempDir(), "runs.json")
	check := func(r *result, declared []metricSpec) {
		t.Helper()
		got := r.metrics()
		if len(got) != len(declared) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d declared", r.Workload, r.Traced, len(got), len(declared))
		}
		for _, d := range declared {
			v, ok := got[d.Name]
			if !ok {
				t.Errorf("%s traced=%v: metric %s not emitted", r.Workload, r.Traced, d.Name)
			} else if v.Unit != d.Unit {
				t.Errorf("%s: metric %s has unit %q, declared %q", r.Workload, d.Name, v.Unit, d.Unit)
			}
		}
	}
	for i, w := range spec.Workloads {
		wl, err := findWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runConfig{w: wl, seed: int64(i + 1), seconds: 1, quick: true, tmpRoot: t.TempDir()}
		m, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r := report(m)
		check(r, spec.EndToEnd)
		for name, v := range r.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, v.Value)
			}
		}
		if err := r.appendTo(out); err != nil {
			t.Fatal(err)
		}
	}

	// One traced run, on the deployment with the most boundaries.
	wl, err := findWorkload("tier-fanin")
	if err != nil {
		t.Fatal(err)
	}
	m, err := execute(runConfig{w: wl, seed: 7, seconds: 1, quick: true, trace: true, tmpRoot: t.TempDir()})
	if err != nil {
		t.Fatalf("traced tier-fanin: %v", err)
	}
	r := report(m)
	check(r, spec.PerLayer)
	if len(m.segs) == 0 {
		t.Fatal("traced run produced no complete commit segments")
	}
	for _, name := range []string{"wire.announce_bytes", "wire.frame_bytes", "seg.mediator_us", "federate.hop_us"} {
		if v := r.PerLayer[name]; v.Value <= 0 || v.Samples == 0 {
			t.Errorf("traced tier-fanin: %s is %v over %d samples", name, v.Value, v.Samples)
		}
	}
	if err := writeSpans(filepath.Join(t.TempDir(), "spans.jsonl"), m.segs, m.spans); err != nil {
		t.Error(err)
	}

	var buf bytes.Buffer
	worse, err := compareFiles(&buf, "../BENCHMARK.json", out, out)
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("a file compared with itself is worse:\n%s", buf.String())
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	if want := len(spec.Workloads) * (len(spec.EndToEnd) + 2); len(rows) != want {
		t.Errorf("compare printed %d rows, want %d:\n%s", len(rows), want, buf.String())
	}
	for _, row := range rows {
		if !strings.Contains(row, "same") {
			t.Errorf("self-compare row is not \"same\": %s", row)
		}
	}
}
