package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent when path is empty.
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var b []byte
	var err error
	for _, c := range candidates {
		if b, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// series is one metric's values over a set of runs.
type series []float64

func (s series) median() float64 { return median(s) }

// spread is the distance between the first and third quartile as a share of
// the median (0 for fewer than two runs). Quartiles are taken the way
// Python's statistics.quantiles(v, n=4) takes them (the exclusive method),
// so the figure matches the one the benchmark is accepted by.
func (s series) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	med := quantile(v, 0.5)
	if med == 0 {
		return 0
	}
	quartile := func(p float64) float64 {
		pos := p*float64(len(v)+1) - 1
		lo := min(max(int(pos), 0), len(v)-2)
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	return (quartile(0.75) - quartile(0.25)) / med
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio (B over A), the bound and a verdict. It reports whether any
// row is worse, B failed more operations than A, or either side holds an
// invalid run — one whose late_ratio is above lateRatioLimit, next to which
// no latency can be judged.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	collect := func(rs []*result, workload, metric string) (s series, failed, attempted int, late float64) {
		for _, r := range rs {
			if r.Workload != workload || r.Traced {
				continue
			}
			if v, ok := r.EndToEnd[metric]; ok {
				s = append(s, v.Value)
			}
			failed += r.Failed
			attempted += r.Attempted
			late = max(late, r.LateRatio)
		}
		return
	}
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range spec.Workloads {
		_, fa, na, la := collect(a, wl.Name, "")
		_, fb, nb, lb := collect(b, wl.Name, "")
		if na == 0 || nb == 0 {
			continue
		}
		invalid := la > lateRatioLimit || lb > lateRatioLimit
		for _, ms := range spec.EndToEnd {
			sa, _, _, _ := collect(a, wl.Name, ms.Name)
			sb, _, _, _ := collect(b, wl.Name, ms.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			ma, mb := sa.median(), sb.median()
			ratio := mb / ma
			change := ratio - 1 // > 0 is worse when lower is better
			if ms.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case invalid:
				verdict, worse = "invalid", true
			case sa.spread() > ms.Bound || sb.spread() > ms.Bound:
				verdict = "unresolved"
			case change > ms.Bound:
				verdict, worse = "worse", true
			case change < -ms.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %8.3fx %6.0f%%  %s (A n=%d spread %.1f%%, B n=%d spread %.1f%%)\n",
				wl.Name, ms.Name, ma, mb, ratio, ms.Bound*100, verdict, len(sa), sa.spread()*100, len(sb), sb.spread()*100)
		}
		ra, rb := float64(fa)/float64(na), float64(fb)/float64(nb)
		verdict := "same"
		if rb > ra {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-18s %12.6f %12.6f %9s %7s  %s\n", wl.Name, "fail_ratio", ra, rb, "", "", verdict)
		// The largest late_ratio of each side's runs, against the limit.
		verdict = "same"
		if invalid {
			verdict, worse = "invalid", true
		}
		fmt.Fprintf(w, "%-14s %-18s %12.6f %12.6f %9s %6.0f%%  %s\n", wl.Name, "late_ratio", la, lb, "", lateRatioLimit*100, verdict)
	}
	return worse, nil
}
