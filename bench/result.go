package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// result is one run as written to the -out file.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Quick    bool    `json:"quick,omitempty"`
	// Claim is null: this benchmark is the yardstick, it claims no gain.
	Claim *string     `json:"claim"`
	Env   environment `json:"env"`
	// Rates are the frozen open-loop rates the run was offered.
	Rates struct {
		CommitsPerS float64 `json:"commits_per_s"`
		QueriesPerS float64 `json:"queries_per_s"`
	} `json:"rates"`
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Late counts the open-window operations the generator issued more than
	// 1 ms after it could; above lateRatioLimit of them the latencies are
	// the generator's as much as the program's, and the run is not Valid.
	Late      int     `json:"late"`
	LateRatio float64 `json:"late_ratio"`
	Valid     bool    `json:"valid"`
	// EndToEnd is measured with tracing off; a traced run leaves it out
	// and fills PerLayer instead.
	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

// report reduces a finished run to its result.
func report(m *measured) *result {
	o := reduceWindow(m)
	r := &result{Workload: m.cfg.w.Name, Seed: m.cfg.seed, Seconds: m.cfg.seconds, Traced: m.cfg.trace,
		Quick: m.cfg.quick, Env: readEnvironment(m.cfg.tmpRoot), Correct: true,
		Attempted: o.ops() + o.refOps + o.satCommits, Failed: o.failed,
		Late: o.late, LateRatio: float64(o.late) / float64(o.ops())}
	r.Valid = r.LateRatio <= lateRatioLimit
	r.Rates.CommitsPerS, r.Rates.QueriesPerS = m.cfg.w.CommitRate, m.cfg.w.QueryRate
	if m.cfg.trace {
		r.PerLayer = perLayer(m, o)
	} else {
		r.EndToEnd = endToEnd(m, o)
	}
	return r
}

// summary is the object printed as the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) metrics() map[string]value {
	if r.Traced {
		return r.PerLayer
	}
	return r.EndToEnd
}

func (r *result) summary() summary {
	out := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, v := range r.metrics() {
		out.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// appendTo appends the result, as one JSON line, to path: a file built up
// by several runs is a set of runs -compare can read.
func (r *result) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printHuman lists every metric by name with its unit and sample count.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g traced=%v: %d attempted, %d failed, late_ratio %.4f (%d late)\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.LateRatio, r.Late)
	if !r.Valid {
		fmt.Fprintf(w, "  INVALID RUN: late_ratio is above %.2f; the latencies below are the load generator's as much as the program's\n", lateRatioLimit)
	}
	ms := r.metrics()
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := ms[n]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
	}
}

// readResults reads every result in a file written by appendTo.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}
