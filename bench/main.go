// Command bench is the loopback end-to-end benchmark: one process hosts the
// whole Fig. 3 pipeline over real TCP on 127.0.0.1 — source databases behind
// wire.SourceServer, a mediator with its flush loop and WAL behind
// wire.MediatorServer, one TCP subscriber and one TCP query client — drives
// it with a seeded workload, checks the outputs, and reports end-to-end
// metrics (-trace 0) or per-layer metrics (-trace 1). See README.md.
//
//	go run . -workload push-mat -seed 1 [-seconds 20] [-trace 1] [-out run.json]
//	go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: push-mat, pull-hybrid, tier-fanin or churn-durable")
		seed    = flag.Int64("seed", 1, "seed all generated inputs derive from")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		quick   = flag.Bool("quick", false, "smoke-test scale: |R|=2000, 1 s window")
		out     = flag.String("out", "", "append the full result to this file; a traced run also writes <out>.spans.jsonl")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
		spec    = flag.String("benchmark", "", "path of BENCHMARK.json, for -compare (default: ./ or ../)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	// One committer and one query client are the load; more than four
	// processors would only spread the mediator's own goroutines.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, out: *out}
	m, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	res := report(m)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fatal(err)
		}
		if cfg.trace {
			if err := writeSpans(*out+".spans.jsonl", m.segs, m.spans); err != nil {
				fatal(err)
			}
		}
	}
	res.printHuman(os.Stderr)
	// The last line of standard output is the machine-readable result.
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
