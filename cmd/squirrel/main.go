// Command squirrel is the CLI for the Squirrel data-integration
// reproduction (Hull & Zhou, SIGMOD 1996):
//
//	squirrel demo                run the paper's running example end to end
//	squirrel figure2             print the Figure 2 scenario and verdicts
//	squirrel serve-source        serve a demo source database over TCP
//	squirrel serve-mediator      assemble and serve a mediator over TCP sources
//	squirrel query               one-shot query against TCP-served sources
//	squirrel query-view          query a running mediator's exports
//	squirrel subscribe           stream a view export's push frames as NDJSON
//	squirrel readvise            trigger one annotation-advisor round
//	squirrel scenario            run declarative YAML scenarios on virtual time
//	squirrel stats|metrics|events  operator introspection of a mediator
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "figure2":
		err = cmdFigure2(os.Args[2:])
	case "serve-source":
		err = cmdServeSource(os.Args[2:])
	case "serve-mediator":
		err = cmdServeMediator(os.Args[2:])
	case "query-view":
		err = cmdQueryView(os.Args[2:])
	case "subscribe":
		err = cmdSubscribe(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "readvise":
		err = cmdReadvise(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "events":
		err = cmdEvents(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "squirrel: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "squirrel: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: squirrel <command> [flags]

commands:
  demo                       run the paper's running example (Examples 2.1-2.3)
  figure2                    print the Figure 2 scenario and its verdicts
  serve-source -addr :7070   serve the demo source database over TCP
  serve-mediator ...         assemble and serve a mediator over TCP sources
      [-poll-timeout D] [-retry N] [-retry-base D] [-breaker N:COOLDOWN]
      [-chaos-seed S [-chaos-err P]]
                             fault boundary: per-attempt poll deadline, retry
                             with backoff, per-source circuit breaker, and
                             deterministic fault injection on source links
      [-metrics-addr :9090]  observability HTTP endpoint: /metrics (Prometheus
                             text), /debug/vars (JSON snapshot), /debug/pprof
      [-adapt [-adapt-interval D] [-adapt-cooldown D]]
                             online annotation advisor loop: observe the live
                             workload and re-annotate without downtime
      [-export-as-source ADDR [-export-name NAME]]
                             serve the fully materialized exports as an
                             autonomous source, so another mediator can stack
                             on top with a plain -source (tiered federation)
  query -addr HOST:PORT ...  one-shot snapshot query against a source server
  query-view -addr ... -export V [-attrs a,b] [-where 'a = 1'] [-sync]
      [-stale [-max-staleness N]]
                             query a running mediator; -stale accepts a
                             degraded answer (bounded staleness) if a source
                             is down
  subscribe -addr ... -export V [-from N] [-max-queue N] [-max-lag N] [-n N]
                             stream a view export's subscription frames as
                             NDJSON: one snapshot, then one delta frame per
                             commit; -from resumes after a version, -max-lag
                             bounds staleness (snapshot-resync past it)
  readvise -addr HOST:PORT [-dry-run]
                             trigger one advisor round on a running mediator:
                             observe, advise, and apply (or preview) the
                             annotation flips
  scenario run [-update] [-v] <file|dir>...
                             run declarative YAML scenarios on virtual time
                             and compare byte-identical golden transcripts
  scenario list <file|dir>...
                             list scenario names and descriptions
  stats -addr HOST:PORT      print a mediator's counters and source health
  metrics -addr HOST:PORT [-prom]
                             print a mediator's latency histograms and
                             counters (-prom: raw Prometheus exposition)
  events -addr HOST:PORT [-n N] [-type T]
                             tail a mediator's structured event ring buffer
`)
}
