package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/federate"
	"squirrel/internal/node"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/sqlview"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
	"squirrel/internal/wire"
)

// repeatable flag value.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// cmdServeMediator assembles a mediator against TCP-served source
// databases (schemas discovered via the catalog protocol), starts it
// through the node lifecycle (recovering from -wal-dir if it holds state),
// serves queries over TCP, runs the update loop, and checkpoints the WAL
// on shutdown.
//
//	squirrel serve-mediator \
//	    -source 127.0.0.1:7070 -source 127.0.0.1:7071 \
//	    -view 'T=SELECT r1, s1 FROM R JOIN S ON r2 = s1' \
//	    -virtual 'T:s1' \
//	    -listen 127.0.0.1:7080 -flush 500ms -wal-dir wal
func cmdServeMediator(args []string) error {
	fs := flag.NewFlagSet("serve-mediator", flag.ExitOnError)
	var sources, views, virtuals multiFlag
	fs.Var(&sources, "source", "source server address (repeatable)")
	fs.Var(&views, "view", "view definition NAME=SQL (repeatable)")
	fs.Var(&virtuals, "virtual", "virtual annotation NODE:attr,attr (repeatable)")
	listen := fs.String("listen", "127.0.0.1:7080", "mediator listen address")
	flush := fs.Duration("flush", 500*time.Millisecond,
		"longest an announcement may wait (u_hold); retry interval after a failed flush or quarantine")
	walDir := fs.String("wal-dir", "",
		"write-ahead delta log directory: commits are durable before they publish, and restart "+
			"recovers checkpoint + log replay instead of rebuilding from the sources (empty = disabled)")
	walFsync := fs.String("wal-fsync", "commit",
		"WAL sync policy: commit (fsync before every publish), batch (one fsync per drained "+
			"group-commit batch), none (benchmarks only)")
	walCompact := fs.Int("wal-compact-every", 0,
		"checkpoint the store and truncate the log after this many logged commits "+
			"(0 = default 1024, negative = compact only on recovery and shutdown)")
	pollTimeout := fs.Duration("poll-timeout", 0, "per-attempt deadline for one source poll (0 = none)")
	retries := fs.Int("retry", 1, "max poll attempts per source (1 = no retry)")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "base delay of the poll retry backoff")
	breaker := fs.String("breaker", "", "circuit breaker FAILURES:COOLDOWN (e.g. 5:2s; empty = disabled)")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for deterministic fault injection on source links (0 = off)")
	chaosErr := fs.Float64("chaos-err", 0.1, "per-operation error probability when -chaos-seed is set")
	exportAddr := fs.String("export-as-source", "",
		"serve this mediator's fully materialized exports as an autonomous source on this "+
			"address, so an upstream mediator can consume them with a plain -source "+
			"(DESIGN.md §11; empty = disabled)")
	exportName := fs.String("export-name", "med",
		"source name announced to upstream consumers when -export-as-source is set")
	metricsAddr := fs.String("metrics-addr", "",
		"observability HTTP address serving /metrics, /debug/vars, /debug/pprof (empty = disabled)")
	adapt := fs.Bool("adapt", false,
		"run the online annotation advisor loop (observe workload, re-annotate live)")
	adaptInterval := fs.Duration("adapt-interval", core.DefAdaptInterval,
		"advisor loop period when -adapt is set")
	adaptCooldown := fs.Duration("adapt-cooldown", 0,
		"minimum wall time between applied re-annotations (0 = twice -adapt-interval)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resil := core.ResilienceConfig{
		PollTimeout: *pollTimeout,
		Retry:       resilience.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase},
	}
	if *breaker != "" {
		failures, cooldown, ok := strings.Cut(*breaker, ":")
		n, err := strconv.Atoi(failures)
		if !ok || err != nil || n < 1 {
			return fmt.Errorf("bad -breaker %q (want FAILURES:COOLDOWN, e.g. 5:2s)", *breaker)
		}
		cd, err := time.ParseDuration(cooldown)
		if err != nil {
			return fmt.Errorf("bad -breaker cooldown %q: %v", cooldown, err)
		}
		resil.Breaker = resilience.BreakerPolicy{Failures: n, Cooldown: cd}
	}
	var inj *resilience.Injector
	if *chaosSeed != 0 {
		inj = resilience.NewInjector(*chaosSeed)
		resil.Seed = *chaosSeed
	}
	if len(sources) == 0 || len(views) == 0 {
		return fmt.Errorf("serve-mediator needs at least one -source and one -view")
	}

	clk := &clock.Logical{}
	b := vdp.NewBuilder()
	conns := map[string]core.SourceConn{}
	attach := map[string]func(source.Handler){}
	var clients []*wire.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	// Reconnects quarantine the source at the mediator: announcements
	// committed during the outage were lost, so the next flush resyncs it
	// by snapshot poll instead of trusting the (gapped) delta stream.
	// nameOf is fully populated before medRef is stored, so the callbacks
	// read it race-free.
	var medRef atomic.Pointer[core.Mediator]
	nameOf := map[string]string{}
	for _, addr := range sources {
		addr := addr
		c, err := wire.DialWith(addr, wire.DialOptions{
			Reconnect: true,
			Timeout:   *pollTimeout,
			OnReconnect: func() {
				if m := medRef.Load(); m != nil {
					m.QuarantineSource(nameOf[addr], "connection re-established; announcements may have been missed")
				}
			},
		})
		if err != nil {
			return fmt.Errorf("dialing source %s: %w", addr, err)
		}
		nameOf[addr] = c.Name()
		clients = append(clients, c)
		attach[c.Name()] = c.OnAnnounce
		schemas, err := c.Catalog()
		if err != nil {
			return fmt.Errorf("catalog from %s: %w", addr, err)
		}
		for _, schema := range schemas {
			if err := b.AddSource(c.Name(), schema); err != nil {
				return err
			}
		}
		if inj != nil {
			inj.Set(c.Name(), resilience.Faults{ErrProb: *chaosErr})
			conns[c.Name()] = resilience.WrapSource(c, inj)
			fmt.Printf("source %q at %s: %d relations (chaos: err %.0f%%)\n",
				c.Name(), addr, len(schemas), *chaosErr*100)
			continue
		}
		conns[c.Name()] = c
		fmt.Printf("source %q at %s: %d relations\n", c.Name(), addr, len(schemas))
	}
	for _, v := range views {
		name, sql, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("bad -view %q (want NAME=SQL)", v)
		}
		if err := b.AddViewSQL(strings.TrimSpace(name), sql); err != nil {
			return err
		}
	}
	for _, v := range virtuals {
		nodeName, attrs, ok := strings.Cut(v, ":")
		if !ok {
			return fmt.Errorf("bad -virtual %q (want NODE:attr,attr)", v)
		}
		b.Annotate(strings.TrimSpace(nodeName), vdp.Ann(nil, strings.Split(attrs, ",")))
	}
	plan, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Println("\nannotated VDP:")
	fmt.Print(plan)

	var walOpts *wal.Options
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return fmt.Errorf("bad -wal-fsync: %w", err)
		}
		walOpts = &wal.Options{Dir: *walDir, Policy: policy, CompactEvery: *walCompact}
	}
	// Wire sources offer no replay: after recovery each is quarantined,
	// and the first flush resyncs it by compensated snapshot poll.
	n, err := node.Start(node.Config{
		Mediator: core.Config{VDP: plan, Sources: conns, Clock: clk, Resilience: resil},
		WAL:      walOpts, Attach: attach,
	})
	if err != nil {
		return err
	}
	med := n.Mediator
	medRef.Store(med)
	if info := n.Recovery; info != nil {
		fmt.Printf("recovered from WAL %s: checkpoint v%d", *walDir, info.CheckpointVersion)
		if info.Replayed > 0 {
			fmt.Printf(" + %d replayed commit(s)", info.Replayed)
		}
		fmt.Printf(" → v%d", info.Version)
		if info.TornTail {
			fmt.Print(" (torn log tail discarded)")
		}
		if info.Stopped != "" {
			fmt.Printf(" (replay stopped: %s)", info.Stopped)
		}
		fmt.Printf("; ref′ %v\n", med.LastProcessed())
	}

	// The export face installs before the update loop starts, so its
	// announcement stream is seq-dense from this mediator's first commit:
	// an upstream consumer never sees a silent baseline jump.
	if *exportAddr != "" {
		x, err := federate.New(med, *exportName)
		if err != nil {
			return fmt.Errorf("-export-as-source: %w", err)
		}
		expSrv := wire.NewBackendServer(x)
		ebound, err := expSrv.Start(*exportAddr)
		if err != nil {
			return err
		}
		defer expSrv.Close()
		fmt.Printf("exports served as source %q on %s: %s\n",
			*exportName, ebound, strings.Join(x.Relations(), " "))
	}

	rt, err := core.NewRuntime(med, *flush)
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Stop()

	srv := wire.NewMediatorServer(med)

	// Attach an adaptive-annotation controller either way, so the readvise
	// subcommand always finds a workload window that opened at serve start:
	// with -adapt it also runs the closed loop; without, it is manual and
	// only acts when an operator asks.
	ctrl := core.NewAdaptController(med, core.AdaptConfig{
		Interval: *adaptInterval,
		Cooldown: *adaptCooldown,
		Manual:   !*adapt,
	})
	srv.SetAdaptController(ctrl)
	if *adapt {
		if err := ctrl.Start(); err != nil {
			return err
		}
		defer ctrl.Stop()
	}

	bound, err := srv.Start(*listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("\nmediator serving on %s (u_hold %s; ctrl-c to stop)\n", bound, *flush)
	if *adapt {
		fmt.Printf("adaptive annotation: advising every %s\n", *adaptInterval)
	}

	if *metricsAddr != "" {
		msrv := wire.NewMetricsServer(med)
		mbound, err := msrv.Start(*metricsAddr)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("observability on http://%s (/metrics, /debug/vars, /debug/pprof)\n", mbound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	if err := rt.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "squirrel: final flush: %v\n", err)
	}
	if n.WAL != nil {
		if err := n.WAL.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "squirrel: closing WAL: %v\n", err)
		} else {
			fmt.Printf("WAL checkpointed at v%d\n", med.StoreVersion())
		}
	}
	return nil
}

// cmdQueryView runs one query against a mediator server.
func cmdQueryView(args []string) error {
	fs := flag.NewFlagSet("query-view", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "mediator server address")
	export := fs.String("export", "", "export relation name")
	attrs := fs.String("attrs", "", "comma-separated projection (default: all)")
	cond := fs.String("where", "", "condition, e.g. 's1 = 10'")
	sync := fs.Bool("sync", false, "drain the mediator's update queue first")
	stale := fs.Bool("stale", false, "accept a degraded (stale-bounded) answer if a source is down")
	maxStale := fs.Int64("max-staleness", 0, "refuse degraded answers staler than this bound (0 = any)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *export == "" {
		return fmt.Errorf("query-view needs -export")
	}
	c, err := wire.DialMediator(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if *sync {
		n, err := c.Sync()
		if err != nil {
			return err
		}
		fmt.Printf("drained %d update transaction(s)\n", n)
	}
	var attrList []string
	if *attrs != "" {
		attrList = strings.Split(*attrs, ",")
	}
	var pred algebra.Expr
	if *cond != "" {
		pred, err = sqlview.ParseExpr(*cond)
		if err != nil {
			return fmt.Errorf("bad -where %q: %w", *cond, err)
		}
	}
	if *stale {
		ans, committed, staleness, err := c.QueryStale(*export, attrList, pred, clock.Time(*maxStale))
		if err != nil {
			return err
		}
		if len(staleness) > 0 {
			fmt.Printf("DEGRADED answer (staleness bounds: %v)\n", staleness)
		}
		fmt.Printf("query transaction t=%d:\n%s", committed, ans)
		return nil
	}
	ans, committed, err := c.Query(*export, attrList, pred)
	if err != nil {
		return err
	}
	fmt.Printf("query transaction t=%d:\n%s", committed, ans)
	return nil
}

// cmdSubscribe registers for a view export's push stream on a running
// mediator and prints each frame as one NDJSON line: first a snapshot of
// the export at the pinned store version, then one delta frame per commit
// (tagged with the committed version, stamp, and Reflect vector). With
// -reconnect the client redials on disconnect and resumes from its last
// delivered version, so the stream stays gap-free across outages.
//
//	squirrel subscribe -addr 127.0.0.1:7080 -export T -max-lag 100 | jq .
func cmdSubscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "mediator server address")
	export := fs.String("export", "", "export relation name (must be fully materialized)")
	from := fs.Uint64("from", 0, "resume after this committed store version (0 = start with a snapshot)")
	maxQueue := fs.Int("max-queue", 0,
		"server-side bound on undelivered frames; at the bound new commits coalesce "+
			"into the newest frame (0 = server default 256)")
	maxLag := fs.Int64("max-lag", 0,
		"staleness bound in clock ticks (Theorem 7.2): a backlog older than this is "+
			"dropped and the stream resyncs from a snapshot (0 = unbounded)")
	count := fs.Int("n", 0, "stop after this many frames (0 = stream until interrupted)")
	reconnect := fs.Bool("reconnect", true,
		"redial on disconnect and resume from the last delivered version")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *export == "" {
		return fmt.Errorf("subscribe needs -export")
	}
	sc, err := wire.SubscribeView(*addr, *export, wire.SubOptions{
		FromVersion: *from, MaxQueue: *maxQueue, MaxLag: clock.Time(*maxLag),
		Reconnect: *reconnect,
	})
	if err != nil {
		return err
	}
	defer sc.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sc.Close()
	}()
	enc := json.NewEncoder(os.Stdout)
	for n := 0; *count == 0 || n < *count; n++ {
		f, err := sc.Next()
		if err != nil {
			if strings.Contains(err.Error(), "client closed") {
				return nil // interrupted: a clean end of stream
			}
			return err
		}
		if err := enc.Encode(wire.EncodeSubFrame(f)); err != nil {
			return err
		}
	}
	return nil
}

// cmdReadvise triggers one on-demand advisor round on a running mediator
// (the §5.3 loop, operator-paced): observe the workload window since the
// last round, ask the advisor, and apply the implied annotation flips —
// or, with -dry-run, only report them with their justifications.
func cmdReadvise(args []string) error {
	fs := flag.NewFlagSet("readvise", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "mediator server address")
	dry := fs.Bool("dry-run", false, "report what would change without applying anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := wire.DialMediator(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	dec, err := c.Readvise(*dry)
	if err != nil {
		return err
	}

	fmt.Printf("window: %d query transaction(s)\n", dec.Queries)
	if len(dec.Profile.AccessFreq) > 0 {
		attrs := make([]string, 0, len(dec.Profile.AccessFreq))
		for a := range dec.Profile.AccessFreq {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = fmt.Sprintf("%s=%.2f", a, dec.Profile.AccessFreq[a])
		}
		fmt.Printf("access freq:  %s\n", strings.Join(parts, " "))
	}
	if len(dec.Profile.UpdateShare) > 0 {
		srcs := make([]string, 0, len(dec.Profile.UpdateShare))
		for s := range dec.Profile.UpdateShare {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		parts := make([]string, len(srcs))
		for i, s := range srcs {
			parts[i] = fmt.Sprintf("%s=%.2f", s, dec.Profile.UpdateShare[s])
		}
		fmt.Printf("update share: %s\n", strings.Join(parts, " "))
	}
	for _, r := range dec.Reasons {
		fmt.Printf("advisor: %s\n", r)
	}
	if len(dec.Flips) == 0 {
		fmt.Println("no changes: advice matches the live annotation")
		return nil
	}
	for _, f := range dec.Flips {
		fmt.Printf("flip: %s\n", f)
	}
	switch {
	case dec.Applied:
		fmt.Printf("APPLIED %d flip(s)\n", len(dec.Flips))
	case *dry:
		fmt.Printf("dry run: %d flip(s) would be applied\n", len(dec.Flips))
	default:
		fmt.Printf("not applied: %s\n", dec.Skipped)
	}
	return nil
}

// cmdStats prints a mediator server's operation counters and per-source
// health (breaker state, retries, quarantines).
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "mediator server address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := wire.DialMediator(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("transactions:   %d update, %d query (%d key-based temps), %d resync\n",
		st.UpdateTxns, st.QueryTxns, st.KeyBasedTemps, st.Resyncs)
	fmt.Printf("propagation:    %d atoms, %d source polls, %d tuples polled\n",
		st.AtomsPropagated, st.SourcePolls, st.TuplesPolled)
	fmt.Printf("staged kernel:  %d stages run, %d nodes maintained, %d txn retries\n",
		st.KernelStages, st.KernelStageNodes, st.UpdateTxnRetries)
	fmt.Printf("fault boundary: %d poll failures, %d retries, %d breaker fast-fails\n",
		st.PollFailures, st.PollRetries, st.BreakerFastFails)
	fmt.Printf("degradation:    %d degraded queries, %d gaps detected\n",
		st.DegradedQueries, st.GapsDetected)
	fmt.Printf("queue:          %d high-water; store version %d (%d published)\n",
		st.QueueHighWater, st.CurrentVersion, st.VersionsPublished)
	fmt.Printf("subscriptions:  %d active, %d frames delivered, %d coalesces, %d lag drops, %d snapshot resyncs\n",
		st.ActiveSubscribers, st.SubFramesDelivered, st.SubCoalesces, st.SubLagDrops, st.SubSnapshotResyncs)
	names := make([]string, 0, len(st.Sources))
	for name := range st.Sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := st.Sources[name]
		line := fmt.Sprintf("source %-12s %s  breaker=%s trips=%d last-contact=%d seq=%d",
			name, h.Contributor, h.Breaker, h.Trips, h.LastContact, h.LastSeq)
		if h.Quarantined != "" {
			line += fmt.Sprintf("  QUARANTINED (%s; %d penned)", h.Quarantined, h.PennedAnnouncements)
		}
		fmt.Println(line)
	}
	return nil
}
