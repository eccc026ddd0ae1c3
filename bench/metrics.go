package main

import (
	"sort"

	"squirrel/internal/core"
)

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Units of the end-to-end metrics; BENCHMARK.json declares the same names
// and units, and the smoke test holds the two together.
var endToEndUnits = map[string]string{
	"setup_s": "s", "fresh_p50_ms": "ms", "query_p50_ms": "ms",
	"sat_commits_per_s": "1/s", "recover_s": "s", "live_heap_mb": "MB", "cpu_ms_per_kop": "ms",
}

// openWindow holds the sorted open-window latencies, in ms, of commits
// (due → covering frame received) and queries (due → answer), plus the
// counts the ratios need.
type openWindow struct {
	fresh, query    []float64    // ms, sorted
	refFresh        [2][]float64 // fresh of a traced run's reference windows, before and after
	commits         int
	queries         int
	refOps          int       // operations of the reference window
	failed          int       // errored, undelivered, or over the latency limit; reference window included
	late            int       // issued more than lateLimit after they could first be issued
	queued          int       // due while the client's previous call had not returned
	lag             []float64 // ms from when an operation could first be issued to when it was
	satRate         float64
	satCommits      int
	queryClientMean float64 // µs, Query call → return, excluding generator lag
}

func (o *openWindow) ops() int { return o.commits + o.queries }

// issued accounts for how punctually the generator issued one open-window
// operation. The client is synchronous, so an operation can first be issued
// at its due time or when the client's previous call returns, whichever is
// later. Waiting for that return is the system's delay — the latency, timed
// from the due time, contains it — and only what comes after is the
// generator's.
func (o *openWindow) issued(due, start, prevEnd int64) {
	ready := due
	if prevEnd > due {
		ready = prevEnd
		o.queued++
	}
	lag := start - ready
	o.lag = append(o.lag, float64(lag)/1e6)
	if lag > int64(lateLimit) {
		o.late++
	}
}

func reduceWindow(m *measured) openWindow {
	g := m.gen
	var o openWindow
	limit := float64(latencyLimit.Milliseconds())
	var satLast, prevEnd int64
	for i, c := range g.commits {
		if i >= len(m.cov.frame) {
			break // tail commits, issued after the gate
		}
		fi := m.cov.frame[i]
		switch c.phase {
		case phaseOpen, phaseRef:
			ms := -1.0
			if c.err == nil && fi >= 0 {
				ms = float64(m.frames[fi].recv-c.due) / 1e6
			}
			if ms < 0 || ms > limit {
				o.failed++
			}
			if c.phase == phaseRef {
				o.refOps++
				side := 0
				if c.due >= g.openStart {
					side = 1
				}
				if ms >= 0 {
					o.refFresh[side] = append(o.refFresh[side], ms)
				}
				break
			}
			o.commits++
			o.issued(c.due, c.applyStart, prevEnd)
			if ms >= 0 {
				o.fresh = append(o.fresh, ms)
			}
		case phaseSat:
			o.satCommits++
			if fi >= 0 && m.frames[fi].recv > satLast {
				satLast = m.frames[fi].recv
			}
		}
		prevEnd = c.applyEnd
	}
	if o.satCommits > 0 && satLast > g.satStart {
		o.satRate = float64(o.satCommits) / (float64(satLast-g.satStart) / 1e9)
	}
	var client float64
	prevEnd = 0
	for _, q := range g.queries {
		if q.phase == phaseOpen || q.phase == phaseRef {
			ms := float64(q.end-q.due) / 1e6
			if q.err != nil || ms > limit {
				o.failed++
			}
			if q.phase == phaseRef {
				o.refOps++
			} else {
				o.queries++
				o.issued(q.due, q.start, prevEnd)
				if q.err == nil {
					o.query = append(o.query, ms)
					client += float64(q.end-q.start) / 1e3
				}
			}
		}
		prevEnd = q.end
	}
	if len(o.query) > 0 {
		o.queryClientMean = client / float64(len(o.query))
	}
	for _, s := range [][]float64{o.fresh, o.query, o.refFresh[0], o.refFresh[1], o.lag} {
		sort.Float64s(s)
	}
	return o
}

// endToEnd reduces a run to the end-to-end metrics. live_heap_mb is the mean
// of the heap samples, not their maximum: the maximum of 130 samples moved by
// a tenth between identical runs, the mean by a fiftieth.
func endToEnd(m *measured, o openWindow) map[string]value {
	var setups, recovers []float64
	for _, s := range m.setups {
		setups = append(setups, s.Total.Seconds())
	}
	for _, r := range m.recoveries {
		recovers = append(recovers, r.took.Seconds())
	}
	ops := float64(o.ops())
	out := map[string]value{
		"setup_s":           {Value: median(setups), Samples: len(setups)},
		"fresh_p50_ms":      {Value: quantile(o.fresh, 0.50), Samples: len(o.fresh)},
		"query_p50_ms":      {Value: quantile(o.query, 0.50), Samples: len(o.query)},
		"sat_commits_per_s": {Value: o.satRate, Samples: o.satCommits},
		"recover_s":         {Value: median(recovers), Samples: len(recovers)},
		"live_heap_mb":      {Value: mean(m.heap), Samples: len(m.heap)},
		"cpu_ms_per_kop":    {Value: float64((m.after.cpu - m.before.cpu).Microseconds()) / 1e3 / (ops / 1e3), Samples: int(ops)},
	}
	for name, v := range out {
		v.Unit = endToEndUnits[name]
		out[name] = v
	}
	return out
}

// histDelta is the change of one histogram between two snapshots.
func histDelta(a, b nodeSnap, name string) (count uint64, meanUs float64) {
	ha, hb := a.hist[name], b.hist[name]
	count = hb.Count - ha.Count
	if count == 0 {
		return 0, 0
	}
	return count, (hb.Sum - ha.Sum) / float64(count) * 1e6
}

// perLayer reduces a traced run to the per-layer metrics. Window metrics
// are differences between the snapshots at the two ends of the open window;
// means of the top mediator's phases come from its own histograms.
func perLayer(m *measured, o openWindow) map[string]value {
	out := map[string]value{}
	put := func(name string, v float64, unit string, samples int) {
		out[name] = value{Value: v, Unit: unit, Samples: samples}
	}
	a, b := m.before, m.after
	top := func(name string) (uint64, float64) { return histDelta(a.nodes[nodeTop], b.nodes[nodeTop], name) }
	ops := float64(o.ops())
	kop := ops / 1e3
	window := float64(b.at-a.at) / 1e9

	// loadgen
	put("loadgen.lag_p99_ms", quantile(o.lag, 0.99), "ms", len(o.lag))
	put("loadgen.offered_per_s", ops/window, "1/s", int(ops))
	put("loadgen.late_ratio", float64(o.late)/ops, "ratio", int(ops))
	put("loadgen.queued_ratio", float64(o.queued)/ops, "ratio", int(ops))
	put("loadgen.fail_ratio", float64(o.failed)/ops, "ratio", int(ops))
	// Tail percentiles are reported here, without a bound, because they do
	// not repeat closely enough between identical runs to carry one.
	put("tail.fresh_p90_ms", quantile(o.fresh, 0.90), "ms", len(o.fresh))
	put("tail.fresh_p99_ms", quantile(o.fresh, 0.99), "ms", len(o.fresh))
	put("tail.query_p90_ms", quantile(o.query, 0.90), "ms", len(o.query))
	put("tail.query_p99_ms", quantile(o.query, 0.99), "ms", len(o.query))

	// source
	var applyUs []float64
	for _, c := range m.gen.commits {
		if c.phase == phaseOpen {
			applyUs = append(applyUs, float64(c.applyEnd-c.applyStart)/1e3)
		}
	}
	put("source.apply_us", mean(applyUs), "us", len(applyUs))
	leafNode := nodeTop
	if m.cfg.w.Tiered {
		leafNode = nodeTier
	}
	leafPolls := (b.polls[srcDB1] - a.polls[srcDB1]) + (b.polls[srcDB2] - a.polls[srcDB2])
	leafTuples := (b.tuples[srcDB1] - a.tuples[srcDB1]) + (b.tuples[srcDB2] - a.tuples[srcDB2])
	put("source.poll_us", a.spans.meanUs(b.spans, leafNode, spanSourcePoll), "us", int(leafPolls))
	put("source.polls_per_kop", float64(leafPolls)/kop, "count", int(leafPolls))
	tpp := 0.0
	if leafPolls > 0 {
		tpp = float64(leafTuples) / float64(leafPolls)
	}
	put("source.tuples_per_poll", tpp, "count", int(leafPolls))

	// wire
	seg := segmentMeans(m.segs)
	put("wire.announce_us", seg.announceUs, "us", seg.n)
	perMsg := func(bytes, msgs int64) float64 {
		if msgs == 0 {
			return 0
		}
		return float64(bytes) / float64(msgs)
	}
	put("wire.announce_bytes", perMsg(m.wire.annBytes, m.wire.anns), "B", int(m.wire.anns))
	put("wire.frame_us", seg.mean[segPush], "us", seg.n)
	put("wire.frame_bytes", perMsg(m.wire.frameBytes, m.wire.frames), "B", int(m.wire.frames))
	nFast, fastUs := top(histQueryFast)
	nPoll, pollUs := top(histQueryPoll)
	serverUs := 0.0
	if nFast+nPoll > 0 {
		serverUs = (fastUs*float64(nFast) + pollUs*float64(nPoll)) / float64(nFast+nPoll)
	}
	put("wire.query_rtt_us", o.queryClientMean-serverUs, "us", len(o.query))
	connUs := a.spans.meanUs(b.spans, leafNode, spanConnPoll)
	rtt := 0.0
	if leafPolls > 0 {
		rtt = connUs - a.spans.meanUs(b.spans, leafNode, spanSourcePoll)
	}
	put("wire.poll_rtt_us", rtt, "us", int(leafPolls))
	put("wire.encode_ns_per_atom", m.probe.encodeNsPerAtom, "ns", m.probe.probedCommits)
	put("wire.decode_ns_per_atom", m.probe.decodeNsPerAtom, "ns", m.probe.probedCommits)

	// core (top mediator)
	nTxn, totalUs := top(histTotal)
	_, prepUs := top(histPrepare)
	nPolls, pollsUs := top(histPolls)
	_, propUs := top(histPropagate)
	_, commitUs := top(histCommit)
	// The polls phase is observed only by transactions that polled; spread
	// it over all transactions so the phases add up per transaction.
	if nTxn > 0 {
		pollsUs = pollsUs * float64(nPolls) / float64(nTxn)
	}
	put("core.queue_wait_us", seg.mean[segMediator]-totalUs, "us", seg.n)
	put("core.txn_prepare_us", prepUs, "us", int(nTxn))
	put("core.txn_polls_us", pollsUs, "us", int(nPolls))
	put("core.txn_propagate_us", propUs, "us", int(nTxn))
	put("core.txn_commit_us", commitUs, "us", int(nTxn))
	put("core.txn_total_us", totalUs, "us", int(nTxn))
	sa, sb := a.nodes[nodeTop].stats, b.nodes[nodeTop].stats
	txns := float64(sb.UpdateTxns - sa.UpdateTxns)
	perTxn := func(v float64) float64 {
		if txns == 0 {
			return 0
		}
		return v / txns
	}
	put("core.anns_per_txn", perTxn(float64(b.nodes[nodeTop].announcements-a.nodes[nodeTop].announcements)), "count", int(txns))
	put("core.atoms_per_txn", perTxn(float64(sb.AtomsPropagated-sa.AtomsPropagated)), "count", int(txns))
	put("core.txn_retries", float64(sb.UpdateTxnRetries-sa.UpdateTxnRetries), "count", 0)
	put("core.queue_high_water", float64(m.final[nodeTop].QueueHighWater), "count", 0)
	nFlush, flushUs := top(core.MetricFlushSeconds)
	put("core.flush_us", flushUs, "us", int(nFlush))
	nStage, stageAppUs := top(histStageApp)
	_, stageRuleUs := top(histStageRule)
	put("core.stage_apply_us", stageAppUs, "us", int(nStage))
	put("core.stage_rules_us", stageRuleUs, "us", int(nStage))
	put("core.query_fast_us", fastUs, "us", int(nFast))
	put("core.query_polling_us", pollUs, "us", int(nPoll))
	nComp, compUs := top(core.MetricCompensationSeconds)
	put("core.compensation_us", compUs, "us", int(nComp))
	put("core.sub_frames", float64(sb.SubFramesDelivered-sa.SubFramesDelivered), "count", 0)
	put("core.sub_coalesces", float64(sb.SubCoalesces-sa.SubCoalesces), "count", 0)
	put("core.sub_resyncs", float64(sb.SubSnapshotResyncs-sa.SubSnapshotResyncs), "count", 0)

	// relation / delta / store
	put("relation.clone_us_per_krow", m.probe.cloneUsPerKRow, "us", 0)
	put("delta.apply_ns_per_atom", m.probe.applyNsPerAtom, "ns", m.probe.probedFrameDeltas)
	put("delta.smash_ns_per_atom", m.probe.smashNsPerAtom, "ns", m.probe.probedFrameDeltas)
	put("store.rows", float64(m.probe.storeRows), "count", 0)
	put("store.versions", float64(sb.VersionsPublished-sa.VersionsPublished), "count", 0)

	// wal (top mediator)
	na, nb := a.nodes[nodeTop], b.nodes[nodeTop]
	nLog := b.spans.count[nodeTop][spanLogCommit] - a.spans.count[nodeTop][spanLogCommit]
	put("wal.logcommit_us", a.spans.meanUs(b.spans, nodeTop, spanLogCommit), "us", int(nLog))
	nSync := nb.walSyncs - na.walSyncs
	put("wal.sync_us", a.spans.meanUs(b.spans, nodeTop, spanWALSync), "us", int(nSync))
	perCommit := func(v int64) float64 {
		if nLog == 0 {
			return 0
		}
		return float64(v) / float64(nLog)
	}
	put("wal.syncs_per_kcommit", perCommit(nSync)*1e3, "count", int(nLog))
	put("wal.bytes_per_commit", perCommit(nb.walBytes-na.walBytes), "B", int(nLog))
	put("wal.write_calls_per_commit", perCommit(nb.walWrites-na.walWrites), "count", int(nLog))
	put("wal.checkpoints", float64(nb.checkpoints-na.checkpoints), "count", 0)
	put("wal.dir_mb_end", m.walDirMB, "MB", 0)
	var replayed, took float64
	for _, r := range m.recoveries {
		replayed += float64(r.replayed)
		took += r.took.Seconds()
	}
	put("wal.replayed_records", replayed/float64(len(m.recoveries)), "count", len(m.recoveries))
	put("wal.replay_krec_per_s", replayed/1e3/took, "krec/s", len(m.recoveries))

	// federate
	put("federate.hop_us", seg.mean[segHop], "us", seg.n)
	put("federate.announcements", float64(m.tierAnns), "count", 0)
	put("federate.barriers", float64(m.barriers), "count", 0)

	// go runtime
	put("go.alloc_kb_per_op", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024/ops, "kB", int(ops))
	put("go.mallocs_per_op", float64(b.mem.Mallocs-a.mem.Mallocs)/ops, "count", int(ops))
	put("go.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC), "count", 0)
	put("go.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6, "ms", int(b.mem.NumGC-a.mem.NumGC))
	put("go.cpu_util", (b.cpu-a.cpu).Seconds()/window, "ratio", 0)

	// setup: medians over the set-ups
	var load, init, walStart []float64
	for _, s := range m.setups {
		load = append(load, float64(s.Load.Microseconds())/1e3)
		init = append(init, float64(s.Initialize.Microseconds())/1e3)
		walStart = append(walStart, float64(s.WALStart.Microseconds())/1e3)
	}
	put("setup.load_ms", median(load), "ms", len(load))
	put("setup.initialize_ms", median(init), "ms", len(init))
	put("setup.wal_start_ms", median(walStart), "ms", len(walStart))

	// trace: what tracing costs — the traced window's median fresh latency
	// against the mean of the two untraced reference windows' on either side
	// of it, which cancels a latency that drifts as the run goes on — and
	// what the mediator's own histograms leave unexplained inside
	// seg.mediator.
	overhead := 0.0
	if ref := (quantile(o.refFresh[0], 0.5) + quantile(o.refFresh[1], 0.5)) / 2; ref > 0 {
		overhead = (quantile(o.fresh, 0.5) - ref) / ref * 100
	}
	put("trace.overhead_pct", overhead, "%", len(o.refFresh[0])+len(o.refFresh[1]))
	unattributed := 0.0
	if seg.mean[segMediator] > 0 {
		unattributed = (totalUs - (prepUs + pollsUs + propUs + commitUs)) / seg.mean[segMediator] * 100
	}
	put("trace.unattributed_pct", unattributed, "%", int(nTxn))
	for k := 0; k < numSegs; k++ {
		put(segNames[k]+"_us", seg.mean[k], "us", seg.n)
	}
	return out
}

// segmentSummary is the mean of each segment over the traced commits.
type segmentSummary struct {
	n          int
	mean       [numSegs]float64 // µs
	announceUs float64          // announcement left the source → reached the first mediator
}

func segmentMeans(segs []commitSegments) segmentSummary {
	s := segmentSummary{n: len(segs)}
	if s.n == 0 {
		return s
	}
	for _, c := range segs {
		for k := 0; k < numSegs; k++ {
			s.mean[k] += float64(c.end[k]-c.start[k]) / 1e3
		}
		s.announceUs += float64(c.end[segSourceCommit]-c.emit) / 1e3
	}
	for k := range s.mean {
		s.mean[k] /= float64(s.n)
	}
	s.announceUs /= float64(s.n)
	return s
}
