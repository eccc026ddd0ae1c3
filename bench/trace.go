package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"squirrel/internal/clock"
)

// Layer tracing from outside the program: every record here is stamped by
// the harness at a seam it owns (a wrapper around a public interface, or a
// call it makes itself). Records stay in memory until the run ends.
//
// Two kinds of record exist. Boundary stamps (announce, publish) mark when a
// commit crossed from one layer into the next; the per-commit segments are
// differences of consecutive stamps, so they telescope to the end-to-end
// latency by construction. Spans (poll, logcommit, sync) time one call into
// a layer and hang under the segment that contains them.

// node identifies which mediator a record belongs to.
const (
	nodeTop  = 0
	nodeTier = 1
)

// Source indexes used in records: the two leaf databases, then the tier
// mediator's export face.
const (
	srcDB1  = 0
	srcDB2  = 1
	srcTier = 2
)

var srcNames = [...]string{"db1", "db2", "tier"}

func srcIndex(name string) int {
	for i, n := range srcNames {
		if n == name {
			return i
		}
	}
	return -1
}

// annRec: announcement (src, time) left a source backend's commit path
// (tracer.emits) or reached a mediator's OnAnnounce handler (tracer.arrive).
type annRec struct {
	src  int8
	time clock.Time // source commit time; for the tier face, the tier version's stamp
	seq  uint64
	ns   int64
}

// pubRec: a mediator's in-process Subscription.Recv returned the frame for
// this version.
type pubRec struct {
	version uint64
	stamp   clock.Time
	reflect [3]clock.Time
	ns      int64
}

type spanKind uint8

const (
	spanSourcePoll spanKind = iota // SourceBackend.QueryMulti, server side
	spanConnPoll                   // SourceConn.QueryMulti, mediator side (includes the wire)
	spanLogCommit                  // CommitLog.LogCommit
	spanWALSync                    // wal.File.Sync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"source.poll", "wire.poll_rtt", "wal.logcommit", "wal.sync"}

type span struct {
	kind       spanKind
	node       uint8
	start, end int64
	version    uint64 // 0 when the call is not tied to a version
}

// tracer collects records while on; every method is safe for concurrent
// use. Besides the records it keeps a count and a total time per span kind,
// which the per-layer means are differences of.
type tracer struct {
	t0      time.Time
	enabled bool        // this run is a traced run
	on      atomic.Bool // tracing is switched on right now

	mu     sync.Mutex
	emits  []annRec
	arrive [2][]annRec
	pubs   [2][]pubRec
	spans  []span

	count [2][numSpanKinds]atomic.Int64
	total [2][numSpanKinds]atomic.Int64 // ns
}

func newTracer(t0 time.Time, enabled bool) *tracer { return &tracer{t0: t0, enabled: enabled} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) emit(src int, at clock.Time, seq uint64) {
	if !t.on.Load() {
		return
	}
	r := annRec{src: int8(src), time: at, seq: seq, ns: t.now()}
	t.mu.Lock()
	t.emits = append(t.emits, r)
	t.mu.Unlock()
}

func (t *tracer) arrived(node, src int, at clock.Time, seq uint64) {
	if !t.on.Load() {
		return
	}
	r := annRec{src: int8(src), time: at, seq: seq, ns: t.now()}
	t.mu.Lock()
	t.arrive[node] = append(t.arrive[node], r)
	t.mu.Unlock()
}

func (t *tracer) published(node int, r pubRec) {
	if !t.on.Load() {
		return
	}
	r.ns = t.now()
	t.mu.Lock()
	t.pubs[node] = append(t.pubs[node], r)
	t.mu.Unlock()
}

// done closes a span opened at start, while tracing was on.
func (t *tracer) done(kind spanKind, node int, start int64, version uint64) {
	end := t.now()
	t.count[node][kind].Add(1)
	t.total[node][kind].Add(end - start)
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, node: uint8(node), start: start, end: end, version: version})
	t.mu.Unlock()
}

// spanTotals is a point-in-time copy of the aggregate counters.
type spanTotals struct {
	count, total [2][numSpanKinds]int64
}

func (t *tracer) totals() spanTotals {
	var s spanTotals
	for n := 0; n < 2; n++ {
		for k := 0; k < int(numSpanKinds); k++ {
			s.count[n][k] = t.count[n][k].Load()
			s.total[n][k] = t.total[n][k].Load()
		}
	}
	return s
}

// meanUs returns the mean duration in µs of kind on node between two
// snapshots (0 when nothing ran).
func (a spanTotals) meanUs(b spanTotals, node int, kind spanKind) float64 {
	n := b.count[node][kind] - a.count[node][kind]
	if n == 0 {
		return 0
	}
	return float64(b.total[node][kind]-a.total[node][kind]) / float64(n) / 1e3
}

// spanLine is one row of <out>.spans.jsonl.
type spanLine struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	CommitID *int64 `json:"commit_id,omitempty"`
	Version  uint64 `json:"version,omitempty"`
}

// writeSpans writes the per-commit segments and the layer spans as JSON
// lines: name, start_ns, end_ns, parent, commit_id (segments) or version
// (spans inside seg.mediator).
func writeSpans(path string, segs []commitSegments, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	put := func(l spanLine) {
		if err == nil {
			err = enc.Encode(l)
		}
	}
	for i := range segs {
		s := &segs[i]
		id := s.id
		for k := 0; k < numSegs; k++ {
			if s.end[k] == 0 {
				continue // this topology has no such segment
			}
			put(spanLine{Name: segNames[k], StartNs: s.start[k], EndNs: s.end[k], Parent: "commit", CommitID: &id})
		}
		put(spanLine{Name: "source.apply", StartNs: s.applyStart, EndNs: s.applyEnd, Parent: segNames[segSourceCommit], CommitID: &id})
	}
	for _, sp := range spans {
		parent := segNames[segMediator]
		if sp.node == nodeTier {
			parent = segNames[segMediatorTier]
		}
		put(spanLine{Name: spanNames[sp.kind], StartNs: sp.start, EndNs: sp.end, Parent: parent, Version: sp.version})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
