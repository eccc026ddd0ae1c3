package main

import (
	"fmt"
	"sort"

	"squirrel/internal/clock"
	"squirrel/internal/core"
)

// quantile returns the q-quantile of sorted (ascending) values by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// coverage is the result of matching commits to the subscriber's frames.
type coverage struct {
	frame []int // per commit: index of the frame that covers it, −1 if none

	undelivered int // commits no frame covers
	duplicates  int // marker tuples delivered more than once
	mismatches  int // marker frame ≠ first frame whose Reflect covers the commit
	snapshots   int // snapshot frames after the initial one (resync or lag drop)
	gaps        int // breaks in the frames' version sequence
}

// matchCommits finds, for every commit, the frame that made it visible to
// the TCP subscriber. A commit whose marker reaches the subscribed export is
// covered by the frame that inserts the marker; otherwise (ΔR under a
// subscription to VS) by the first frame whose Reflect vector has passed the
// commit's timestamp — the two are the same frame whenever both exist, and
// that is checked.
func matchCommits(w *workload, commits []commitRec, frames []frameRec, firstVersion uint64) coverage {
	cov := coverage{frame: make([]int, len(commits))}
	byMarker := make(map[int64]int, len(commits))
	prev := firstVersion
	for i, f := range frames {
		if f.frame.Kind == core.SubSnapshot {
			cov.snapshots++
		} else if f.frame.First != prev+1 {
			cov.gaps++
		}
		prev = f.frame.Version
		for _, id := range f.markers {
			if _, dup := byMarker[id]; dup {
				cov.duplicates++
				continue
			}
			byMarker[id] = i
		}
	}
	byReflect := func(src int8, t clock.Time) int {
		i := sort.Search(len(frames), func(i int) bool { return frames[i].reflect[src] >= t })
		if i == len(frames) {
			return -1
		}
		return i
	}
	for i, c := range commits {
		cov.frame[i] = -1
		if c.err != nil {
			continue
		}
		switch {
		case w.markerVisible(c.src):
			if f, ok := byMarker[c.id]; ok {
				cov.frame[i] = f
				if !w.Tiered && byReflect(c.src, c.t) != f {
					cov.mismatches++
				}
			}
		case !w.Tiered:
			cov.frame[i] = byReflect(c.src, c.t)
		}
		if cov.frame[i] < 0 {
			cov.undelivered++
		}
	}
	return cov
}

// Segments of one commit's path, in order. The tier segments exist only in
// the tiered deployment.
const (
	segGenWait      = iota // due → Apply call
	segSourceCommit        // → first mediator's OnAnnounce handler
	segMediatorTier        // → tier's in-process Recv of the covering version
	segHop                 // → top mediator's OnAnnounce of the tier's announcement
	segMediator            // → top's in-process Recv of the covering version
	segPush                // → SubClient.Next
	numSegs
)

var segNames = [numSegs]string{"seg.gen_wait", "seg.source_commit", "seg.mediator.tier", "federate.hop", "seg.mediator", "seg.push"}

// commitSegments is one traced commit's telescoping segments.
type commitSegments struct {
	id                   int64
	applyStart, applyEnd int64
	start, end           [numSegs]int64
	emit                 int64 // the announcement left the source's commit path
}

type annKey struct {
	src  int8
	time clock.Time
}

// firstCovering returns the first record in pubs whose Reflect component
// for src has reached t.
func firstCovering(pubs []pubRec, src int, t clock.Time) *pubRec {
	i := sort.Search(len(pubs), func(i int) bool { return pubs[i].reflect[src] >= t })
	if i == len(pubs) {
		return nil
	}
	return &pubs[i]
}

// buildSegments assembles the segments of every open-window commit that was
// fully traced: each boundary stamp must exist, and the version stamped
// in-process must be the one the TCP frame carried (a stamp missed at the
// edge of the traced window would otherwise be replaced by a later one).
// The segments are differences of consecutive stamps from the due time to
// the frame's receipt, so they add up to the commit's fresh latency.
func buildSegments(p *pipeline, commits []commitRec, frames []frameRec, cov coverage) []commitSegments {
	tr := p.tr
	arrive := [2]map[annKey]int64{{}, {}}
	for n := range arrive {
		for _, a := range tr.arrive[n] {
			arrive[n][annKey{a.src, a.time}] = a.ns
		}
	}
	emits := map[annKey]int64{}
	for _, a := range tr.emits {
		emits[annKey{a.src, a.time}] = a.ns
	}
	tierSeq := map[uint64]int64{} // tier version → ns its announcement reached the top
	for _, a := range tr.arrive[nodeTop] {
		if a.src == srcTier {
			tierSeq[a.seq] = a.ns
		}
	}
	var out []commitSegments
	for i, c := range commits {
		if c.phase != phaseOpen || c.err != nil || cov.frame[i] < 0 {
			continue
		}
		f := &frames[cov.frame[i]]
		s := commitSegments{id: c.id, applyStart: c.applyStart, applyEnd: c.applyEnd}
		bound := func(seg int, from, to int64) int64 {
			s.start[seg], s.end[seg] = from, to
			return to
		}
		at := bound(segGenWait, c.due, c.applyStart)
		first := nodeTop
		if p.w.Tiered {
			first = nodeTier
		}
		ann, arrived := arrive[first][annKey{c.src, c.t}]
		emit, emitted := emits[annKey{c.src, c.t}]
		if !arrived || !emitted {
			continue
		}
		s.emit = emit
		at = bound(segSourceCommit, at, ann)
		topSrc, topT := int(c.src), c.t
		if p.w.Tiered {
			pub := firstCovering(tr.pubs[nodeTier], int(c.src), c.t)
			if pub == nil {
				continue
			}
			hop, ok := tierSeq[pub.version]
			if !ok {
				continue
			}
			at = bound(segMediatorTier, at, pub.ns)
			at = bound(segHop, at, hop)
			topSrc, topT = srcTier, pub.stamp
		}
		pub := firstCovering(tr.pubs[nodeTop], topSrc, topT)
		if pub == nil || pub.version < f.frame.First || pub.version > f.frame.Version {
			continue
		}
		at = bound(segMediator, at, pub.ns)
		bound(segPush, at, f.recv)
		out = append(out, s)
	}
	return out
}

// describe renders a coverage failure for the gate's error message.
func (c coverage) describe() string {
	return fmt.Sprintf("%d undelivered, %d duplicate markers, %d marker/Reflect mismatches, %d non-initial snapshot frames, %d version gaps",
		c.undelivered, c.duplicates, c.mismatches, c.snapshots, c.gaps)
}
