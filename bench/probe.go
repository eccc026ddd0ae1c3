package main

import (
	"time"

	"squirrel/internal/delta"
	"squirrel/internal/wire"
)

// probeResult holds kernel and codec costs measured after the window, on
// this run's own data: the final store, the deltas the subscriber received,
// and the commits the sources logged.
type probeResult struct {
	cloneUsPerKRow    float64
	applyNsPerAtom    float64
	smashNsPerAtom    float64
	encodeNsPerAtom   float64
	decodeNsPerAtom   float64
	storeRows         int
	probedCommits     int
	probedFrameDeltas int
}

// timeLoop calls fn until at least budget has elapsed and returns the mean
// time per call.
func timeLoop(budget time.Duration, fn func()) time.Duration {
	begin := time.Now()
	n := 0
	for time.Since(begin) < budget {
		fn()
		n++
	}
	return time.Since(begin) / time.Duration(n)
}

// runProbe times the public kernels and codecs, spending about budget in
// total.
func runProbe(p *pipeline, frames []frameRec, budget time.Duration) probeResult {
	var r probeResult
	slot := budget / 5

	// relation.Clone over the largest stored node: the per-commit
	// copy-on-write cost.
	v := p.top.med.CurrentVersion()
	largest := v.Rel(v.Nodes()[0])
	for _, node := range v.Nodes() {
		r.storeRows += v.Rel(node).Len()
		if v.Rel(node).Len() > largest.Len() {
			largest = v.Rel(node)
		}
	}
	if largest.Len() > 0 {
		per := timeLoop(slot, func() { largest.Clone() })
		r.cloneUsPerKRow = float64(per.Nanoseconds()) / 1e3 / (float64(largest.Len()) / 1e3)
	}

	// delta.ApplyTo and delta.Smash over the frame deltas, in stream order.
	var deltas []*delta.RelDelta
	atoms := 0
	for _, f := range frames {
		if f.frame.Delta != nil && !f.frame.Delta.IsEmpty() {
			deltas = append(deltas, f.frame.Delta)
			atoms += f.frame.Delta.Len()
		}
	}
	r.probedFrameDeltas = len(deltas)
	if atoms > 0 {
		per := timeLoop(slot, func() {
			rel := p.first.Snapshot.Clone()
			for _, d := range deltas {
				d.ApplyTo(rel, true) //nolint:errcheck // the gate already applied this stream
			}
		})
		clone := timeLoop(slot/4, func() { p.first.Snapshot.Clone() })
		r.applyNsPerAtom = float64((per - clone).Nanoseconds()) / float64(atoms)
		per = timeLoop(slot, func() {
			acc := delta.NewRel(deltas[0].Rel())
			for _, d := range deltas {
				acc.Smash(d)
			}
		})
		r.smashNsPerAtom = float64(per.Nanoseconds()) / float64(atoms)
	}

	// wire's delta codec, through its public entry points only, on the
	// commits the sources actually logged. What the format is stays inside
	// wire: turning the encoded value into bytes is wire's own business, and
	// its cost on the real path is in wire.announce_us and wire.frame_us.
	var commits []*delta.Delta
	atoms = 0
	for _, db := range p.dbs {
		log := db.Log()
		if len(log) > 512 {
			log = log[len(log)-512:]
		}
		for _, c := range log {
			commits = append(commits, c.Delta)
			atoms += c.Delta.Card()
		}
	}
	r.probedCommits = len(commits)
	if atoms > 0 {
		encoded := make([]wire.Delta, len(commits))
		per := timeLoop(slot, func() {
			for i, d := range commits {
				encoded[i] = wire.EncodeDelta(d)
			}
		})
		r.encodeNsPerAtom = float64(per.Nanoseconds()) / float64(atoms)
		per = timeLoop(slot, func() {
			for _, e := range encoded {
				e.Decode() //nolint:errcheck // values this probe just encoded
			}
		})
		r.decodeNsPerAtom = float64(per.Nanoseconds()) / float64(atoms)
	}
	return r
}
