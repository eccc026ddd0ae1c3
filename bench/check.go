package main

import (
	"errors"
	"fmt"

	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

// oracle evaluates the view definitions from scratch over the sources'
// current states: state(V) = ν(state(DB)). The tiered deployment computes
// the same T, so the flat plan is its oracle too.
func oracle(p *pipeline) (map[string]*relation.Relation, error) {
	w := *p.w
	w.Tiered = false
	plan, err := flatPlan(&w)
	if err != nil {
		return nil, err
	}
	r, err := p.dbs[srcDB1].Current("R")
	if err != nil {
		return nil, err
	}
	s, err := p.dbs[srcDB2].Current("S")
	if err != nil {
		return nil, err
	}
	return plan.EvalAll(vdp.ResolverFromCatalog(map[string]*relation.Relation{"R": r, "S": s}))
}

// gate is the correctness check at quiescence. Every violated condition is
// reported; any of them invalidates the run.
func gate(p *pipeline, g *loadgen, frames []frameRec, cov coverage) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	for _, c := range g.commits {
		if c.err != nil {
			bad("commit %d failed: %v", c.id, c.err)
			break
		}
	}
	var lastVersion uint64
	for i, q := range g.queries {
		if q.err != nil {
			bad("query %d failed: %v", i, q.err)
			break
		}
		if q.version < lastVersion {
			bad("query %d answered from version %d after version %d", i, q.version, lastVersion)
			break
		}
		lastVersion = q.version
	}
	if cov.undelivered+cov.duplicates+cov.mismatches+cov.snapshots+cov.gaps > 0 {
		bad("subscription stream: %s", cov.describe())
	}

	// The exports equal the view definitions evaluated over the sources'
	// current states.
	want, err := oracle(p)
	if err != nil {
		return err
	}
	exports := []string{"T"}
	if p.w.Hybrid {
		exports = append(exports, "VS")
	}
	pulled := map[string]*relation.Relation{}
	for _, e := range exports {
		got, _, err := p.qc.Query(e, nil, nil)
		if err != nil {
			return fmt.Errorf("final pull of %s: %w", e, err)
		}
		pulled[e] = got
		if !got.Equal(want[e]) {
			bad("export %s has %d rows, from-scratch evaluation has %d (or contents differ)", e, got.Len(), want[e].Len())
		}
	}

	// The relation rebuilt from the subscriber's frames equals the final
	// pull answer, and the stream ends at the published version.
	rebuilt := p.first.Snapshot.Clone()
	for _, f := range frames {
		if f.frame.Delta == nil {
			continue // a snapshot frame; already counted against the stream
		}
		if err := f.frame.Delta.ApplyTo(rebuilt, true); err != nil {
			bad("applying frame v%d: %v", f.frame.Version, err)
			break
		}
	}
	if !rebuilt.Equal(pulled[p.w.SubExport]) {
		bad("relation rebuilt from %d frames has %d rows, final pull has %d (or contents differ)",
			len(frames), rebuilt.Len(), pulled[p.w.SubExport].Len())
	}
	if n := len(frames); n > 0 && frames[n-1].frame.Version != p.top.med.StoreVersion() {
		bad("last frame is v%d, mediator is at v%d", frames[n-1].frame.Version, p.top.med.StoreVersion())
	}
	return errors.Join(errs...)
}
