package core

import (
	"fmt"

	"squirrel/internal/clock"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/store"
	"squirrel/internal/vdp"
)

// StateSnapshot is the mediator's durable state: the materialized store,
// the ref′ vector it corresponds to, the view-initialization time, and
// the store version it was cut from. Serialize it with internal/persist.
type StateSnapshot struct {
	Store         map[string]*relation.Relation
	LastProcessed clock.Vector
	ViewInit      clock.Time
	// StoreVersion is the published version the snapshot captured (zero in
	// snapshots saved before versioning; Restore then resumes at 1).
	StoreVersion uint64
	// Annotations is the live annotation the saving mediator had adapted
	// to (per non-leaf node) — possibly different from the one any
	// restoring mediator is constructed with. Nil in snapshots saved
	// before adaptive annotation; Restore then assumes the constructed
	// plan's annotation.
	Annotations map[string]vdp.Annotation
}

// Snapshot captures a consistent copy of the durable state. Lock-free: it
// pins the currently published store version — an immutable state — and
// clones from it, so updates keep committing while (potentially large)
// relations are copied. The snapshot corresponds to the source states at
// LastProcessed, so a mediator restored from it resumes exactly where
// this one left off — provided the announcement feed replays everything
// committed after LastProcessed (see source.DB.ReplaySince).
func (m *Mediator) Snapshot() (*StateSnapshot, error) {
	// Capture a (version, epoch) pair that agree: planFor(nil) means a
	// re-annotation published and pruned between the two loads — retry.
	var v *store.Version
	var ep *planEpoch
	for {
		v = m.vstore.Current()
		if v == nil {
			return nil, fmt.Errorf("core: snapshot of uninitialized mediator")
		}
		if ep = m.planFor(v.Seq()); ep != nil {
			break
		}
	}
	out := &StateSnapshot{
		Store:         make(map[string]*relation.Relation, v.Len()),
		LastProcessed: v.Reflect(),
		ViewInit:      m.viewInit,
		StoreVersion:  v.Seq(),
		Annotations:   ep.v.Annotations(),
	}
	for _, name := range v.Nodes() {
		out.Store[name] = v.Rel(name).Clone()
	}
	return out, nil
}

// Restore installs a snapshot in lieu of Initialize, publishing it as the
// snapshot's store version (so version numbering resumes where the saving
// mediator left off). The snapshot must come from a mediator with the
// same VDP structure; if it carries Annotations (the live annotation the
// saving mediator had adapted to), the plan is re-annotated to match
// before the store layout is validated, so an adaptively drifted mediator
// round-trips through persistence. Announcements already queued that the
// snapshot covers are discarded.
func (m *Mediator) Restore(snap *StateSnapshot) error {
	if snap == nil {
		return fmt.Errorf("core: nil snapshot")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vstore.Current() != nil {
		return fmt.Errorf("core: mediator already initialized")
	}
	v := m.curVDP()
	if snap.Annotations != nil && !vdp.AnnotationsEqual(snap.Annotations, v.Annotations()) {
		nv, err := v.Reannotate(snap.Annotations)
		if err != nil {
			return fmt.Errorf("core: restoring persisted annotation: %w", err)
		}
		v = nv
		// Replace the construction epoch wholesale: nothing was published
		// yet, so no reader can hold the old plan.
		m.plan.Store(&planEpoch{v: nv, contributors: classifyContributors(nv)})
	}
	// Validate coverage before touching anything.
	for _, name := range v.NonLeaves() {
		n := v.Node(name)
		schema, err := storeSchema(n)
		if err != nil {
			return err
		}
		if schema == nil {
			if _, extra := snap.Store[name]; extra {
				return fmt.Errorf("core: snapshot has a store for fully virtual node %q", name)
			}
			continue
		}
		rel, ok := snap.Store[name]
		if !ok {
			return fmt.Errorf("core: snapshot missing store for node %q", name)
		}
		if !rel.Schema().SameShape(schema) {
			return fmt.Errorf("core: snapshot store for %q has shape %s, want %s",
				name, rel.Schema(), schema)
		}
	}
	for name := range snap.Store {
		n := v.Node(name)
		if n == nil || n.IsLeaf() {
			return fmt.Errorf("core: snapshot has a store for unknown or leaf node %q", name)
		}
	}
	b := m.vstore.Begin()
	for name, rel := range snap.Store {
		setStored(b, v, name, rel.Clone())
	}
	seq := snap.StoreVersion
	if seq == 0 {
		seq = 1
	}
	m.qmu.Lock()
	m.lastProcessed = snap.LastProcessed.Clone()
	oldLen := len(m.queue)
	kept := m.queue[:0]
	for _, a := range m.queue {
		if a.Time > m.lastProcessed[a.Source] {
			kept = append(kept, a)
		}
	}
	m.queue = trimAnnouncements(kept, oldLen)
	m.initialized = true
	m.viewInit = snap.ViewInit
	m.vstore.PublishAt(b, seq, m.lastProcessed.Clone(), snap.ViewInit)
	m.qmu.Unlock()
	m.obs.reg.Emit(metrics.Event{
		Type: metrics.EventPublish, Subject: fmt.Sprintf("v%d", seq),
		Fields: map[string]int64{"version": int64(seq)},
	})
	return nil
}
