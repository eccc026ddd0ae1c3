package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/store"
	"squirrel/internal/vdp"
)

// The staged kernel: the Kernel Algorithm's topological order, executed
// stage by stage over vdp.Stages()'s antichain partition on a bounded
// worker pool. Within a stage no node depends on another, so once all
// contributions from earlier stages are merged (they are — every child
// lies in a strictly earlier stage), the stage's node maintenance is
// mutually independent EXCEPT for the sibling-state discipline: a rule
// fired for node X must resolve a same-stage sibling Z to its new state
// iff Z precedes X in the topological order, exactly as the serial kernel
// would. The stage executor preserves that discipline without any
// execution-order dependence by splitting each stage into two barriers:
//
//	setup (serial)    reserve per-node state: capture each dirty node's
//	                  pre-state (temporary and/or store relation) and
//	                  clone its post-state slots. Builder and temps-map
//	                  bookkeeping is single-writer, so it happens here.
//	phase 1 (pool)    apply each node's delta to its OWN post-state
//	                  slots. Distinct nodes touch distinct relations.
//	phase 2 (pool)    fire each node's rules, resolving same-stage
//	                  siblings from the captured pre/post snapshots by
//	                  topological index; contributions accumulate
//	                  per-node.
//	merge (serial)    install post-state temporaries and smash the
//	                  contributions into pending, in stage order.
//
// Because every resolver read is a captured immutable snapshot, the
// result is independent of worker scheduling — the staged kernel replays
// the serial kernel's discipline verbatim and must produce byte-identical
// stores (the differential oracle in randplan_test.go drives both over
// random plans and asserts exactly that).

// stageNode is one dirty node's work in the current stage.
type stageNode struct {
	name string
	node *vdp.Node
	topo int
	dn   *delta.RelDelta

	// Pre/post state snapshots. pre* relations are read-only (the base
	// version's relation, or the VAP temporary as built); post* are this
	// node's exclusively-owned clones, mutated only by its own phase-1
	// worker. Nil when the node has no such state (leaves have neither).
	preTemp   *relation.Relation
	postTemp  *relation.Relation
	preStore  *relation.Relation
	postStore *relation.Relation

	// captured is the store-schema-projected ΔR this node applied to its
	// store portion in phase 1 (nil when the node stores nothing).
	// Written by the node's own worker, harvested in the serial merge —
	// the subscription registry ships it (subscribe.go).
	captured *delta.RelDelta

	contribs []stageContrib
}

type stageContrib struct {
	parent string
	d      *delta.RelDelta
}

// kernelStaged is the staged form of (*Mediator).kernel. workers bounds
// the pool; workers == 1 runs the same staged code single-threaded.
func (m *Mediator) kernelStaged(b *store.Builder, combined *delta.Delta, temps *tempResult, workers int) (map[string]*delta.RelDelta, error) {
	var tempRels map[string]*relation.Relation
	if temps != nil {
		tempRels = temps.temps
	}
	base := resolverFor(b, tempRels)
	pending := make(map[string]*delta.RelDelta)
	captured := make(map[string]*delta.RelDelta)
	v := m.curVDP() // stable: the staged kernel runs under txnMu

	for stageIdx, stage := range v.Stages() {
		// Collect the stage's dirty nodes, in topological order.
		var work []*stageNode
		for _, name := range stage {
			n := v.Node(name)
			var dn *delta.RelDelta
			if n.IsLeaf() {
				dn = combined.Get(name)
			} else {
				dn = pending[name]
			}
			if dn == nil || dn.IsEmpty() {
				continue
			}
			work = append(work, &stageNode{name: name, node: n, topo: v.TopoIndex(name), dn: dn})
		}
		if len(work) == 0 {
			continue
		}
		stageStart := time.Now()

		// Setup: reserve state serially — Builder.Mutable and the temps
		// map are single-writer structures; afterwards each worker only
		// touches relations its node exclusively owns.
		for _, w := range work {
			if w.node.IsLeaf() {
				continue // leaves hold no mediator state
			}
			if temp, ok := tempRels[w.name]; ok {
				w.preTemp = temp
				w.postTemp = temp.Clone()
			}
			w.preStore = b.Rel(w.name)
			w.postStore = b.Mutable(w.name)
		}

		// Phase 1: apply each node's delta to its own post-state.
		applyStart := time.Now()
		if err := runBounded(workers, len(work), func(i int) error {
			return m.applyStageDelta(work[i], temps)
		}); err != nil {
			return nil, err
		}
		m.obs.stageApply.ObserveSince(applyStart)

		// Phase 2: fire the rules against the captured snapshots.
		rulesStart := time.Now()
		byName := make(map[string]*stageNode, len(work))
		for _, w := range work {
			byName[w.name] = w
		}
		if err := runBounded(workers, len(work), func(i int) error {
			w := work[i]
			resolve := stageResolver(w, byName, base)
			for _, parent := range v.Parents(w.name) {
				if !v.MaterializationRelevant(parent) {
					continue
				}
				contrib, err := v.Propagate(parent, w.name, w.dn, resolve)
				if err != nil {
					return fmt.Errorf("core: rule (%s, %s): %w", parent, w.name, err)
				}
				w.contribs = append(w.contribs, stageContrib{parent: parent, d: contrib})
			}
			return nil
		}); err != nil {
			return nil, err
		}
		m.obs.stageRules.ObserveSince(rulesStart)

		// Merge: install post-state temporaries so later stages resolve
		// them, and smash the contributions (additive, hence
		// order-independent; merged in stage order for good measure).
		for _, w := range work {
			if w.postTemp != nil {
				tempRels[w.name] = w.postTemp
			}
			if w.captured != nil {
				captured[w.name] = w.captured
			}
			for _, c := range w.contribs {
				if acc, ok := pending[c.parent]; ok {
					acc.Smash(c.d)
				} else {
					pending[c.parent] = c.d
				}
			}
		}
		m.obs.stageNodes.Add(int64(len(work)))
		m.obs.stageTotal.ObserveSince(stageStart)
		m.obs.reg.Emit(metrics.Event{
			Type: metrics.EventStage, Dur: time.Since(stageStart),
			Fields: map[string]int64{"stage": int64(stageIdx), "nodes": int64(len(work)), "workers": int64(workers)},
		})
	}
	return captured, nil
}

// applyStageDelta processes one node's own state: apply Δ to its
// temporary clone (through the temporary's selection, which commutes with
// apply, §6.2) and to the materialized portion's clone — the same two
// writes the serial kernel performs in place.
func (m *Mediator) applyStageDelta(w *stageNode, temps *tempResult) error {
	if w.node.IsLeaf() {
		return nil
	}
	if w.postTemp != nil {
		toApply := w.dn
		if cond := temps.conds[w.name]; !algebra.IsTrue(cond) {
			filtered, err := w.dn.Select(algebra.Compile(cond, w.node.Schema))
			if err != nil {
				return err
			}
			toApply = filtered
		}
		narrowed, err := projectRelDelta(toApply, w.node.Schema, w.postTemp.Schema())
		if err != nil {
			return err
		}
		if err := narrowed.ApplyTo(w.postTemp, true); err != nil {
			return fmt.Errorf("core: applying Δ%s to temporary: %w", w.name, err)
		}
	}
	if w.postStore != nil {
		narrowed, err := projectRelDelta(w.dn, w.node.Schema, w.postStore.Schema())
		if err != nil {
			return err
		}
		if err := narrowed.ApplyTo(w.postStore, true); err != nil {
			return fmt.Errorf("core: applying Δ%s to store: %w", w.name, err)
		}
		w.captured = narrowed
	}
	return nil
}

// stageResolver resolves node states for rules fired on behalf of `me`:
// same-stage dirty nodes come from the captured snapshots — post-state if
// they precede me in the topological order (the serial kernel would have
// processed them already), pre-state otherwise (me included: a node's own
// rules see its pre-update state; self-join occurrence sequencing happens
// inside Propagate). Everything else falls back to the shared resolver —
// earlier stages' nodes are already merged (post), later stages' untouched
// (pre) — which phase 2 only reads.
func stageResolver(me *stageNode, stage map[string]*stageNode, fallback vdp.Resolver) vdp.Resolver {
	return func(name string) (*relation.Relation, error) {
		other, ok := stage[name]
		if !ok {
			return fallback(name)
		}
		var r *relation.Relation
		if other.topo < me.topo {
			if r = other.postTemp; r == nil {
				r = other.postStore
			}
		} else {
			if r = other.preTemp; r == nil {
				r = other.preStore
			}
		}
		if r == nil {
			return nil, fmt.Errorf("core: no temporary or materialized state for %q", name)
		}
		return r, nil
	}
}

// runBounded runs fn(0..n-1) on at most `workers` goroutines and returns
// the lowest-index error (deterministic regardless of scheduling).
// workers <= 1 degenerates to a plain loop with fail-fast.
func runBounded(workers, n int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
