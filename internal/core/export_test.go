package core

import (
	"fmt"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/store"
)

// useKernel swaps the kernel executor of a freshly built mediator, before
// it runs any transaction: workers == 0 selects the serial reference
// kernel below, workers >= 1 the staged kernel on a pool of that size.
func useKernel(m *Mediator, workers int) {
	if workers == 0 {
		m.kernel = m.serialKernel
		return
	}
	m.kernel = func(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error) {
		return m.kernelStaged(b, combined, temps, workers)
	}
}

// serialKernel runs the IUP Kernel Algorithm (§6.4) node by node in the
// topological order, with the given temporaries standing in for
// virtual/hybrid node states. All materialized reads and writes go
// through the builder, whose reads see the transaction's own writes
// first — the sibling-state discipline the in-place store used to
// provide. It is the reference implementation: the staged kernel must
// produce byte-identical stores (differential_test.go enforces it).
func (m *Mediator) serialKernel(b *store.Builder, combined *delta.Delta, temps *tempResult) (map[string]*delta.RelDelta, error) {
	var tempRels map[string]*relation.Relation
	if temps != nil {
		tempRels = temps.temps
	}
	resolve := resolverFor(b, tempRels)
	pending := make(map[string]*delta.RelDelta)
	captured := make(map[string]*delta.RelDelta)
	v := m.curVDP() // stable: the kernel runs under txnMu
	for _, name := range v.Order() {
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
		// Fire the rules of the in-edges: propagate Δ(name) to parents —
		// but only along paths that reach materialized data; virtual-only
		// subgraphs are the VAP's job.
		for _, parent := range v.Parents(name) {
			if !v.MaterializationRelevant(parent) {
				continue
			}
			contrib, err := v.Propagate(parent, name, dn, resolve)
			if err != nil {
				return nil, fmt.Errorf("core: rule (%s, %s): %w", parent, name, err)
			}
			if acc, ok := pending[parent]; ok {
				acc.Smash(contrib)
			} else {
				pending[parent] = contrib
			}
		}
		if n.IsLeaf() {
			continue // leaves hold no mediator state
		}
		// Process the node: apply Δ to its temporary (if any) and to the
		// materialized portion of its store. A temporary holds
		// π_B σ_cond of the node, so the delta passes through the same
		// selection before the projection (both commute with apply, §6.2).
		if temp, ok := tempRels[name]; ok {
			toApply := dn
			if cond := temps.conds[name]; !algebra.IsTrue(cond) {
				filtered, err := dn.Select(algebra.Compile(cond, n.Schema))
				if err != nil {
					return nil, err
				}
				toApply = filtered
			}
			narrowed, err := projectRelDelta(toApply, n.Schema, temp.Schema())
			if err != nil {
				return nil, err
			}
			if err := narrowed.ApplyTo(temp, true); err != nil {
				return nil, fmt.Errorf("core: applying Δ%s to temporary: %w", name, err)
			}
		}
		if st := b.Mutable(name); st != nil {
			narrowed, err := projectRelDelta(dn, n.Schema, st.Schema())
			if err != nil {
				return nil, err
			}
			if err := narrowed.ApplyTo(st, true); err != nil {
				return nil, fmt.Errorf("core: applying Δ%s to store: %w", name, err)
			}
			captured[name] = narrowed
		}
	}
	return captured, nil
}
