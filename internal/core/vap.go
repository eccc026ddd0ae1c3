package core

import (
	"fmt"
	"sort"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/store"
	"squirrel/internal/vdp"
)

// This file implements the Virtual Attribute Processor (§6.3): given a
// planned set of temporary-relation requirements (children-first), it
// polls source databases for the leaf-parent temporaries — with Eager
// Compensation for announcing (materialized/hybrid-contributor) sources so
// the answers correspond to the view's ref′, and single-transaction
// packaging for virtual contributors — and evaluates the higher
// temporaries bottom-up. All reads of materialized state go through a
// store.View: a pinned published version for query transactions, the
// in-progress Builder for update transactions.

// tempResult carries constructed temporaries and poll bookkeeping.
type tempResult struct {
	temps map[string]*relation.Relation
	// conds records each temporary's selection condition (the
	// requirement's Cond): a temp holds π_B σ_cond of its node, so any
	// delta applied to it during the kernel run must pass through the
	// same selection.
	conds map[string]algebra.Expr
	// polledAt records, per virtual-contributor source polled, the
	// serialization instant of the read (these become the ref components
	// of the ongoing query transaction).
	polledAt map[string]clock.Time
	// stale records, per source whose poll failed and was served from the
	// raw poll cache instead, the cached answer's serialization instant.
	// Empty for fail-fast builds. The query layer turns membership into
	// the stamped staleness bound (Committed − Reflect[src]).
	stale  map[string]clock.Time
	polls  int
	tuples int
}

// resolverFor resolves node states to temporaries first, then to the
// given view of the materialized store.
func resolverFor(view store.View, temps map[string]*relation.Relation) vdp.Resolver {
	return func(name string) (*relation.Relation, error) {
		if temps != nil {
			if r, ok := temps[name]; ok {
				return r, nil
			}
		}
		if r := view.Rel(name); r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("core: no temporary or materialized state for %q", name)
	}
}

// buildTemporaries executes phase two of the VAP for an already-expanded
// plan (from vdp.PlanTemporaries), reading materialized state — and
// compensating polls back to ref′ — from the given view. ep is the plan
// epoch the requirements were planned under; the view must be a version
// (or builder base) that epoch governs, so the store layout and the
// contributor classification agree with the plan. Safe to call
// concurrently for distinct tempResults: the only shared state it touches
// is the announcement log (under qmu), the poll cache (under cmu), and
// atomic counters.
//
// degrade selects what happens when a source poll fails after the fault
// boundary (retry, breaker, deadline) is exhausted: FailFast propagates
// the error; ServeStale falls back to the raw answer cached from the last
// successful poll of the same shape, recording the source in res.stale so
// the query layer can stamp and enforce the staleness bound. The fallback
// keeps the answer EXACT at its Reflect vector: for an announcing source
// the cached answer is only usable when its instant is at or past the
// view's ref′(src) — then every announcement in the compensation window
// is still retained (it was unprocessed when the version was pinned), so
// Eager Compensation rolls it back to ref′(src) as usual; for a virtual
// contributor the cached instant simply becomes the poll instant. Update
// transactions always build fail-fast: propagating source deltas onto
// stale helper states would corrupt the store.
func (m *Mediator) buildTemporaries(ep *planEpoch, plan []vdp.Requirement, view store.View, degrade DegradeMode) (*tempResult, error) {
	v := ep.v
	res := &tempResult{
		temps:    make(map[string]*relation.Relation),
		conds:    make(map[string]algebra.Expr),
		polledAt: make(map[string]clock.Time),
		stale:    make(map[string]clock.Time),
	}
	// Split the plan: leaf-parent requirements are satisfied by polling;
	// the rest bottom-up. Plan order is already children-first.
	type pollItem struct {
		req  vdp.Requirement
		spec vdp.PollSpec
	}
	bySource := make(map[string][]pollItem)
	var upper []vdp.Requirement
	for _, req := range plan {
		if !req.NeedsVirtual(v) {
			continue // served directly from the store
		}
		if v.IsLeafParent(req.Rel) {
			spec, err := v.LeafParentPollSpec(req)
			if err != nil {
				return nil, err
			}
			bySource[spec.Source] = append(bySource[spec.Source], pollItem{req: req, spec: spec})
			continue
		}
		upper = append(upper, req)
	}

	// Poll each source once, packaging all its reads into a single
	// transaction (§6.3's requirement for virtual contributors; harmless
	// and efficient for hybrid contributors too). Distinct sources share
	// no poll state — the fault boundary is per source, and the poll
	// cache and announcement log sit behind leaf locks — so when the
	// mediator is configured with a worker pool (PropagateWorkers > 1)
	// the polls issue concurrently and their latencies overlap. Answers
	// are then compensated and merged serially in sorted source order,
	// which keeps the constructed temporaries (and the first reported
	// error) deterministic regardless of poll completion order.
	sources := make([]string, 0, len(bySource))
	for s := range bySource {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	type pollOut struct {
		items   []pollItem
		answers []*relation.Relation
		asOf    clock.Time
		stale   bool
	}
	outs := make([]pollOut, len(sources))
	pollWorkers := 1
	if m.workers > 1 {
		pollWorkers = m.workers
	}
	if err := runBounded(pollWorkers, len(sources), func(i int) error {
		src := sources[i]
		o := &outs[i]
		o.items = bySource[src]
		specs := make([]source.QuerySpec, len(o.items))
		for j, it := range o.items {
			specs[j] = source.QuerySpec{Rel: it.spec.Leaf, Attrs: it.spec.Attrs, Cond: it.spec.Cond}
		}
		key := pollKey(src, specs)
		answers, asOf, err := m.pollSource(src, specs, false)
		if err == nil {
			// Cache the raw answers before compensation mutates them.
			m.cachePoll(key, answers, asOf)
			o.answers, o.asOf = answers, asOf
			return nil
		}
		if degrade != ServeStale {
			return fmt.Errorf("core: polling %s: %w", src, err)
		}
		cached, cachedAsOf, ok := m.cachedAnswers(key)
		if !ok {
			return fmt.Errorf("core: polling %s (no cached answer to degrade to): %w", src, err)
		}
		if ep.contributors[src] != VirtualContributor && cachedAsOf < view.RefOf(src) {
			return fmt.Errorf("core: polling %s (cached answer predates the materialized state): %w", src, err)
		}
		o.answers, o.asOf, o.stale = cached, cachedAsOf, true
		return nil
	}); err != nil {
		return nil, err
	}
	for i, src := range sources {
		o := &outs[i]
		announcing := ep.contributors[src] != VirtualContributor
		if o.stale {
			res.stale[src] = o.asOf
		} else {
			res.polls++
			m.stats.sourcePolls.Add(1)
		}
		if !announcing {
			res.polledAt[src] = o.asOf
		}
		for j, it := range o.items {
			ans := o.answers[j]
			res.tuples += ans.Len()
			m.stats.tuplesPolled.Add(int64(ans.Len()))
			if announcing {
				// Eager Compensation: roll the answer back to the view's
				// ref′(src) by undoing every announced update from this
				// source that the answer reflects but the view does not.
				if err := m.compensate(ans, src, it.spec, o.asOf, view); err != nil {
					return nil, err
				}
			}
			temp, err := leafParentTemp(v, it.req, it.spec, ans)
			if err != nil {
				return nil, err
			}
			res.temps[it.req.Rel] = temp
			res.conds[it.req.Rel] = it.req.Cond
			m.stats.tempsBuilt.Add(1)
		}
	}

	// Build the remaining temporaries bottom-up.
	resolve := resolverFor(view, res.temps)
	for _, req := range upper {
		n := v.Node(req.Rel)
		temp, err := vdp.EvalRestricted(n, req.AttrList(v), req.Cond, resolve)
		if err != nil {
			return nil, fmt.Errorf("core: constructing temporary for %s: %w", req.Rel, err)
		}
		res.temps[req.Rel] = temp
		res.conds[req.Rel] = req.Cond
		m.stats.tempsBuilt.Add(1)
	}
	return res, nil
}

// compensate applies the inverse smash of the announced updates from src
// in the window (view.RefOf(src), asOf] to the poll answer, pushed through
// the poll's selection and projection — the Eager Compensation Algorithm
// generalization of §6.3. The window scans both the retained done log
// (announcements already folded into newer versions than the pinned one)
// and the live queue, so a query pinned to an older version still rolls
// its polls all the way back to that version's ref′.
func (m *Mediator) compensate(answer *relation.Relation, src string, spec vdp.PollSpec, asOf clock.Time, view store.View) error {
	start := time.Now()
	defer func() { m.obs.compensation.ObserveSince(start) }()
	base := view.RefOf(src)
	pending := delta.NewRel(spec.Leaf)
	collect := func(list []source.Announcement) {
		for _, a := range list {
			if a.Source != src || a.Time <= base || a.Time > asOf {
				continue
			}
			if rd := a.Delta.Get(spec.Leaf); rd != nil {
				pending.Smash(rd)
			}
		}
	}
	m.qmu.Lock()
	if base < m.resyncBarrier[src] {
		// The view predates a resync of src: the announcement gap lost
		// deltas inside the compensation window, so rolling back to this
		// ref′ is impossible. Refuse rather than answer wrong; the caller
		// retries against the current version.
		m.qmu.Unlock()
		return fmt.Errorf("core: pinned state for %q predates its resync; retry against the current version", src)
	}
	collect(m.done)
	collect(m.queue)
	m.qmu.Unlock()
	if pending.IsEmpty() {
		return nil
	}
	leafSchema, ok := m.leafSchemas[spec.Leaf]
	if !ok {
		return fmt.Errorf("core: unknown leaf %q", spec.Leaf)
	}
	// Selection and projection commute with apply (§6.2), so transform the
	// pending delta exactly as the source transformed the data.
	selected, err := pending.Select(algebra.Compile(spec.Cond, leafSchema))
	if err != nil {
		return err
	}
	attrs := spec.Attrs
	if attrs == nil {
		attrs = leafSchema.AttrNames()
	}
	positions, err := leafSchema.Positions(attrs)
	if err != nil {
		return err
	}
	projected := selected.Project(spec.Leaf, positions)
	if err := projected.Inverse().ApplyTo(answer, true); err != nil {
		return fmt.Errorf("core: eager compensation for %s/%s: %w", src, spec.Leaf, err)
	}
	return nil
}

// leafParentTemp converts a compensated poll answer (over the poll's leaf
// attributes) into the temporary relation for the leaf-parent node:
// project to the requirement's attributes, in the node's attribute order.
func leafParentTemp(v *vdp.VDP, req vdp.Requirement, spec vdp.PollSpec, answer *relation.Relation) (*relation.Relation, error) {
	n := v.Node(req.Rel)
	attrs := req.AttrList(v)
	schema, err := n.Schema.Project(n.Name, attrs)
	if err != nil {
		return nil, err
	}
	positions, err := answer.Schema().Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(schema)
	answer.Each(func(t relation.Tuple, c int) bool {
		out.Add(t.Project(positions), c)
		return true
	})
	return out, nil
}
