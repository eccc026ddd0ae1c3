package core

import (
	"fmt"
	"strconv"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/relation"
	"squirrel/internal/sqlview"
	"squirrel/internal/store"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// This file implements the Query Processor (§4, §6.3). A query is a
// relational-algebra expression over export relations; π_A σ_f (E) is its
// one-leaf case. Every π/σ-on-Scan subtree is a leaf, and its requirement
// (E, A, f) joins §6.3's VAP input set (a bare Scan asks for all of E).
// When no leaf needs a virtual attribute the answer comes straight from a
// published store version, lock-free even while an update transaction
// runs. Otherwise one VAP invocation over every leaf's requirement polls
// each source at most once against a pinned version, and each virtual
// leaf chooses on its own between the standard children-based
// construction and key-based construction (Example 2.3).

// KeyBasedMode selects how the QP uses key-based construction.
type KeyBasedMode uint8

const (
	// KeyBasedAuto picks whichever construction polls fewer sources.
	KeyBasedAuto KeyBasedMode = iota
	// KeyBasedForce always uses key-based construction when applicable.
	KeyBasedForce
	// KeyBasedOff disables key-based construction.
	KeyBasedOff
)

// DegradeMode selects what a query does when a polled source is down
// (its poll fails after retries, or its breaker is open, or it is
// quarantined).
type DegradeMode uint8

const (
	// FailFast returns the poll error, naming the source. The default.
	FailFast DegradeMode = iota
	// ServeStale answers from the last successful poll's cached answer,
	// stamping the result with a per-source staleness bound — the runtime
	// enforcement of Theorem 7.2's per-source delay vector f̄.
	ServeStale
)

// QueryOptions tune query processing.
type QueryOptions struct {
	KeyBased KeyBasedMode
	// Degrade selects the failure policy for source polls.
	Degrade DegradeMode
	// MaxStaleness is the per-source f̄ bound under ServeStale: a degraded
	// answer whose staleness bound exceeds it is refused (≤ 0 means
	// unbounded).
	MaxStaleness clock.Time
}

// QueryResult is the answer to a query transaction together with its
// consistency metadata.
type QueryResult struct {
	Answer *relation.Relation
	// Reflect is the ref(t_j^q) vector: the source-state times the answer
	// corresponds to (§6.1).
	Reflect clock.Vector
	// Committed is the query transaction's commit time t_j^q.
	Committed clock.Time
	// Polled counts source round trips; KeyBased reports the construction
	// used.
	Polled   int
	KeyBased bool
	// Version is the sequence number of the published store version the
	// answer was computed against — every answer is attributable to
	// exactly one version.
	Version uint64
	// Degraded is set when some source's poll was served from the stale
	// cache under ServeStale. Staleness then bounds, per degraded source,
	// how far behind the commit time the answer may be: the answer is
	// exact at its Reflect vector, and Reflect[src] ≥ Committed −
	// Staleness[src] (Theorem 7.2's f̄, stamped per answer). Sources
	// absent from Staleness were reached normally.
	Degraded  bool
	Staleness clock.Vector
	// BaseReflect is Reflect with every federated-tier component
	// translated into base-source coordinates (DESIGN.md §11): the same
	// validity statement an equivalent flat mediator over the base
	// sources would stamp. Equal to Reflect (cloned) when no source is a
	// federated tier.
	BaseReflect clock.Vector
}

// Query answers a relational-algebra expression over export relations with
// full consistency metadata. It never takes the update mutex: it pins a
// published version, coordinating only on the queue lock (for Eager
// Compensation) when the VAP must poll.
func (m *Mediator) Query(expr algebra.RelExpr, opts QueryOptions) (*QueryResult, error) {
	start := time.Now()
	for i := 0; i < maxEpochRetries; i++ {
		res, ok, err := m.queryAttempt(expr, opts, start)
		if err != nil {
			m.obs.queryErrors.Inc()
			return nil, err
		}
		if ok {
			res.BaseReflect = m.composeBaseReflect(res.Reflect)
			return res, nil
		}
	}
	m.obs.queryErrors.Inc()
	return nil, fmt.Errorf("core: query lost the plan-epoch race %d times", maxEpochRetries)
}

// QuerySQL answers a SELECT over export relations (joins, UNION and
// EXCEPT permitted). A one-table block names its answer after its export,
// as π σ (E) does; any other answer is named "answer".
func (m *Mediator) QuerySQL(sql string, opts QueryOptions) (*QueryResult, error) {
	stmt, err := sqlview.Parse(sql)
	if err != nil {
		return nil, err
	}
	name := "answer"
	if stmt.Op == "" && len(stmt.Left.Tables) == 1 {
		name = stmt.Left.Tables[0].Rel
	}
	expr, err := stmt.ToRelExpr(name)
	if err != nil {
		return nil, err
	}
	return m.Query(expr, opts)
}

// pinFast pins the current version for a purely-materialized query and
// stamps the transaction's commit time while the version is provably
// current: it loads the version, takes a clock stamp, and re-checks that
// the same version is still published — retrying otherwise. Because the
// version was current AT the commit stamp, ref(t_j^q) = ref′(version) is
// monotone across fast-path queries in commit order (the checker's
// order-preservation invariant), even with updates publishing
// concurrently. Lock-free: no mutex is ever taken.
func (m *Mediator) pinFast() (*store.Version, clock.Time, error) {
	for {
		v := m.vstore.Current()
		if v == nil {
			return nil, 0, fmt.Errorf("core: mediator not initialized")
		}
		committed := m.clk.Now()
		if m.vstore.Current() == v {
			return v, committed, nil
		}
	}
}

// reflectFor assembles the ref(t_j^q) vector (§6.1) for an answer computed
// against version v under plan epoch ep: announcing contributors reflect
// the version's ref′, polled virtual contributors their poll instants, and
// uninvolved virtual contributors trivially correspond to their state at
// commit time.
func (m *Mediator) reflectFor(ep *planEpoch, v *store.Version, res *tempResult, committed clock.Time) clock.Vector {
	reflect := make(clock.Vector, len(m.sources))
	for src := range m.sources {
		switch {
		case ep.contributors[src] != VirtualContributor:
			reflect[src] = v.RefOf(src)
		case res != nil && res.polledAt[src] != 0:
			reflect[src] = res.polledAt[src]
		default:
			reflect[src] = committed
		}
	}
	return reflect
}

// maxEpochRetries bounds how many times a query transaction restarts
// because a re-annotation swapped the plan epoch between its epoch read
// and its version pin. Each restart is cheap (no polls have happened
// yet), and re-annotations are serialized on txnMu, so hitting the bound
// means something is pathologically flip-happy.
const maxEpochRetries = 64

// queryLeaf is one σ/π-on-Scan subtree of a query expression: the
// requirement it puts on its export, the caller's projection and answer
// name, and — when Example 2.3's construction answers it — the key-based
// plan.
type queryLeaf struct {
	name  string
	attrs []string
	cond  algebra.Expr
	req   vdp.Requirement
	kb    *vdp.KeyBased
}

// splitLeaves returns e with every π_A σ_f (Scan E) subtree (either
// operator optional) replaced by a Scan of its catalog key, appending the
// leaves to *leaves in evaluation order.
func splitLeaves(e algebra.RelExpr, leaves *[]queryLeaf) (algebra.RelExpr, error) {
	var l queryLeaf
	in := e
	if p, ok := in.(algebra.Project); ok {
		l.attrs, l.name, in = p.Cols, p.As, p.Input
		if l.attrs == nil {
			l.attrs = []string{} // π over no columns, not "every attribute"
		}
	}
	if s, ok := in.(algebra.Select); ok {
		l.cond, in = s.Pred, s.Input
	}
	if scan, ok := in.(algebra.Scan); ok {
		l.req.Rel = scan.Rel
		if l.name == "" {
			l.name = scan.Rel
		}
		*leaves = append(*leaves, l)
		return algebra.Scan{Rel: strconv.Itoa(len(*leaves) - 1)}, nil
	}
	var err error
	switch x := e.(type) {
	case algebra.Select:
		x.Input, err = splitLeaves(x.Input, leaves)
		return x, err
	case algebra.Project:
		x.Input, err = splitLeaves(x.Input, leaves)
		return x, err
	case algebra.DistinctOf:
		x.Input, err = splitLeaves(x.Input, leaves)
		return x, err
	case algebra.Join:
		x.L, x.R, err = splitPair(x.L, x.R, leaves)
		return x, err
	case algebra.Union:
		x.L, x.R, err = splitPair(x.L, x.R, leaves)
		return x, err
	case algebra.Diff:
		x.L, x.R, err = splitPair(x.L, x.R, leaves)
		return x, err
	}
	return nil, fmt.Errorf("core: unsupported query expression %T", e)
}

func splitPair(l, r algebra.RelExpr, leaves *[]queryLeaf) (algebra.RelExpr, algebra.RelExpr, error) {
	l, err := splitLeaves(l, leaves)
	if err != nil {
		return nil, nil, err
	}
	r, err = splitLeaves(r, leaves)
	return l, r, err
}

// keyBasedFor returns the key-based plan that answers req under mode, or
// nil for the standard children-based construction. Auto prefers it only
// when it polls strictly fewer sources (the paper: "one more choice", not
// always better).
func keyBasedFor(pv *vdp.VDP, req vdp.Requirement, mode KeyBasedMode) *vdp.KeyBased {
	if mode == KeyBasedOff {
		return nil
	}
	kb, ok := pv.KeyBasedPlan(req)
	if !ok {
		return nil
	}
	if mode == KeyBasedAuto {
		kbCost := 0
		if kb.ChildReq.NeedsVirtual(pv) {
			kbCost = pv.SourcesNeeded(kb.ChildReq)
		}
		if kbCost >= pv.SourcesNeeded(req) {
			return nil
		}
	}
	return kb
}

// queryAttempt runs one attempt of a query transaction against a
// consistent (epoch, version) pair. It returns ok=false — retry — when a
// re-annotation swapped the epoch between the epoch read and the version
// pin, so the requirements would mix one plan's annotation with another
// plan's store layout.
func (m *Mediator) queryAttempt(expr algebra.RelExpr, opts QueryOptions, start time.Time) (*QueryResult, bool, error) {
	ep := m.epoch()
	pv := ep.v
	var leaves []queryLeaf
	top, err := splitLeaves(expr, &leaves)
	if err != nil {
		return nil, false, err
	}
	virtual := false
	for i := range leaves {
		l := &leaves[i]
		n := pv.Node(l.req.Rel)
		if n == nil || !n.Export {
			return nil, false, fmt.Errorf("core: %q is not an export relation", l.req.Rel)
		}
		if l.attrs == nil {
			l.attrs = n.Schema.AttrNames()
		}
		req, err := vdp.NewRequirement(pv, l.req.Rel, l.attrs, l.cond)
		if err != nil {
			return nil, false, err
		}
		l.req = req
		virtual = virtual || req.NeedsVirtual(pv)
	}

	var v *store.Version
	var committed clock.Time
	var res *tempResult
	usedKeyBased := false
	if !virtual {
		// Fast path: everything materialized. Stamp first (while the
		// version is provably current), then compute from the immutable
		// version — the answer is exactly the version's state, so it is
		// valid at the stamp.
		v, committed, err = m.pinFast()
		if err != nil {
			return nil, false, err
		}
		if m.planFor(v.Seq()) != ep {
			return nil, false, nil // epoch swapped underneath; retry
		}
	} else {
		// Polling path: pin the current version so Eager Compensation can
		// roll polls back to its ref′ even if updates publish newer
		// versions meanwhile.
		v = m.pinVersion()
		if v == nil {
			return nil, false, fmt.Errorf("core: mediator not initialized")
		}
		defer m.unpinVersion(v)
		if m.planFor(v.Seq()) != ep {
			return nil, false, nil // epoch swapped underneath; retry
		}
		// One VAP invocation over every leaf's requirement, so each source
		// is polled at most once per query.
		var reqs []vdp.Requirement
		for i := range leaves {
			l := &leaves[i]
			if !l.req.NeedsVirtual(pv) {
				continue
			}
			if l.kb = keyBasedFor(pv, l.req, opts.KeyBased); l.kb == nil {
				reqs = append(reqs, l.req)
				continue
			}
			usedKeyBased = true
			if l.kb.ChildReq.NeedsVirtual(pv) {
				reqs = append(reqs, l.kb.ChildReq)
			}
		}
		if len(reqs) > 0 {
			plan, err := pv.PlanTemporaries(reqs)
			if err != nil {
				return nil, false, err
			}
			if res, err = m.buildTemporaries(ep, plan, v, opts.Degrade); err != nil {
				return nil, false, err
			}
		}
	}

	cat := make(algebra.MapCatalog, len(leaves))
	for i := range leaves {
		if cat[strconv.Itoa(i)], err = leafAnswer(pv, v, res, &leaves[i]); err != nil {
			return nil, false, err
		}
	}
	answer, err := top.Eval(cat)
	if err != nil {
		return nil, false, err
	}
	if virtual {
		// Commit after the polls so chronology holds (every ref component,
		// including poll instants, is ≤ the commit time).
		committed = m.clk.Now()
	}

	reflect := m.reflectFor(ep, v, res, committed)

	// Stamp and enforce the ServeStale bound: a degraded source's
	// contribution is exact at Reflect[src], so the answer lags current
	// time by Committed − Reflect[src]; refuse when that exceeds the
	// query's f̄ (Theorem 7.2 as a runtime contract).
	var staleness clock.Vector
	polls := 0
	if res != nil {
		polls = res.polls
		if len(res.stale) > 0 {
			staleness = make(clock.Vector, len(res.stale))
			for src := range res.stale {
				bound := committed - reflect[src]
				if bound < 1 {
					bound = 1
				}
				if opts.MaxStaleness > 0 && bound > opts.MaxStaleness {
					return nil, false, fmt.Errorf("core: source %q is down and the degraded answer would be stale by %d (> max staleness %d)", src, bound, opts.MaxStaleness)
				}
				staleness[src] = bound
			}
			m.obs.degradedQueries.Inc()
		}
	}

	m.obs.observeQuery(virtual, start, committed-v.Stamp())
	for i := range leaves {
		m.obs.noteQuery(leaves[i].req.Rel, leaves[i].req.AttrList(pv))
	}
	if usedKeyBased {
		m.obs.keyBasedTemps.Inc()
	}
	if m.recorder != nil {
		q := trace.QueryTxn{
			Committed: committed,
			Reflect:   reflect.Clone(),
			Answer:    answer.Clone(),
			Polled:    polls,
			KeyBased:  usedKeyBased,
		}
		if _, one := top.(algebra.Scan); one {
			l := leaves[0]
			q.Export, q.Attrs, q.Cond = l.req.Rel, append([]string(nil), l.attrs...), l.cond
		} else {
			q.Multi = expr
		}
		m.recorder.RecordQuery(q)
	}
	return &QueryResult{
		Answer:    answer,
		Reflect:   reflect,
		Committed: committed,
		Polled:    polls,
		KeyBased:  usedKeyBased,
		Version:   v.Seq(),
		Degraded:  len(staleness) > 0,
		Staleness: staleness,
	}, true, nil
}

// leafAnswer computes one leaf's relation: through key-based construction
// when chosen, else from the leaf's temporary when it needed virtual
// attributes, else from the pinned version's store.
func leafAnswer(pv *vdp.VDP, v *store.Version, res *tempResult, l *queryLeaf) (*relation.Relation, error) {
	if l.kb != nil {
		return keyBasedLeaf(pv, v, res, l)
	}
	src := v.Rel(l.req.Rel)
	if l.req.NeedsVirtual(pv) {
		src = res.temps[l.req.Rel]
		if src == nil {
			return nil, fmt.Errorf("core: VAP did not construct a temporary for %q", l.req.Rel)
		}
	}
	if src == nil {
		return nil, fmt.Errorf("core: no state for export %q", l.req.Rel)
	}
	// The temporary may be a superset (merged conditions and closure
	// attributes); re-apply the condition and project to the caller's list.
	return algebra.SelectProject(src, l.name, l.attrs, l.req.Cond)
}

// keyBasedLeaf implements the key-based construction of Example 2.3:
// join the export's materialized store projection (from the pinned
// version) with a single child fetch keyed by the child's key.
func keyBasedLeaf(pv *vdp.VDP, v *store.Version, res *tempResult, l *queryLeaf) (*relation.Relation, error) {
	kb := l.kb
	var child *relation.Relation
	if kb.ChildReq.NeedsVirtual(pv) {
		child = res.temps[kb.ChildReq.Rel]
		if child == nil {
			return nil, fmt.Errorf("core: VAP did not construct the key-based child %q", kb.ChildReq.Rel)
		}
	} else {
		var err error
		child, err = algebra.SelectProject(v.Rel(kb.ChildReq.Rel), kb.ChildReq.Rel,
			kb.ChildReq.AttrList(pv), kb.ChildReq.Cond)
		if err != nil {
			return nil, err
		}
	}
	storePart, err := algebra.SelectProject(v.Rel(kb.Node), kb.Node, kb.StoreAttrs, nil)
	if err != nil {
		return nil, err
	}
	joined, err := joinOnKey(pv.Node(kb.Node), storePart, child, kb.Key)
	if err != nil {
		return nil, err
	}
	return algebra.SelectProject(joined, l.name, l.attrs, l.req.Cond)
}

// joinOnKey joins the store projection with the child fetch on the child's
// key, producing a relation over (storeAttrs ∪ child non-key attrs) in the
// node's schema order with the store's multiplicities. The child's key
// functionally determines its other attributes, so each store row matches
// at most one child row.
func joinOnKey(n *vdp.Node, storePart, childPart *relation.Relation, key []string) (*relation.Relation, error) {
	childKeyPos, err := childPart.Schema().Positions(key)
	if err != nil {
		return nil, err
	}
	storeKeyPos, err := storePart.Schema().Positions(key)
	if err != nil {
		return nil, err
	}
	// Output attributes: node order, restricted to those available.
	avail := make(map[string]bool)
	for _, a := range storePart.Schema().AttrNames() {
		avail[a] = true
	}
	keySet := make(map[string]bool, len(key))
	for _, k := range key {
		keySet[k] = true
	}
	var childExtra []string
	for _, a := range childPart.Schema().AttrNames() {
		if !keySet[a] {
			avail[a] = true
			childExtra = append(childExtra, a)
		}
	}
	var outAttrs []relation.Attribute
	for _, a := range n.Schema.Attrs() {
		if avail[a.Name] {
			outAttrs = append(outAttrs, a)
		}
	}
	schema, err := relation.NewSchema(n.Name, outAttrs)
	if err != nil {
		return nil, err
	}
	// Index the child by key.
	childByKey := make(map[string]relation.Tuple, childPart.Len())
	childPart.Each(func(t relation.Tuple, _ int) bool {
		childByKey[t.KeyOn(childKeyPos)] = t
		return true
	})
	childExtraPos, err := childPart.Schema().Positions(childExtra)
	if err != nil {
		return nil, err
	}
	// Assemble output tuples in schema order.
	out := relation.NewBag(schema)
	storeAttrIdx := make(map[string]int)
	for i, a := range storePart.Schema().AttrNames() {
		storeAttrIdx[a] = i
	}
	childExtraIdx := make(map[string]int)
	for i, a := range childExtra {
		childExtraIdx[a] = i
	}
	storePart.Each(func(st relation.Tuple, c int) bool {
		ct, ok := childByKey[st.KeyOn(storeKeyPos)]
		if !ok {
			return true // child fetch filtered this row out
		}
		extras := ct.Project(childExtraPos)
		tuple := make(relation.Tuple, len(outAttrs))
		for i, a := range outAttrs {
			if p, ok := storeAttrIdx[a.Name]; ok {
				tuple[i] = st[p]
			} else {
				tuple[i] = extras[childExtraIdx[a.Name]]
			}
		}
		out.Add(tuple, c)
		return true
	})
	return out, nil
}
