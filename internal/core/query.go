package core

import (
	"fmt"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/relation"
	"squirrel/internal/sqlview"
	"squirrel/internal/store"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// This file implements the Query Processor (§4, §6.3). Queries take the
// paper's canonical form π_Attrs σ_Cond (Export). When every referenced
// attribute is materialized the answer comes straight from a published
// store version — lock-free, even while an update transaction runs;
// otherwise the VAP constructs temporary relations against a pinned
// version — either the standard children-based way or by key-based
// construction (Example 2.3).

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

// Query answers π_attrs σ_cond (export) with default options. attrs nil
// means all attributes of the export relation.
func (m *Mediator) Query(export string, attrs []string, cond algebra.Expr) (*relation.Relation, error) {
	res, err := m.QueryOpts(export, attrs, cond, QueryOptions{})
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// QuerySQL answers a query written as `SELECT cols FROM Export WHERE cond`
// against a single export relation.
func (m *Mediator) QuerySQL(sql string) (*relation.Relation, error) {
	stmt, err := sqlview.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt.Op != "" {
		return nil, fmt.Errorf("core: query must be a single SELECT block")
	}
	sel := stmt.Left
	if len(sel.Tables) != 1 {
		return nil, fmt.Errorf("core: queries join nothing; define a view for joins")
	}
	return m.Query(sel.Tables[0].Rel, sel.Cols, sel.Where)
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

// QueryOpts answers π_attrs σ_cond (export) under explicit options,
// returning full consistency metadata. Query transactions never take the
// update mutex: they pin a published version and read it — lock-free when
// everything referenced is materialized, coordinating only on the queue
// lock (for Eager Compensation) when the VAP must poll.
func (m *Mediator) QueryOpts(export string, attrs []string, cond algebra.Expr, opts QueryOptions) (*QueryResult, error) {
	start := time.Now()
	res0, err := m.queryOpts(export, attrs, cond, opts, start)
	if err != nil {
		m.obs.queryErrors.Inc()
	}
	if res0 != nil && err == nil {
		res0.BaseReflect = m.composeBaseReflect(res0.Reflect)
	}
	return res0, err
}

func (m *Mediator) queryOpts(export string, attrs []string, cond algebra.Expr, opts QueryOptions, start time.Time) (*QueryResult, error) {
	for i := 0; i < maxEpochRetries; i++ {
		res, ok, err := m.queryOnce(export, attrs, cond, opts, start)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: query lost the plan-epoch race %d times", maxEpochRetries)
}

// queryOnce runs one attempt of a query transaction against a consistent
// (epoch, version) pair. It returns ok=false — retry — when a
// re-annotation swapped the epoch between the epoch read and the version
// pin, so the requirement would mix one plan's annotation with another
// plan's store layout.
func (m *Mediator) queryOnce(export string, attrs []string, cond algebra.Expr, opts QueryOptions, start time.Time) (*QueryResult, bool, error) {
	ep := m.epoch()
	pv := ep.v
	n := pv.Node(export)
	if n == nil || !n.Export {
		return nil, false, fmt.Errorf("core: %q is not an export relation", export)
	}
	if attrs == nil {
		attrs = n.Schema.AttrNames()
	}
	req, err := vdp.NewRequirement(pv, export, attrs, cond)
	if err != nil {
		return nil, false, err
	}

	var answer *relation.Relation
	var res *tempResult
	var v *store.Version
	var committed clock.Time
	usedKeyBased := false

	if !req.NeedsVirtual(pv) {
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
		answer, err = algebra.SelectProject(v.Rel(export), export, attrs, cond)
		if err != nil {
			return nil, false, err
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
		kb, kbOK := pv.KeyBasedPlan(req)
		useKB := false
		switch opts.KeyBased {
		case KeyBasedForce:
			useKB = kbOK
		case KeyBasedAuto:
			// Prefer key-based when it polls strictly fewer sources (the
			// paper: "one more choice", not always better).
			if kbOK {
				std := pv.SourcesNeeded(req)
				kbCost := 0
				if kb.ChildReq.NeedsVirtual(pv) {
					kbCost = pv.SourcesNeeded(kb.ChildReq)
				}
				useKB = kbCost < std
			}
		}
		if useKB {
			answer, res, err = m.keyBasedAnswer(ep, v, req, kb, attrs, opts.Degrade)
			usedKeyBased = true
		} else {
			answer, res, err = m.standardAnswer(ep, v, req, attrs, opts.Degrade)
		}
		if err != nil {
			return nil, false, err
		}
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
	if res != nil && len(res.stale) > 0 {
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

	m.obs.observeQuery(req.NeedsVirtual(pv), start, committed-v.Stamp())
	m.obs.noteQuery(export, req.AttrList(pv))
	if usedKeyBased {
		m.obs.keyBasedTemps.Inc()
	}
	polls := 0
	if res != nil {
		polls = res.polls
	}
	if m.recorder != nil {
		m.recorder.RecordQuery(trace.QueryTxn{
			Committed: committed,
			Reflect:   reflect.Clone(),
			Export:    export,
			Attrs:     append([]string(nil), attrs...),
			Cond:      cond,
			Answer:    answer.Clone(),
			Polled:    polls,
			KeyBased:  usedKeyBased,
		})
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

// standardAnswer runs the two-phase VAP (§6.3) against the pinned version
// and evaluates the query over the constructed temporaries. attrs is the
// caller's projection — req.Attrs may be wider (closed over condition
// attributes).
func (m *Mediator) standardAnswer(ep *planEpoch, v *store.Version, req vdp.Requirement, attrs []string, degrade DegradeMode) (*relation.Relation, *tempResult, error) {
	plan, err := ep.v.PlanTemporaries([]vdp.Requirement{req})
	if err != nil {
		return nil, nil, err
	}
	res, err := m.buildTemporaries(ep, plan, v, degrade)
	if err != nil {
		return nil, nil, err
	}
	top, ok := res.temps[req.Rel]
	if !ok {
		return nil, nil, fmt.Errorf("core: VAP did not construct a temporary for %q", req.Rel)
	}
	// The temporary may be a superset (merged conditions and closure
	// attributes); re-apply the condition and project to the caller's list.
	answer, err := algebra.SelectProject(top, req.Rel, attrs, req.Cond)
	if err != nil {
		return nil, nil, err
	}
	return answer, res, nil
}

// keyBasedAnswer implements the key-based construction of Example 2.3:
// join the export's materialized store projection (from the pinned
// version) with a single child fetch keyed by the child's key.
func (m *Mediator) keyBasedAnswer(ep *planEpoch, v *store.Version, req vdp.Requirement, kb *vdp.KeyBased, attrs []string, degrade DegradeMode) (*relation.Relation, *tempResult, error) {
	// Fetch the child portion (recursively through the VAP if the child
	// itself is virtual).
	var childRel *relation.Relation
	res := &tempResult{temps: map[string]*relation.Relation{}, polledAt: map[string]clock.Time{}}
	if kb.ChildReq.NeedsVirtual(ep.v) {
		plan, err := ep.v.PlanTemporaries([]vdp.Requirement{kb.ChildReq})
		if err != nil {
			return nil, nil, err
		}
		res, err = m.buildTemporaries(ep, plan, v, degrade)
		if err != nil {
			return nil, nil, err
		}
		childRel = res.temps[kb.ChildReq.Rel]
		if childRel == nil {
			return nil, nil, fmt.Errorf("core: VAP did not construct the key-based child %q", kb.ChildReq.Rel)
		}
	} else {
		var err error
		childRel, err = algebra.SelectProject(v.Rel(kb.ChildReq.Rel), kb.ChildReq.Rel,
			kb.ChildReq.AttrList(ep.v), kb.ChildReq.Cond)
		if err != nil {
			return nil, nil, err
		}
	}
	storePart, err := algebra.SelectProject(v.Rel(kb.Node), kb.Node, kb.StoreAttrs, nil)
	if err != nil {
		return nil, nil, err
	}
	joined, err := joinOnKey(ep.v.Node(kb.Node), storePart, childRel, kb.Key)
	if err != nil {
		return nil, nil, err
	}
	answer, err := algebra.SelectProject(joined, kb.Node, attrs, req.Cond)
	if err != nil {
		return nil, nil, err
	}
	return answer, res, nil
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
