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

// This file implements queries spanning several export relations — the
// general form of §6.3, whose VAP input is a SET of (R_i, A_i, f_i)
// triples. The QP extracts one requirement per referenced export,
// constructs every temporary in a single VAP invocation (so each source is
// polled at most once, as the consistency argument requires), and
// evaluates the relational expression over the assembled catalog. Like
// the single-export path, it pins one published store version: lock-free
// when every export is fully materialized, polling against the pinned
// version's ref′ otherwise.

// QueryExpr answers an arbitrary relational-algebra expression whose base
// relations are export relations of the integrated view.
func (m *Mediator) QueryExpr(expr algebra.RelExpr, opts QueryOptions) (*QueryResult, error) {
	start := time.Now()
	for i := 0; i < maxEpochRetries; i++ {
		res, ok, err := m.queryExprOnce(expr, opts, start)
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

// queryExprOnce is one attempt against a consistent (epoch, version)
// pair; ok=false means a re-annotation swapped the epoch between the
// epoch read and the version pin — retry.
func (m *Mediator) queryExprOnce(expr algebra.RelExpr, opts QueryOptions, start time.Time) (*QueryResult, bool, error) {
	ep := m.epoch()
	pv := ep.v
	exports := algebra.BaseRelationsOf(expr)
	if len(exports) == 0 {
		return nil, false, fmt.Errorf("core: query references no relations")
	}
	var reqs []vdp.Requirement
	for _, name := range exports {
		n := pv.Node(name)
		if n == nil || !n.Export {
			return nil, false, fmt.Errorf("core: %q is not an export relation", name)
		}
		// Conservative: fetch every attribute of each referenced export
		// (projection pushdown into multi-export temporaries is an
		// optimization the single-export path already demonstrates).
		req, err := vdp.NewRequirement(pv, name, n.Schema.AttrNames(), nil)
		if err != nil {
			return nil, false, err
		}
		if req.NeedsVirtual(pv) {
			reqs = append(reqs, req)
		}
	}

	res := &tempResult{
		temps:    map[string]*relation.Relation{},
		polledAt: map[string]clock.Time{},
	}
	var v *store.Version
	var committed clock.Time
	var answer *relation.Relation
	if len(reqs) == 0 {
		// Every export fully materialized: lock-free fast path — stamp
		// while the version is provably current, then evaluate against it.
		var err error
		v, committed, err = m.pinFast()
		if err != nil {
			return nil, false, err
		}
		if m.planFor(v.Seq()) != ep {
			return nil, false, nil // epoch swapped underneath; retry
		}
		cat, err := m.exprCatalog(v, exports, res)
		if err != nil {
			return nil, false, err
		}
		answer, err = expr.Eval(cat)
		if err != nil {
			return nil, false, err
		}
	} else {
		v = m.pinVersion()
		if v == nil {
			return nil, false, fmt.Errorf("core: mediator not initialized")
		}
		defer m.unpinVersion(v)
		if m.planFor(v.Seq()) != ep {
			return nil, false, nil // epoch swapped underneath; retry
		}
		plan, err := pv.PlanTemporaries(reqs)
		if err != nil {
			return nil, false, err
		}
		res, err = m.buildTemporaries(ep, plan, v, opts.Degrade)
		if err != nil {
			return nil, false, err
		}
		cat, err := m.exprCatalog(v, exports, res)
		if err != nil {
			return nil, false, err
		}
		answer, err = expr.Eval(cat)
		if err != nil {
			return nil, false, err
		}
		committed = m.clk.Now()
	}

	reflect := m.reflectFor(ep, v, res, committed)

	// Same ServeStale stamping and f̄ enforcement as the single-export
	// path (query.go).
	var staleness clock.Vector
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

	m.obs.observeQuery(len(reqs) > 0, start, committed-v.Stamp())
	for _, name := range exports {
		m.obs.noteQuery(name, pv.Node(name).Schema.AttrNames())
	}
	if m.recorder != nil {
		m.recorder.RecordQuery(trace.QueryTxn{
			Committed: committed,
			Reflect:   reflect.Clone(),
			Multi:     expr,
			Answer:    answer.Clone(),
			Polled:    res.polls,
		})
	}
	return &QueryResult{
		Answer:    answer,
		Reflect:   reflect,
		Committed: committed,
		Polled:    res.polls,
		Version:   v.Seq(),
		Degraded:  len(staleness) > 0,
		Staleness: staleness,
	}, true, nil
}

// exprCatalog assembles the evaluation catalog: temporaries where built,
// the pinned version's stores for fully materialized exports.
func (m *Mediator) exprCatalog(v *store.Version, exports []string, res *tempResult) (algebra.MapCatalog, error) {
	cat := make(algebra.MapCatalog, len(exports))
	for _, name := range exports {
		if temp, ok := res.temps[name]; ok {
			cat[name] = temp
			continue
		}
		st := v.Rel(name)
		if st == nil {
			return nil, fmt.Errorf("core: no state for export %q", name)
		}
		cat[name] = st
	}
	return cat, nil
}

// QueryExprSQL answers a multi-relation SELECT over export relations
// (joins, UNION, EXCEPT all permitted — the relations named in FROM must
// be exports).
func (m *Mediator) QueryExprSQL(sql string) (*QueryResult, error) {
	stmt, err := sqlview.Parse(sql)
	if err != nil {
		return nil, err
	}
	expr, err := stmt.ToRelExpr("answer")
	if err != nil {
		return nil, err
	}
	return m.QueryExpr(expr, QueryOptions{})
}
