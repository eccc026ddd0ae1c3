package vdp

import (
	"sort"
	"strings"

	"squirrel/internal/algebra"
)

// This file derives, once per plan, how each SPJ rule is fired: which
// conjuncts of the node's condition are cross-input equalities (executed
// as index probes), what remains (the residual, evaluated on matched rows
// only), and — for every input a delta can enter through — the order in
// which the other inputs are probed and the attributes forming each probe
// key. The union of those key sets per child node is the set of join
// indexes the mediator keeps resident on that node's stored relation
// (JoinIndexes); nothing about it is configured.

// spjPlan is the build-time firing plan of one SPJ node.
type spjPlan struct {
	residual algebra.Expr
	// firings[i] lists the probe steps when the delta enters at input i.
	firings [][]probeStep
}

// probeStep probes one operand with a key drawn from operands bound
// earlier in the firing. An empty key is a cross product: every row of
// the operand matches.
type probeStep struct {
	input int      // operand probed
	key   []string // its attributes forming the key — the index set, sorted
	from  []string // the attribute each key attribute is equated to
}

// planSPJ splits Conj(d.JoinCond, d.Where) and orders the probes. Inputs
// are probed greedily: the first unbound input that shares an equality
// with the bound ones, so a key exists whenever the join graph allows it.
// Every cross-input equality is consumed by exactly one step — the one
// binding the later of its two inputs.
func (v *VDP) planSPJ(n *Node, d SPJ) (*spjPlan, error) {
	owner := make(map[string]int)
	for i, in := range d.Inputs {
		s, err := v.inputSchema(n.Name, in)
		if err != nil {
			return nil, err
		}
		for _, a := range s.AttrNames() {
			owner[a] = i
		}
	}
	var equi [][2]string
	var resid []algebra.Expr
	for _, e := range algebra.Conjuncts(algebra.Conj(d.JoinCond, d.Where)) {
		l, r, ok := algebra.AttrEquality(e)
		if ok && owner[l] != owner[r] {
			equi = append(equi, [2]string{l, r})
		} else {
			resid = append(resid, e)
		}
	}
	// keyPairs lists (attribute of j, attribute it is equated to) over the
	// equalities linking unbound input j to the bound inputs.
	keyPairs := func(j int, bound map[int]bool) [][2]string {
		var out [][2]string
		for _, p := range equi {
			switch {
			case owner[p[0]] == j && bound[owner[p[1]]]:
				out = append(out, p)
			case owner[p[1]] == j && bound[owner[p[0]]]:
				out = append(out, [2]string{p[1], p[0]})
			}
		}
		sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
		return out
	}
	plan := &spjPlan{residual: algebra.Conj(resid...), firings: make([][]probeStep, len(d.Inputs))}
	for i := range d.Inputs {
		bound := map[int]bool{i: true}
		for len(bound) < len(d.Inputs) {
			next, pairs := -1, [][2]string(nil)
			for j := range d.Inputs {
				if bound[j] {
					continue
				}
				ps := keyPairs(j, bound)
				if next < 0 || len(ps) > 0 {
					next, pairs = j, ps
				}
				if len(ps) > 0 {
					break
				}
			}
			step := probeStep{input: next}
			for _, p := range pairs {
				step.key = append(step.key, p[0])
				step.from = append(step.from, p[1])
			}
			bound[next] = true
			plan.firings[i] = append(plan.firings[i], step)
		}
	}
	return plan, nil
}

// computePlans fills v.plans and v.indexes. Called once from New.
func (v *VDP) computePlans() error {
	v.plans = make(map[string]*spjPlan)
	v.indexes = make(map[string][][]string)
	declared := make(map[string]bool)
	for _, name := range v.order {
		n := v.nodes[name]
		d, ok := n.Def.(SPJ)
		if !ok {
			continue
		}
		plan, err := v.planSPJ(n, d)
		if err != nil {
			return err
		}
		v.plans[name] = plan
		for _, steps := range plan.firings {
			for _, st := range steps {
				child := d.Inputs[st.input].Rel
				id := child + "\x00" + strings.Join(st.key, ",")
				if len(st.key) > 0 && !declared[id] {
					declared[id] = true
					v.indexes[child] = append(v.indexes[child], st.key)
				}
			}
		}
	}
	return nil
}

// JoinIndexes returns the attribute sets the rules of the node's parents
// probe it on: the join indexes its stored relation should carry. The
// result is shared; callers must not modify it.
func (v *VDP) JoinIndexes(node string) [][]string { return v.indexes[node] }

// JoinRowCounts reports how many sibling rows rule firings have read so
// far: probed counts rows reached through a resident join index, scanned
// counts rows read to build an index on the spot (a temporary, a store
// lacking the join attribute, or a join with no equality to probe on). The counters are cumulative over the plan's lifetime and
// safe to read concurrently with firings.
func (v *VDP) JoinRowCounts() (probed, scanned int64) {
	return v.probedRows.Load(), v.scannedRows.Load()
}
