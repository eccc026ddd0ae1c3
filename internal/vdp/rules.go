package vdp

import (
	"fmt"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// This file implements the update-propagation rules of §5.2. Each edge
// (parent, child) of the VDP carries a rule computing Δparent from Δchild.
// The rules read sibling states through a Resolver; the IUP's "process
// node" discipline (§6.4) guarantees that already-processed siblings
// resolve to their new states and unprocessed siblings to their old
// states, which is exactly what makes the combined contributions exact
// (avoiding the missed ΔR'⋈ΔS' of Example 6.1).
//
// For self-joins (the same child appearing in several SPJ input
// occurrences, footnote 2 of the paper), the occurrences are differenced
// sequentially inside Propagate: occurrence i is evaluated with occurrences
// j<i at the child's new state and j>i at its old state.

// Propagate computes the contribution to Δn caused by dc, an incremental
// update to child relation `child` of node n, following the rule attached
// to the edge (n, child). dc must be expressed over the child's full
// schema. The returned delta is over n's full schema.
func (v *VDP) Propagate(node, child string, dc *delta.RelDelta, resolve Resolver) (*delta.RelDelta, error) {
	return v.propagate(node, child, dc, resolve, false)
}

func (v *VDP) propagate(node, child string, dc *delta.RelDelta, resolve Resolver, naive bool) (*delta.RelDelta, error) {
	n := v.Node(node)
	if n == nil {
		return nil, fmt.Errorf("vdp: unknown node %q", node)
	}
	if n.IsLeaf() {
		return nil, fmt.Errorf("vdp: Propagate on leaf %q", n.Name)
	}
	childNode := v.Node(child)
	if childNode == nil {
		return nil, fmt.Errorf("vdp: unknown child %q", child)
	}
	if dc.IsEmpty() {
		return delta.NewRel(n.Name), nil
	}
	switch d := n.Def.(type) {
	case SPJ:
		return v.propagateSPJ(n, d, child, childNode.Schema, dc, resolve, naive)
	case UnionDef:
		return propagateUnion(n, d, child, childNode.Schema, dc)
	case DiffDef:
		return propagateDiff(n, d, child, childNode.Schema, dc, resolve)
	}
	return nil, fmt.Errorf("vdp: node %q has unsupported definition type %T", n.Name, n.Def)
}

// projectDeltaTo narrows a full-width delta to the attribute subset of a
// narrower state relation (a temporary), so it can be applied to it.
func projectDeltaTo(dc *delta.RelDelta, full *relation.Schema, narrow *relation.Schema) (*delta.RelDelta, error) {
	if full.Arity() == narrow.Arity() {
		return dc, nil
	}
	positions, err := full.Positions(narrow.AttrNames())
	if err != nil {
		return nil, err
	}
	return dc.Project(dc.Rel(), positions), nil
}

// propagateSPJ fires the SPJ rule of edge (n, child): one delta-driven
// join driver for every operand kind. Each delta row that passes its own
// input's σ is walked through the remaining inputs in the plan's probe
// order (spjplan.go); every step looks the bound key up in a join index
// over the sibling's state and applies the sibling's σ/π and, at the end,
// the residual condition to the matched rows only — the sibling is never
// copied or scanned. A sibling whose state carries no resident index on
// the key (a VAP temporary, a hybrid store lacking the join attribute)
// gets one built on the spot for this firing, so the only difference
// between the two is whether the index already exists.
func (v *VDP) propagateSPJ(n *Node, d SPJ, child string, childSchema *relation.Schema, dc *delta.RelDelta, resolve Resolver, naive bool) (*delta.RelDelta, error) {
	out := delta.NewRel(n.Name)
	// The child's own state is needed only for self-joins (leaf children,
	// in particular, have no resolvable state), so resolve lazily.
	var childOld, childNew *relation.Relation
	oldState := func() (*relation.Relation, error) {
		if childOld == nil {
			var err error
			if childOld, err = resolve(child); err != nil {
				return nil, err
			}
		}
		return childOld, nil
	}
	// New state of the updated child, materialized lazily. The resolved
	// state may be a narrow temporary, so the delta is projected onto it
	// first. The clone keeps the old state's join indexes.
	newState := func() (*relation.Relation, error) {
		if childNew == nil {
			old, err := oldState()
			if err != nil {
				return nil, err
			}
			childNew = old.Clone()
			narrowed, err := projectDeltaTo(dc, childSchema, childNew.Schema())
			if err != nil {
				return nil, err
			}
			narrowed.ApplyTo(childNew, false)
		}
		return childNew, nil
	}

	occurrences := 0
	for i, in := range d.Inputs {
		if in.Rel != child {
			continue
		}
		occurrences++
		f := spjFiring{plan: v.plans[n.Name], out: out}
		err := f.bind(n, d, i, childSchema, func(j int) (*relation.Relation, error) {
			switch other := d.Inputs[j]; {
			case other.Rel != child:
				return resolve(other.Rel)
			case naive || j > i:
				// Naive: all other occurrences at the resolver's state.
				return oldState()
			default:
				return newState()
			}
		})
		if err != nil {
			return nil, err
		}
		enter := &f.operands[i]
		where := algebra.Compile(in.Where, childSchema)
		dc.Each(func(t relation.Tuple, c int) bool {
			var ok bool
			if ok, err = where.Eval(t); err != nil || !ok {
				return err == nil
			}
			for k, p := range enter.positions {
				f.row[enter.off+k] = t[p]
			}
			err = f.walk(0, c)
			return err == nil
		})
		v.probedRows.Add(f.probed)
		v.scannedRows.Add(f.scanned)
		if err != nil {
			return nil, err
		}
	}
	if occurrences == 0 {
		return nil, fmt.Errorf("vdp: node %q has no input over child %q", n.Name, child)
	}
	return out, nil
}

// spjFiring is one rule firing bound to the states it reads: the plan's
// attribute names resolved to positions in the operand states the
// resolver actually supplied (which may be narrow temporaries).
type spjFiring struct {
	plan     *spjPlan
	operands []spjOperand
	steps    []int              // operand index per probe step
	concat   *relation.Schema   // the joined row's schema, inputs in definition order
	residual relation.Predicate // the plan's residual condition over concat
	row      relation.Tuple     // the joined row under construction
	proj     []int              // row positions of the node's attributes
	outRow   relation.Tuple
	out      *delta.RelDelta

	probed, scanned int64
}

// spjOperand is one input of a firing. The entering input uses only
// positions and off; probed inputs also carry the index and their σ.
type spjOperand struct {
	ix        *relation.JoinIndex
	resident  bool
	schema    *relation.Schema               // of the state behind ix
	where     algebra.Expr                   // the input's σ conjuncts evaluable on that state
	test      func(slot int32) (bool, error) // where, bound to ix's map
	positions []int                          // π: state positions copied into the row
	off       int                            // where they land in the row
	keyFrom   []int                          // row positions forming the probe key
	key       relation.Tuple                 // scratch
}

// bind resolves the firing for a delta entering at input enter. state
// supplies the relation each other input reads. When a state is narrower
// than the input's projection (a temporary), the projection is restricted
// to the attributes present and σ conjuncts over absent attributes are
// skipped — the Requirements machinery guarantees everything the join
// needs is there and that the skipped conjuncts were applied when the
// temporary was built.
func (f *spjFiring) bind(n *Node, d SPJ, enter int, childSchema *relation.Schema, state func(j int) (*relation.Relation, error)) error {
	f.operands = make([]spjOperand, len(d.Inputs))
	rels := make([]*relation.Relation, len(d.Inputs))
	var attrs []relation.Attribute
	for j, in := range d.Inputs {
		op := &f.operands[j]
		op.schema = childSchema
		if j != enter {
			rel, err := state(j)
			if err != nil {
				return err
			}
			rels[j], op.schema = rel, rel.Schema()
		}
		all := op.schema.Attrs()
		avail := make(map[string]bool, len(all))
		for _, a := range all {
			avail[a.Name] = true
		}
		op.where, _ = algebra.ConjunctsOver(in.Where, avail)
		op.off = len(attrs)
		if len(in.Proj) == 0 {
			for p := range all {
				op.positions = append(op.positions, p)
			}
			attrs = append(attrs, all...)
			continue
		}
		for _, a := range in.Proj {
			if p, ok := op.schema.AttrIndex(a); ok {
				op.positions = append(op.positions, p)
				attrs = append(attrs, all[p])
			}
		}
	}
	var err error
	if f.concat, err = relation.NewSchema(n.Name+"·joined", attrs); err != nil {
		return err
	}
	if f.proj, err = f.concat.Positions(d.Proj); err != nil {
		return err
	}
	f.residual = algebra.Compile(f.plan.residual, f.concat)
	f.row = make(relation.Tuple, len(attrs))
	f.outRow = make(relation.Tuple, len(f.proj))
	for _, st := range f.plan.firings[enter] {
		op := &f.operands[st.input]
		cols, err := op.schema.Positions(st.key)
		if err != nil {
			return err
		}
		if op.keyFrom, err = f.concat.Positions(st.from); err != nil {
			return err
		}
		rel := rels[st.input]
		if op.ix = rel.IndexOn(cols); op.ix != nil {
			op.resident = true
		} else {
			op.ix = relation.NewJoinIndex(rel, cols)
			f.scanned += int64(rel.Len())
		}
		op.test = algebra.Compile(op.where, op.schema).Bind(op.ix.Map())
		op.key = make(relation.Tuple, len(cols))
		f.steps = append(f.steps, st.input)
	}
	return nil
}

// walk extends the joined row through probe step k onward; count is the
// product of the multiplicities bound so far (signed by the delta atom).
// Past the last step the residual condition decides, and the row projects
// straight into the output delta.
func (f *spjFiring) walk(k, count int) error {
	if k == len(f.steps) {
		ok, err := f.residual.Eval(f.row)
		if err != nil || !ok {
			return err
		}
		for i, p := range f.proj {
			f.outRow[i] = f.row[p]
		}
		f.out.Add(f.outRow, count)
		return nil
	}
	op := &f.operands[f.steps[k]]
	for i, p := range op.keyFrom {
		op.key[i] = f.row[p]
	}
	tm := op.ix.Map()
	for s := op.ix.First(op.key); s >= 0; s = op.ix.Next(s, op.key) {
		if op.resident {
			f.probed++
		}
		if ok, err := op.test(s); err != nil {
			return err
		} else if !ok {
			continue
		}
		for i, p := range op.positions {
			f.row[op.off+i] = tm.ValueAt(s, p)
		}
		if err := f.walk(k+1, count*int(tm.CountAt(s))); err != nil {
			return err
		}
	}
	return nil
}

// propagateUnion: incremental updates pass through each matching branch's
// select/project, relabeled positionally into the node schema (bag
// semantics: counts add).
func propagateUnion(n *Node, d UnionDef, child string, childSchema *relation.Schema, dc *delta.RelDelta) (*delta.RelDelta, error) {
	out := delta.NewRel(n.Name)
	matched := false
	for _, b := range []Branch{d.L, d.R} {
		if b.Rel != child {
			continue
		}
		matched = true
		bd, err := branchDeltaBag(n, b, childSchema, dc)
		if err != nil {
			return nil, err
		}
		bd.Each(func(t relation.Tuple, c int) bool {
			out.Add(t, c)
			return true
		})
	}
	if !matched {
		return nil, fmt.Errorf("vdp: node %q has no branch over child %q", n.Name, child)
	}
	return out, nil
}

// branchDeltaBag pushes dc through branch b yielding a signed RelDelta
// over the node schema's shape.
func branchDeltaBag(n *Node, b Branch, childSchema *relation.Schema, dc *delta.RelDelta) (*delta.RelDelta, error) {
	positions, err := childSchema.Positions(b.Proj)
	if err != nil {
		return nil, err
	}
	selected, err := dc.Select(algebra.Compile(b.Where, childSchema))
	if err != nil {
		return nil, err
	}
	return selected.Project(n.Name, positions), nil
}

// propagateDiff implements the difference rules of §5.2 with set
// semantics. T = L − R where L, R are the branch sets.
//
//	on ΔL: (ΔT)+ = (ΔL)+ − R      (ΔT)− = (ΔL)− − R
//	on ΔR: (ΔT)+ = (ΔR)− ∩ L      (ΔT)− = (ΔR)+ ∩ L
//
// (The paper prints rule diff1's deletion clause as (ΔR1)− ∩ R2; a tuple
// deleted from R1 leaves T only if it is NOT in R2 — we implement the
// corrected difference. The randomized incremental-equals-recompute tests
// would reject the printed form.)
//
// Branch deltas are converted to set level ("distinct" deltas) against the
// branch's pre-update bag, since children are bag nodes in general.
func propagateDiff(n *Node, d DiffDef, child string, childSchema *relation.Schema, dc *delta.RelDelta, resolve Resolver) (*delta.RelDelta, error) {
	out := delta.NewRel(n.Name)
	childState, err := resolve(child)
	if err != nil {
		return nil, err
	}
	// The resolved child state may be a narrow temporary; the delta is
	// narrowed correspondingly where it must be applied or compared.
	narrowDC, err := projectDeltaTo(dc, childSchema, childState.Schema())
	if err != nil {
		return nil, err
	}
	matched := false

	// Left-branch rule.
	if d.L.Rel == child {
		matched = true
		bagDelta, err := branchDeltaBag(n, d.L, childState.Schema(), narrowDC)
		if err != nil {
			return nil, err
		}
		oldBag, err := evalBranchBagOver(n, d.L, childState)
		if err != nil {
			return nil, err
		}
		setDelta := bagDelta.Distinct(oldBag)
		// Right branch at its current (resolver) state; if the right
		// branch reads the same child, that child is still pre-update
		// here (the left rule fires first).
		rSet, err := evalBranchSet(d.R, resolve)
		if err != nil {
			return nil, err
		}
		setDelta.Each(func(t relation.Tuple, c int) bool {
			if rSet.Count(t) == 0 {
				out.Add(t, sign(c))
			}
			return true
		})
	}

	// Right-branch rule.
	if d.R.Rel == child {
		matched = true
		bagDelta, err := branchDeltaBag(n, d.R, childState.Schema(), narrowDC)
		if err != nil {
			return nil, err
		}
		oldBag, err := evalBranchBagOver(n, d.R, childState)
		if err != nil {
			return nil, err
		}
		setDelta := bagDelta.Distinct(oldBag)
		// Left branch state: if the left branch reads the same child, the
		// left rule above already accounted for the transition, so the
		// left state here must be the NEW one; otherwise the resolver's
		// current state is correct either way.
		var lSet *relation.Relation
		if d.L.Rel == child {
			newChild := childState.Clone()
			narrowDC.ApplyTo(newChild, false)
			lSet, err = evalBranchSetOver(n, d.L, newChild)
		} else {
			lSet, err = evalBranchSet(d.L, resolve)
		}
		if err != nil {
			return nil, err
		}
		setDelta.Each(func(t relation.Tuple, c int) bool {
			if lSet.Count(t) > 0 {
				out.Add(t, -sign(c))
			}
			return true
		})
	}
	if !matched {
		return nil, fmt.Errorf("vdp: node %q has no branch over child %q", n.Name, child)
	}
	return out, nil
}

func sign(c int) int {
	if c < 0 {
		return -1
	}
	return 1
}

// evalBranchBagOver evaluates a branch over an explicit child state.
func evalBranchBagOver(n *Node, b Branch, childState *relation.Relation) (*relation.Relation, error) {
	bag, err := projectSelect(childState, b.Rel+"·branch", b.Proj, b.Where)
	if err != nil {
		return nil, err
	}
	return conform(bag, n.Schema, relation.Bag)
}

func evalBranchSetOver(n *Node, b Branch, childState *relation.Relation) (*relation.Relation, error) {
	bag, err := evalBranchBagOver(n, b, childState)
	if err != nil {
		return nil, err
	}
	return bag.Distinct(), nil
}
