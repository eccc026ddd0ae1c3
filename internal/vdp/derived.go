package vdp

import (
	"fmt"
	"sort"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// Requirement describes a temporary relation to be constructed (§6.3): the
// projection π_Attrs σ_Cond of node Rel. Attrs always covers every
// attribute referenced by Cond that belongs to Rel, so the temporary is
// self-contained. Temporaries are supersets of what each requester needs —
// requesters re-apply their own conditions — which is what makes the
// merge step (2b) of the VAP algorithm safe.
type Requirement struct {
	Rel   string
	Attrs map[string]bool
	Cond  algebra.Expr
}

// NewRequirement builds a requirement, closing Attrs over Cond's
// attributes (restricted to the node's schema).
func NewRequirement(v *VDP, rel string, attrs []string, cond algebra.Expr) (Requirement, error) {
	n := v.Node(rel)
	if n == nil {
		return Requirement{}, fmt.Errorf("vdp: requirement for unknown node %q", rel)
	}
	set := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if !n.Schema.HasAttr(a) {
			return Requirement{}, fmt.Errorf("vdp: requirement for %q mentions unknown attribute %q", rel, a)
		}
		set[a] = true
	}
	for a := range algebra.Attrs(cond) {
		if n.Schema.HasAttr(a) {
			set[a] = true
		}
	}
	return Requirement{Rel: rel, Attrs: set, Cond: cond}, nil
}

// AttrList returns the required attributes in the node's schema order.
func (r Requirement) AttrList(v *VDP) []string {
	n := v.Node(r.Rel)
	var out []string
	for _, a := range n.Schema.AttrNames() {
		if r.Attrs[a] {
			out = append(out, a)
		}
	}
	return out
}

// merge widens the requirement to also cover o (union of attribute sets,
// disjunction of conditions) — step (2b) of the VAP algorithm.
func (r *Requirement) merge(o Requirement) {
	for a := range o.Attrs {
		r.Attrs[a] = true
	}
	r.Cond = algebra.Disj(r.Cond, o.Cond)
}

// NeedsVirtual reports whether the requirement touches at least one
// virtual attribute of its node, i.e. whether a temporary must actually be
// constructed rather than served from the store.
func (r Requirement) NeedsVirtual(v *VDP) bool {
	n := v.Node(r.Rel)
	if n == nil || n.IsLeaf() {
		return false
	}
	for a := range r.Attrs {
		if !n.Ann.IsMaterialized(a) {
			return true
		}
	}
	return false
}

// DerivedFrom implements the derived_from function of §6.3: given a
// requirement for π_A σ_f (node), it returns the requirements on the
// node's children from which the temporary can be constructed. Conjuncts
// of f that are expressible over a single child are pushed into that
// child's condition; everything else is handled by re-evaluation at the
// node level, with the needed attributes added to the child requirement.
func (v *VDP) DerivedFrom(req Requirement) ([]Requirement, error) {
	n := v.Node(req.Rel)
	if n == nil {
		return nil, fmt.Errorf("vdp: derived_from on unknown node %q", req.Rel)
	}
	if n.IsLeaf() {
		return nil, fmt.Errorf("vdp: derived_from on leaf %q", req.Rel)
	}
	switch d := n.Def.(type) {
	case SPJ:
		return v.derivedFromSPJ(n, d, req)
	case UnionDef:
		return v.derivedFromBranches(n, d.L, d.R, req, false)
	case DiffDef:
		return v.derivedFromBranches(n, d.L, d.R, req, true)
	}
	return nil, fmt.Errorf("vdp: node %q has unsupported definition type %T", n.Name, n.Def)
}

func (v *VDP) derivedFromSPJ(n *Node, d SPJ, req Requirement) ([]Requirement, error) {
	joinAttrs := algebra.Attrs(d.JoinCond)
	whereAttrs := algebra.Attrs(d.Where)
	byRel := make(map[string]*Requirement)
	var order []string
	for _, in := range d.Inputs {
		child := v.Node(in.Rel)
		inputAttrs := in.Proj
		if len(inputAttrs) == 0 {
			inputAttrs = child.Schema.AttrNames()
		}
		avail := make(map[string]bool, len(inputAttrs))
		for _, a := range inputAttrs {
			avail[a] = true
		}
		// Conjuncts of the request condition local to this child can be
		// pushed down; the rest contribute their attributes so the node-
		// level re-evaluation can apply them.
		pushed, _ := algebra.ConjunctsOver(req.Cond, avail)

		attrs := make([]string, 0, len(inputAttrs))
		want := make(map[string]bool)
		for a := range req.Attrs { // A ∩ attr(S_i)
			if avail[a] {
				want[a] = true
			}
		}
		for a := range joinAttrs { // D_i: join condition attributes
			if avail[a] {
				want[a] = true
			}
		}
		for a := range whereAttrs { // D_i: outer selection attributes
			if avail[a] {
				want[a] = true
			}
		}
		for a := range algebra.Attrs(req.Cond) { // residual condition attrs
			if avail[a] {
				want[a] = true
			}
		}
		for a := range algebra.Attrs(in.Where) { // local selection attrs
			if child.Schema.HasAttr(a) {
				want[a] = true
			}
		}
		for _, a := range child.Schema.AttrNames() {
			if want[a] {
				attrs = append(attrs, a)
			}
		}
		childReq, err := NewRequirement(v, in.Rel, attrs, algebra.Conj(in.Where, pushed))
		if err != nil {
			return nil, err
		}
		if existing, ok := byRel[in.Rel]; ok {
			existing.merge(childReq)
		} else {
			byRel[in.Rel] = &childReq
			order = append(order, in.Rel)
		}
	}
	out := make([]Requirement, 0, len(order))
	for _, rel := range order {
		out = append(out, *byRel[rel])
	}
	return out, nil
}

func (v *VDP) derivedFromBranches(n *Node, l, r Branch, req Requirement, isDiff bool) ([]Requirement, error) {
	var out []Requirement
	nodeAttrs := n.Schema.AttrNames()
	for _, b := range []Branch{l, r} {
		// Positional rename: node attribute i corresponds to branch
		// projection attribute i.
		toBranch := make(map[string]string, len(nodeAttrs))
		for i, na := range nodeAttrs {
			toBranch[na] = b.Proj[i]
		}
		want := make(map[string]bool)
		if isDiff {
			// Difference needs whole branch tuples for membership tests
			// (the ∪C of case (4)).
			for _, p := range b.Proj {
				want[p] = true
			}
		} else {
			for a := range req.Attrs {
				want[toBranch[a]] = true
			}
		}
		for a := range algebra.Attrs(b.Where) {
			want[a] = true
		}
		// Selection on node attributes distributes through union and
		// difference, so the whole condition pushes down (renamed).
		pushedCond := algebra.SubstAttrs(req.Cond, toBranch)
		child := v.Node(b.Rel)
		var attrs []string
		for _, a := range child.Schema.AttrNames() {
			if want[a] {
				attrs = append(attrs, a)
			}
		}
		childReq, err := NewRequirement(v, b.Rel, attrs, algebra.Conj(b.Where, pushedCond))
		if err != nil {
			return nil, err
		}
		out = append(out, childReq)
	}
	return out, nil
}

// PlanTemporaries runs phase one of the VAP algorithm (§6.3): starting
// from the initial requirements (queries or IUP needs), it walks the VDP
// top-down, expanding every requirement that touches virtual data through
// derived_from, merging requirements on the same node, and returns the
// full set of temporaries to construct, keyed by node, in topological
// (children-first) construction order. Requirements served entirely by
// materialized data are returned too (the construction phase reads them
// from the store); leaves are never returned — leaf-parent temporaries are
// constructed by polling the owning source directly.
func (v *VDP) PlanTemporaries(initial []Requirement) ([]Requirement, error) {
	pending := make(map[string]*Requirement)
	for _, req := range initial {
		if req.Attrs == nil {
			return nil, fmt.Errorf("vdp: requirement for %q has nil attribute set", req.Rel)
		}
		r := req
		if existing, ok := pending[req.Rel]; ok {
			existing.merge(r)
		} else {
			cp := Requirement{Rel: r.Rel, Attrs: copySet(r.Attrs), Cond: r.Cond}
			pending[req.Rel] = &cp
		}
	}
	// Process in reverse topological order (parents before children), the
	// paper's topologically sorted Unprocessed list.
	order := v.Order()
	var processed []Requirement
	for i := len(order) - 1; i >= 0; i-- {
		name := order[i]
		req, ok := pending[name]
		if !ok {
			continue
		}
		n := v.Node(name)
		if n.IsLeaf() {
			return nil, fmt.Errorf("vdp: requirement directly on leaf %q (query leaves through their parents)", name)
		}
		processed = append(processed, *req)
		if !req.NeedsVirtual(v) {
			// Entirely materialized: served from the store; no recursion.
			continue
		}
		children, err := v.DerivedFrom(*req)
		if err != nil {
			return nil, err
		}
		for _, cr := range children {
			child := v.Node(cr.Rel)
			if child.IsLeaf() {
				// Constructed by polling; the leaf-parent requirement
				// (already recorded) carries everything needed.
				continue
			}
			if existing, ok := pending[cr.Rel]; ok {
				existing.merge(cr)
			} else {
				cp := Requirement{Rel: cr.Rel, Attrs: copySet(cr.Attrs), Cond: cr.Cond}
				pending[cr.Rel] = &cp
			}
		}
	}
	// Construction happens bottom-up: reverse the processed list into
	// topological order.
	sort.SliceStable(processed, func(i, j int) bool {
		return v.topoIndex(processed[i].Rel) < v.topoIndex(processed[j].Rel)
	})
	return processed, nil
}

func (v *VDP) topoIndex(name string) int { return v.TopoIndex(name) }

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, vv := range s {
		out[k] = vv
	}
	return out
}

// IsLeafParent reports whether the node is a leaf-parent (its single child
// is a leaf).
func (v *VDP) IsLeafParent(name string) bool {
	n := v.Node(name)
	if n == nil || n.IsLeaf() {
		return false
	}
	kids := v.Children(name)
	return len(kids) == 1 && v.Node(kids[0]).IsLeaf()
}

// PollSpec describes the query a temporary for a leaf-parent node sends to
// the owning source database: π_Attrs σ_Cond of leaf relation Leaf at
// source Source. Attrs are leaf attributes; Cond is over leaf attributes.
type PollSpec struct {
	Source string
	Leaf   string
	Attrs  []string
	Cond   algebra.Expr
}

// LeafParentPollSpec computes the source query needed to construct the
// temporary for a leaf-parent requirement. Since leaf-parent definitions
// are π σ over the leaf with no renaming, the requirement's attributes and
// condition translate directly; the def's own selection is conjoined so
// only relevant tuples travel.
func (v *VDP) LeafParentPollSpec(req Requirement) (PollSpec, error) {
	n := v.Node(req.Rel)
	if n == nil || !v.IsLeafParent(req.Rel) {
		return PollSpec{}, fmt.Errorf("vdp: %q is not a leaf-parent node", req.Rel)
	}
	d := n.Def.(SPJ)
	in := d.Inputs[0]
	leaf := v.Node(in.Rel)
	cond := algebra.Conj(in.Where, d.Where, req.Cond)
	want := copySet(req.Attrs)
	for a := range algebra.Attrs(cond) {
		if leaf.Schema.HasAttr(a) {
			want[a] = true
		}
	}
	var attrs []string
	for _, a := range leaf.Schema.AttrNames() {
		if want[a] {
			attrs = append(attrs, a)
		}
	}
	return PollSpec{Source: leaf.Source, Leaf: leaf.Name, Attrs: attrs, Cond: cond}, nil
}

// KernelRequirements performs phase (a) of the general IUP algorithm
// (§6.4): it simulates the kernel run for an update transaction's combined
// leaf delta and returns the requirements on node STATES that the §5.2
// rules will read — sibling operands of updated children, and (for
// difference nodes and self-joins) the updated child's own pre-update
// state. The mediator materializes temporaries for exactly those
// requirements that touch virtual attributes.
//
// Such a requirement is narrowed to the probe keys of the delta when the
// sibling is read only through index probes keyed by a leaf-parent's delta:
// see probeKeys.
func (v *VDP) KernelRequirements(combined *delta.Delta) ([]Requirement, error) {
	dirty := make(map[string]bool)
	for _, l := range combined.Relations() {
		n := v.Node(l)
		if n == nil || !n.IsLeaf() {
			return nil, fmt.Errorf("vdp: %q is not a leaf", l)
		}
		dirty[l] = true
	}
	keys := make(keyValues)
	needs := make(map[string]*Requirement)
	// record adds a read of rel's state; restrict, if set, narrows it to
	// the keys a probe can reach, and runs only once the read is known to
	// need a temporary (so a transaction that polls nothing derives no
	// key sets).
	record := func(rel string, attrs []string, cond algebra.Expr, restrict func() algebra.Expr) error {
		if v.Node(rel).IsLeaf() {
			// Leaf states are never read by rules (leaf-parents are
			// single-input selections/projections).
			return nil
		}
		req, err := NewRequirement(v, rel, attrs, cond)
		if err != nil {
			return err
		}
		if restrict != nil && req.NeedsVirtual(v) {
			if k := restrict(); k != nil {
				req.Cond = algebra.Conj(req.Cond, k)
			}
		}
		if existing, ok := needs[rel]; ok {
			existing.merge(req)
		} else {
			needs[rel] = &req
		}
		return nil
	}

	for _, name := range v.order {
		n := v.Node(name)
		if n.IsLeaf() {
			continue
		}
		// Rules only fire toward nodes from which materialized data is
		// reachable; virtual-only subgraphs are rebuilt on demand by the
		// VAP instead (§6.4's note that update-transaction polls always
		// target hybrid contributors depends on this).
		if !v.MaterializationRelevant(name) {
			continue
		}
		dirtyKids := 0
		for _, c := range v.Children(name) {
			if dirty[c] {
				dirtyKids++
			}
		}
		if dirtyKids == 0 {
			continue
		}
		dirty[name] = true
		switch d := n.Def.(type) {
		case SPJ:
			selfJoin := make(map[string]int)
			for _, in := range d.Inputs {
				selfJoin[in.Rel]++
			}
			for j, in := range d.Inputs {
				attrs := in.Proj
				if len(attrs) == 0 {
					attrs = v.Node(in.Rel).Schema.AttrNames()
				}
				// The rule for a dirty child reads every OTHER occurrence's
				// state; an occurrence's state is therefore needed if some
				// other input is dirty, or its own relation is dirty and
				// self-joined.
				var probers []int
				for i, other := range d.Inputs {
					if other.Rel != in.Rel && dirty[other.Rel] {
						probers = append(probers, i)
					}
				}
				var restrict func() algebra.Expr
				if len(probers) > 0 && len(selfJoin) == len(d.Inputs) {
					restrict = func() algebra.Expr { return v.probeKeys(name, d, j, probers, combined, keys) }
				}
				if len(probers) > 0 || (dirty[in.Rel] && selfJoin[in.Rel] > 1) {
					withWhere := append([]string(nil), attrs...)
					if err := record(in.Rel, withWhere, in.Where, restrict); err != nil {
						return nil, err
					}
				}
			}
		case UnionDef:
			// Pure pass-through: no states read.
		case DiffDef:
			// Each rule reads the updated branch's own pre-update bag (for
			// set-level deltas) and the co-branch's set state; since at
			// least one branch is dirty, both branch states are needed.
			for _, b := range []Branch{d.L, d.R} {
				if err := record(b.Rel, b.Proj, b.Where, nil); err != nil {
					return nil, err
				}
			}
		}
	}
	var out []Requirement
	for _, name := range v.order {
		if req, ok := needs[name]; ok {
			out = append(out, *req)
		}
	}
	return out, nil
}

// probeKeys returns the condition that narrows input j of SPJ node name to
// the rows the rules of this transaction can match, or nil when it cannot
// be narrowed. The rule for a delta entering at input i reaches j through
// the probe step of firings[i] that binds j, and a sibling row can match
// only if its key equals the value the step's `from` attribute takes in
// that delta. So when, for every dirty input i (probers), that step has a
// key whose `from` attributes all belong to input i, and input i is a
// leaf-parent, j is needed only at σ_{key ∈ K}: K the values the `from`
// attribute takes in the leaf's delta, over inserts and deletes. Those
// values are read before the leaf-parent's own σ, a superset of what
// enters the rule, so the narrowed state is still exact where it is read.
// Cross products, keys bound through another input (a later probe step)
// and non-leaf-parent inputs keep the whole state; self-joins and
// difference nodes are never passed here, and probers is never empty.
func (v *VDP) probeKeys(name string, d SPJ, j int, probers []int, combined *delta.Delta, keys keyValues) algebra.Expr {
	plan := v.plans[name]
	alts := make([]algebra.Expr, 0, len(probers))
	for _, i := range probers {
		in := d.Inputs[i]
		if !v.IsLeafParent(in.Rel) {
			return nil
		}
		leaf := v.Children(in.Rel)[0]
		schema, err := v.inputSchema(name, in)
		if err != nil {
			return nil
		}
		var terms []algebra.Expr
		for _, st := range plan.firings[i] {
			if st.input != j {
				continue
			}
			if len(st.key) == 0 {
				return nil
			}
			for k, from := range st.from {
				if !schema.HasAttr(from) {
					return nil
				}
				vals, ok := keys.of(v, combined, leaf, from)
				if !ok {
					return nil
				}
				terms = append(terms, algebra.In{Attr: st.key[k], Values: vals})
			}
		}
		alts = append(alts, algebra.Conj(terms...))
	}
	return algebra.Disj(alts...)
}

// keyValues memoizes, per (leaf, attribute), the distinct values an
// attribute takes in a transaction's leaf delta.
type keyValues map[[2]string][]relation.Value

// of returns the values attr takes in combined's delta for leaf; ok is
// false when leaf has no such attribute or no delta.
func (kv keyValues) of(v *VDP, combined *delta.Delta, leaf, attr string) ([]relation.Value, bool) {
	id := [2]string{leaf, attr}
	if vals, ok := kv[id]; ok {
		return vals, true
	}
	rd := combined.Get(leaf)
	pos, ok := v.Node(leaf).Schema.AttrIndex(attr)
	if rd == nil || !ok {
		return nil, false
	}
	seen := make(map[relation.Value]bool)
	vals := []relation.Value{}
	rd.Each(func(t relation.Tuple, _ int) bool {
		if x := t[pos]; !seen[x] {
			seen[x] = true
			vals = append(vals, x)
		}
		return true
	})
	kv[id] = vals
	return vals, true
}
