package vdp

import (
	"fmt"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

// Resolver supplies the current state of a child relation during def
// evaluation or update propagation. During the IUP kernel run it resolves
// fully-materialized nodes to their stores and virtual/hybrid nodes to the
// temporary relations populated by the VAP; during from-scratch evaluation
// (tests, the consistency oracle) it resolves to replayed source states.
type Resolver func(name string) (*relation.Relation, error)

// ResolverFromCatalog adapts a map to a Resolver.
func ResolverFromCatalog(cat map[string]*relation.Relation) Resolver {
	return func(name string) (*relation.Relation, error) {
		r, ok := cat[name]
		if !ok {
			return nil, fmt.Errorf("vdp: resolver has no relation %q", name)
		}
		return r, nil
	}
}

// evalInput computes π_Proj σ_Where (child) as a bag. If the resolved
// child relation is narrower than the full child schema (a temporary), the
// projection is restricted to the attributes actually present; the caller
// guarantees (via the Requirements machinery) that everything needed
// downstream is present.
func evalInput(in SPJInput, resolve Resolver) (*relation.Relation, error) {
	child, err := resolve(in.Rel)
	if err != nil {
		return nil, err
	}
	proj := in.Proj
	if len(proj) == 0 {
		proj = child.Schema().AttrNames()
	} else {
		// Restrict to available attributes (temporaries may be narrow).
		var avail []string
		for _, p := range proj {
			if child.Schema().HasAttr(p) {
				avail = append(avail, p)
			}
		}
		proj = avail
	}
	return projectSelect(child, in.Rel, proj, in.Where)
}

// projectSelect computes π_proj σ_where rel as a bag named name.
// Selection conjuncts whose attributes are unavailable on rel are skipped;
// callers re-apply full conditions at the top level where all attributes
// are in scope.
func projectSelect(rel *relation.Relation, name string, proj []string, where algebra.Expr) (*relation.Relation, error) {
	avail := make(map[string]bool, rel.Schema().Arity())
	for _, a := range rel.Schema().AttrNames() {
		avail[a] = true
	}
	applicable, _ := algebra.ConjunctsOver(where, avail)
	return algebra.SelectProject(rel, name, proj, applicable)
}

// conform re-labels rel's tuples into the target schema positionally,
// preserving multiplicities, with the target semantics.
func conform(rel *relation.Relation, target *relation.Schema, sem relation.Semantics) (*relation.Relation, error) {
	if rel.Schema().Arity() != target.Arity() {
		return nil, fmt.Errorf("vdp: cannot conform %s to %s: arity mismatch", rel.Schema(), target)
	}
	out := relation.New(target, sem)
	relation.CopyInto(out, rel)
	return out, nil
}

// EvalDef computes the full contents of non-leaf node n from its
// children's states, honoring the node's set/bag semantics. This is the
// ground truth used for initialization and by the incremental-equals-
// recompute invariant tests.
func EvalDef(n *Node, resolve Resolver) (*relation.Relation, error) {
	if n.IsLeaf() {
		return nil, fmt.Errorf("vdp: EvalDef on leaf %q", n.Name)
	}
	switch d := n.Def.(type) {
	case SPJ:
		return evalSPJ(n, d, resolve, nil, nil)
	case UnionDef:
		l, err := evalBranchBag(d.L, resolve)
		if err != nil {
			return nil, err
		}
		r, err := evalBranchBag(d.R, resolve)
		if err != nil {
			return nil, err
		}
		out := relation.NewBag(n.Schema)
		relation.CopyInto(out, l)
		relation.CopyInto(out, r)
		return out, nil
	case DiffDef:
		l, err := evalBranchSet(d.L, resolve)
		if err != nil {
			return nil, err
		}
		r, err := evalBranchSet(d.R, resolve)
		if err != nil {
			return nil, err
		}
		out := relation.NewSet(n.Schema)
		l.Each(func(t relation.Tuple, _ int) bool {
			if r.Count(t) == 0 {
				out.Insert(t)
			}
			return true
		})
		return out, nil
	}
	return nil, fmt.Errorf("vdp: node %q has unsupported definition type %T", n.Name, n.Def)
}

// evalSPJ computes the SPJ definition. If restrictAttrs is non-nil the
// output is projected onto restrictAttrs (which must be a subset of the
// node's attributes) and extraCond is applied before projecting; this is
// the restricted evaluation used for temporary relations (§6.3).
func evalSPJ(n *Node, d SPJ, resolve Resolver, restrictAttrs []string, extraCond algebra.Expr) (*relation.Relation, error) {
	rels := make([]*relation.Relation, len(d.Inputs))
	for i, in := range d.Inputs {
		r, err := evalInput(in, resolve)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	joined, err := algebra.JoinChain(rels, algebra.Conj(d.JoinCond, d.Where, extraCond), n.Name+"·joined")
	if err != nil {
		return nil, err
	}
	proj := d.Proj
	outSchema := n.Schema
	if restrictAttrs != nil {
		proj = restrictAttrs
		outSchema, err = n.Schema.Project(n.Name, restrictAttrs)
		if err != nil {
			return nil, err
		}
	}
	positions, err := joined.Schema().Positions(proj)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(outSchema)
	if err := relation.ProjectSelectInto(out, joined, positions, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// evalBranchBag computes π_Proj σ_Where (child) with bag semantics, in
// branch-projection attribute order.
func evalBranchBag(b Branch, resolve Resolver) (*relation.Relation, error) {
	child, err := resolve(b.Rel)
	if err != nil {
		return nil, err
	}
	return projectSelect(child, b.Rel+"·branch", b.Proj, b.Where)
}

// evalBranchSet computes the branch as a set (difference operands are read
// with set semantics, §5.1).
func evalBranchSet(b Branch, resolve Resolver) (*relation.Relation, error) {
	bag, err := evalBranchBag(b, resolve)
	if err != nil {
		return nil, err
	}
	return bag.Distinct(), nil
}

// EvalRestricted computes π_attrs σ_cond (n) from the node's children —
// the construction of temporary relations performed bottom-up by the VAP
// (§6.3 phase two). attrs must be a subset of the node's attributes; cond
// is evaluated over the node's full attribute set (children supply every
// attribute cond mentions, via the Requirements computation). The result
// schema is the node schema projected to attrs.
func EvalRestricted(n *Node, attrs []string, cond algebra.Expr, resolve Resolver) (*relation.Relation, error) {
	if n.IsLeaf() {
		return nil, fmt.Errorf("vdp: EvalRestricted on leaf %q", n.Name)
	}
	switch d := n.Def.(type) {
	case SPJ:
		return evalSPJ(n, d, resolve, attrs, cond)
	case UnionDef, DiffDef:
		full, err := EvalDef(n, resolve)
		if err != nil {
			return nil, err
		}
		restricted, err := projectSelect(full, n.Name, attrs, cond)
		if err != nil {
			return nil, err
		}
		if n.IsSetNode() {
			return restricted.Distinct(), nil
		}
		return restricted, nil
	}
	return nil, fmt.Errorf("vdp: node %q has unsupported definition type %T", n.Name, n.Def)
}

// EvalAll computes every non-leaf relation bottom-up from the leaf states
// supplied by resolve, returning a catalog of all node states. This is the
// from-scratch oracle: state(V) = ν(state(DB)).
func (v *VDP) EvalAll(resolve Resolver) (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(v.order))
	inner := func(name string) (*relation.Relation, error) {
		if r, ok := out[name]; ok {
			return r, nil
		}
		return resolve(name)
	}
	for _, name := range v.order {
		n := v.nodes[name]
		if n.IsLeaf() {
			r, err := resolve(name)
			if err != nil {
				return nil, err
			}
			out[name] = r
			continue
		}
		r, err := EvalDef(n, inner)
		if err != nil {
			return nil, fmt.Errorf("vdp: evaluating %s: %w", name, err)
		}
		out[name] = r
	}
	return out, nil
}
