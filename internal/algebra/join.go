package algebra

import (
	"fmt"

	"squirrel/internal/relation"
)

// equiPair is an equality conjunct leftAttr = rightAttr extracted from a
// join condition, expressed as attribute positions in the two inputs.
type equiPair struct {
	lpos, rpos int
}

// AttrEquality reports whether e has the simple form attr = attr — the
// only conjuncts a hash join or an index probe can execute — and names
// the two attributes.
func AttrEquality(e Expr) (l, r string, ok bool) {
	c, isCmp := e.(Cmp)
	if !isCmp || c.Op != OpEq {
		return "", "", false
	}
	la, lok := c.L.(Attr)
	ra, rok := c.R.(Attr)
	return la.Name, ra.Name, lok && rok
}

// splitJoinCondition decomposes cond (a conjunction) into hash-joinable
// equality pairs between the two schemas plus a residual predicate to be
// evaluated over the concatenated tuple. Conjuncts that are not of the
// simple attr = attr cross-schema form land in the residual.
func splitJoinCondition(cond Expr, ls, rs *relation.Schema) (pairs []equiPair, residual Expr) {
	var resid []Expr
	for _, e := range Conjuncts(cond) {
		if la, ra, ok := AttrEquality(e); ok {
			if _, inL := ls.AttrIndex(la); !inL {
				la, ra = ra, la
			}
			lp, ok1 := ls.AttrIndex(la)
			rp, ok2 := rs.AttrIndex(ra)
			if ok1 && ok2 {
				pairs = append(pairs, equiPair{lp, rp})
				continue
			}
		}
		resid = append(resid, e)
	}
	return pairs, Conj(resid...)
}

// EvalJoin joins two materialized relations under cond, producing a bag
// over the concatenated schema named outName. Equality conjuncts between
// the sides are executed with a hash join; any residual condition is
// applied to each candidate pair. A nil or true cond yields the cross
// product.
func EvalJoin(l, r *relation.Relation, cond Expr, outName string) (*relation.Relation, error) {
	outSchema, err := l.Schema().Concat(outName, r.Schema())
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(outSchema)
	pairs, residual := splitJoinCondition(cond, l.Schema(), r.Schema())
	pred := Compile(residual, outSchema)

	emit := func(lt relation.Tuple, ln int, rt relation.Tuple, rn int) error {
		joined := lt.Concat(rt)
		ok, err := pred.Eval(joined)
		if err != nil {
			return err
		}
		if ok {
			out.Add(joined, ln*rn)
		}
		return nil
	}

	if len(pairs) == 0 {
		// Nested-loop cross product with residual filter.
		var evalErr error
		l.Each(func(lt relation.Tuple, ln int) bool {
			r.Each(func(rt relation.Tuple, rn int) bool {
				if err := emit(lt, ln, rt, rn); err != nil {
					evalErr = err
					return false
				}
				return true
			})
			return evalErr == nil
		})
		if evalErr != nil {
			return nil, evalErr
		}
		return out, nil
	}

	// Hash join through a join index on the pair attributes: a side that
	// already carries a resident index there is the build side for free
	// (§5.3's "whether indices can be used"); otherwise the smaller side
	// gets a transient index. Either way the other side probes it.
	lpos, rpos := make([]int, len(pairs)), make([]int, len(pairs))
	for i, p := range pairs {
		lpos[i], rpos[i] = p.lpos, p.rpos
	}
	ix, buildIsLeft := r.IndexOn(rpos), false
	if ix == nil {
		ix = l.IndexOn(lpos)
		buildIsLeft = ix != nil || l.Len() < r.Len()
	}
	probe, probePos := l, lpos
	if buildIsLeft {
		probe, probePos = r, rpos
	}
	switch {
	case ix != nil:
	case buildIsLeft:
		ix = relation.NewJoinIndex(l, lpos)
	default:
		ix = relation.NewJoinIndex(r, rpos)
	}
	key := make([]relation.Value, len(pairs))
	var bt relation.Tuple
	var evalErr error
	probe.Each(func(pt relation.Tuple, pn int) bool {
		for i, p := range probePos {
			key[i] = pt[p]
		}
		for s := ix.First(key); s >= 0; s = ix.Next(s, key) {
			bt = ix.Map().AppendTupleAt(bt[:0], s)
			bn := int(ix.Map().CountAt(s))
			if buildIsLeft {
				evalErr = emit(bt, bn, pt, pn)
			} else {
				evalErr = emit(pt, pn, bt, bn)
			}
			if evalErr != nil {
				return false
			}
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// JoinChain evaluates an n-way theta join of the given relations under a
// single condition evaluated over the full concatenated schema, folding
// left. Used by the VDP SPJ evaluator.
func JoinChain(rels []*relation.Relation, cond Expr, outName string) (*relation.Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("algebra: empty join chain")
	}
	if len(rels) == 1 {
		// Apply the condition as a selection.
		out := relation.NewBag(rels[0].Schema().Rename(outName))
		if err := relation.ProjectSelectInto(out, rels[0], nil, Compile(cond, rels[0].Schema())); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Fold left. Push down only the conjuncts that are fully evaluable at
	// each intermediate stage; remaining conjuncts apply at the end.
	acc := rels[0]
	for i := 1; i < len(rels); i++ {
		name := outName
		var stageCond Expr
		if i == len(rels)-1 {
			stageCond = cond
		} else {
			stageCond, cond = splitEvaluable(cond, func(attrs map[string]bool) bool {
				// Evaluable if every attribute is in acc or rels[i].
				for a := range attrs {
					if !acc.Schema().HasAttr(a) && !rels[i].Schema().HasAttr(a) {
						return false
					}
				}
				return true
			})
			name = fmt.Sprintf("%s#%d", outName, i)
		}
		next, err := EvalJoin(acc, rels[i], stageCond, name)
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return acc, nil
}

// splitEvaluable partitions a conjunction into the conjuncts for which
// canEval reports true (returned first) and the remainder.
func splitEvaluable(cond Expr, canEval func(attrs map[string]bool) bool) (now, later Expr) {
	var nowTerms, laterTerms []Expr
	for _, e := range Conjuncts(cond) {
		if canEval(Attrs(e)) {
			nowTerms = append(nowTerms, e)
		} else {
			laterTerms = append(laterTerms, e)
		}
	}
	return Conj(nowTerms...), Conj(laterTerms...)
}
