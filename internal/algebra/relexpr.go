package algebra

import (
	"fmt"
	"strings"

	"squirrel/internal/relation"
)

// Catalog resolves relation names to instances during evaluation.
type Catalog interface {
	Relation(name string) (*relation.Relation, error)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]*relation.Relation

// Relation implements Catalog.
func (m MapCatalog) Relation(name string) (*relation.Relation, error) {
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return r, nil
}

// RelExpr is a relational-algebra expression tree.
type RelExpr interface {
	// Eval computes the expression over the catalog, producing a bag
	// relation (Distinct converts to a set where required).
	Eval(cat Catalog) (*relation.Relation, error)
	// BaseRelations adds the names of all base (leaf) relations referenced.
	BaseRelations(set map[string]bool)
	// String renders the expression.
	String() string
}

// Scan reads a base relation.
type Scan struct{ Rel string }

// Eval implements RelExpr.
func (s Scan) Eval(cat Catalog) (*relation.Relation, error) {
	r, err := cat.Relation(s.Rel)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// BaseRelations implements RelExpr.
func (s Scan) BaseRelations(set map[string]bool) { set[s.Rel] = true }

func (s Scan) String() string { return s.Rel }

// SelectFrom builds π_attrs σ_cond (rel), the expression `SELECT attrs
// FROM rel WHERE cond` denotes: attrs nil means every attribute, cond nil
// no selection. The answer keeps rel's name.
func SelectFrom(rel string, attrs []string, cond Expr) RelExpr {
	var e RelExpr = Scan{Rel: rel}
	if cond != nil {
		e = Select{Input: e, Pred: cond}
	}
	if attrs != nil {
		e = Project{Input: e, Cols: attrs}
	}
	return e
}

// Select filters its input by a predicate.
type Select struct {
	Input RelExpr
	Pred  Expr
}

// Eval implements RelExpr.
func (s Select) Eval(cat Catalog) (*relation.Relation, error) {
	in, err := s.Input.Eval(cat)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(in.Schema())
	if err := relation.ProjectSelectInto(out, in, nil, Compile(s.Pred, in.Schema())); err != nil {
		return nil, err
	}
	return out, nil
}

// BaseRelations implements RelExpr.
func (s Select) BaseRelations(set map[string]bool) { s.Input.BaseRelations(set) }

func (s Select) String() string {
	return fmt.Sprintf("σ[%s](%s)", exprString(s.Pred), s.Input)
}

// Project projects its input onto the named columns (bag projection:
// multiplicities are preserved and merged).
type Project struct {
	Input RelExpr
	Cols  []string
	// As optionally renames the output relation.
	As string
}

// Eval implements RelExpr.
func (p Project) Eval(cat Catalog) (*relation.Relation, error) {
	in, err := p.Input.Eval(cat)
	if err != nil {
		return nil, err
	}
	name := p.As
	if name == "" {
		name = in.Schema().Name()
	}
	schema, err := in.Schema().Project(name, p.Cols)
	if err != nil {
		return nil, err
	}
	positions, err := in.Schema().Positions(p.Cols)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(schema)
	in.Each(func(t relation.Tuple, n int) bool {
		out.Add(t.Project(positions), n)
		return true
	})
	return out, nil
}

// BaseRelations implements RelExpr.
func (p Project) BaseRelations(set map[string]bool) { p.Input.BaseRelations(set) }

func (p Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.Input)
}

// Join is a theta join of two inputs. Attribute names of the two sides
// must be disjoint; On may be nil (cross product). Equality conjuncts of
// the form leftAttr = rightAttr are executed as hash joins.
type Join struct {
	L, R RelExpr
	On   Expr
	// As optionally names the output relation (default "⋈").
	As string
}

// Eval implements RelExpr.
func (j Join) Eval(cat Catalog) (*relation.Relation, error) {
	l, err := j.L.Eval(cat)
	if err != nil {
		return nil, err
	}
	r, err := j.R.Eval(cat)
	if err != nil {
		return nil, err
	}
	return EvalJoin(l, r, j.On, j.name())
}

func (j Join) name() string {
	if j.As != "" {
		return j.As
	}
	return "join"
}

// BaseRelations implements RelExpr.
func (j Join) BaseRelations(set map[string]bool) {
	j.L.BaseRelations(set)
	j.R.BaseRelations(set)
}

func (j Join) String() string {
	return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, exprString(j.On), j.R)
}

// Union is the bag union (multiplicities add). Inputs must be
// union-compatible (same shape); the output takes the left input's schema.
type Union struct{ L, R RelExpr }

// Eval implements RelExpr.
func (u Union) Eval(cat Catalog) (*relation.Relation, error) {
	l, err := u.L.Eval(cat)
	if err != nil {
		return nil, err
	}
	r, err := u.R.Eval(cat)
	if err != nil {
		return nil, err
	}
	if !l.Schema().SameShape(r.Schema()) {
		return nil, fmt.Errorf("algebra: union of incompatible shapes %s and %s", l.Schema(), r.Schema())
	}
	out := relation.NewBag(l.Schema())
	l.Each(func(t relation.Tuple, n int) bool { out.Add(t, n); return true })
	r.Each(func(t relation.Tuple, n int) bool { out.Add(t, n); return true })
	return out, nil
}

// BaseRelations implements RelExpr.
func (u Union) BaseRelations(set map[string]bool) {
	u.L.BaseRelations(set)
	u.R.BaseRelations(set)
}

func (u Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// Diff is the set difference: distinct tuples of L not occurring in R
// (§5.1 difference nodes are set nodes; operands are read as sets).
type Diff struct{ L, R RelExpr }

// Eval implements RelExpr.
func (d Diff) Eval(cat Catalog) (*relation.Relation, error) {
	l, err := d.L.Eval(cat)
	if err != nil {
		return nil, err
	}
	r, err := d.R.Eval(cat)
	if err != nil {
		return nil, err
	}
	if !l.Schema().SameShape(r.Schema()) {
		return nil, fmt.Errorf("algebra: difference of incompatible shapes %s and %s", l.Schema(), r.Schema())
	}
	out := relation.NewSet(l.Schema())
	l.Each(func(t relation.Tuple, _ int) bool {
		// Shape-compatible but distinct schemas: compare by tuple key.
		if r.Count(t) == 0 {
			out.Insert(t)
		}
		return true
	})
	return out, nil
}

// BaseRelations implements RelExpr.
func (d Diff) BaseRelations(set map[string]bool) {
	d.L.BaseRelations(set)
	d.R.BaseRelations(set)
}

func (d Diff) String() string { return fmt.Sprintf("(%s − %s)", d.L, d.R) }

// DistinctOf converts its input to set semantics.
type DistinctOf struct{ Input RelExpr }

// Eval implements RelExpr.
func (d DistinctOf) Eval(cat Catalog) (*relation.Relation, error) {
	in, err := d.Input.Eval(cat)
	if err != nil {
		return nil, err
	}
	return in.Distinct(), nil
}

// BaseRelations implements RelExpr.
func (d DistinctOf) BaseRelations(set map[string]bool) { d.Input.BaseRelations(set) }

func (d DistinctOf) String() string { return fmt.Sprintf("δ(%s)", d.Input) }

func exprString(e Expr) string {
	if e == nil {
		return "TRUE"
	}
	return e.String()
}

// BaseRelationsOf returns the sorted base relations of e.
func BaseRelationsOf(e RelExpr) []string {
	set := make(map[string]bool)
	e.BaseRelations(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
