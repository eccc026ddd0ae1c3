package algebra

import (
	"fmt"

	"squirrel/internal/relation"
)

// Compile turns cond into the predicate the σπ kernel runs
// (relation.ProjectSelectInto, RelDelta.Select, the rule firings), with
// attribute names resolved against schema once. A nil cond holds
// everywhere.
//
// The result agrees with EvalPred row for row, in result and in error:
// an unknown attribute or a type error fails only the rows that reach it,
// AND/OR short-circuit in term order, and comparisons follow
// relation.Value (NULL first, int/float widening, = across kinds false
// while orderings across kinds fail). Bound to a TupleMap, a comparison
// of an attribute with a numeric constant reads an int or float column in
// place; everything else reads values through ValueAt.
func Compile(cond Expr, schema *relation.Schema) relation.Predicate {
	if cond == nil {
		cond = True()
	}
	c := resolve(cond, schema)
	return &compiled{root: c, tuple: c.boolean(nil, "predicate yielded")}
}

// compiled is a resolved condition plus its tuple form, built once.
type compiled struct {
	root  *cexpr
	tuple boolFn
}

// Eval implements relation.Predicate.
func (p *compiled) Eval(t relation.Tuple) (bool, error) { return p.tuple(t, 0) }

// Bind implements relation.Predicate.
func (p *compiled) Bind(m *relation.TupleMap) func(int32) (bool, error) {
	f := p.root.boolean(m, "predicate yielded")
	return func(s int32) (bool, error) { return f(nil, s) }
}

// SelectProject computes π_attrs σ_cond rel as a bag named name (attrs nil
// means every attribute) through the compiled σπ kernel.
func SelectProject(rel *relation.Relation, name string, attrs []string, cond Expr) (*relation.Relation, error) {
	if attrs == nil {
		attrs = rel.Schema().AttrNames()
	}
	schema, err := rel.Schema().Project(name, attrs)
	if err != nil {
		return nil, err
	}
	positions, err := rel.Schema().Positions(attrs)
	if err != nil {
		return nil, err
	}
	out := relation.NewBag(schema)
	if err := relation.ProjectSelectInto(out, rel, positions, Compile(cond, rel.Schema())); err != nil {
		return nil, err
	}
	return out, nil
}

// cexpr is an expression with its attribute names resolved: col is an
// Attr's position (-1 when the schema lacks it), kids the resolved
// operands in evaluation order. An Expr this package does not define
// keeps the schema, to be evaluated by name.
type cexpr struct {
	e      Expr
	col    int
	kids   []*cexpr
	schema *relation.Schema
}

func resolve(e Expr, schema *relation.Schema) *cexpr {
	c := &cexpr{e: e, col: -1}
	var kids []Expr
	switch x := e.(type) {
	case Const:
	case Attr:
		if i, ok := schema.AttrIndex(x.Name); ok {
			c.col = i
		}
	case In:
		if i, ok := schema.AttrIndex(x.Attr); ok {
			c.col = i
		}
	case Arith:
		kids = []Expr{x.L, x.R}
	case Cmp:
		kids = []Expr{x.L, x.R}
	case And:
		kids = x.Terms
	case Or:
		kids = x.Terms
	case Not:
		kids = []Expr{x.Term}
	default:
		c.schema = schema
	}
	for _, k := range kids {
		c.kids = append(c.kids, resolve(k, schema))
	}
	return c
}

// A compiled row reads a tuple t when built without a map, else slot s of
// the map it was bound to.
type (
	valFn  func(t relation.Tuple, s int32) (relation.Value, error)
	boolFn func(t relation.Tuple, s int32) (bool, error)
)

// boolean builds c where a truth value is required; a non-boolean value
// fails the row with ctx's message, as EvalPred, And, Or and Not do.
func (c *cexpr) boolean(m *relation.TupleMap, ctx string) boolFn {
	switch e := c.e.(type) {
	case Cmp:
		if f := c.columnCmp(m, e.Op); f != nil {
			return f
		}
		l, r := c.kids[0].value(m), c.kids[1].value(m)
		return func(t relation.Tuple, s int32) (bool, error) {
			lv, err := l(t, s)
			if err != nil {
				return false, err
			}
			rv, err := r(t, s)
			if err != nil {
				return false, err
			}
			return compare(e.Op, lv, rv)
		}
	case And, Or:
		_, isOr := e.(Or)
		ctx := "AND over"
		if isOr {
			ctx = "OR over"
		}
		terms := make([]boolFn, len(c.kids))
		for i, k := range c.kids {
			terms[i] = k.boolean(m, ctx)
		}
		return func(t relation.Tuple, s int32) (bool, error) {
			for _, f := range terms {
				if ok, err := f(t, s); err != nil || ok == isOr {
					return ok, err
				}
			}
			return !isOr, nil
		}
	case Not:
		f := c.kids[0].boolean(m, "NOT over")
		return func(t relation.Tuple, s int32) (bool, error) {
			ok, err := f(t, s)
			return !ok && err == nil, err
		}
	case In:
		return c.member(m, e)
	}
	v := c.value(m)
	return func(t relation.Tuple, s int32) (bool, error) {
		x, err := v(t, s)
		if err != nil {
			return false, err
		}
		if x.Kind() != relation.KindBool {
			return false, fmt.Errorf("algebra: %s non-boolean %s", ctx, x)
		}
		return x.AsBool(), nil
	}
}

// value builds c where any value is allowed.
func (c *cexpr) value(m *relation.TupleMap) valFn {
	switch e := c.e.(type) {
	case Attr:
		col := c.col
		switch {
		case col < 0:
			err := fmt.Errorf("algebra: unknown attribute %q", e.Name)
			return func(relation.Tuple, int32) (relation.Value, error) { return relation.Null(), err }
		case m != nil:
			return func(_ relation.Tuple, s int32) (relation.Value, error) { return m.ValueAt(s, col), nil }
		}
		return func(t relation.Tuple, _ int32) (relation.Value, error) { return t[col], nil }
	case Const:
		return func(relation.Tuple, int32) (relation.Value, error) { return e.Value, nil }
	case Arith:
		l, r := c.kids[0].value(m), c.kids[1].value(m)
		return func(t relation.Tuple, s int32) (relation.Value, error) {
			lv, err := l(t, s)
			if err != nil {
				return relation.Null(), err
			}
			rv, err := r(t, s)
			if err != nil {
				return relation.Null(), err
			}
			return arith(e.Op, lv, rv)
		}
	case Cmp, And, Or, Not, In:
		f := c.boolean(m, "")
		return func(t relation.Tuple, s int32) (relation.Value, error) {
			ok, err := f(t, s)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(ok), nil
		}
	}
	// An Expr this package does not define: the reference interpreter
	// over the materialized row.
	return func(t relation.Tuple, s int32) (relation.Value, error) {
		if m != nil {
			t = m.AppendTupleAt(nil, s)
		}
		return c.e.Eval(TupleEnv{Schema: c.schema, Tuple: t})
	}
}

// columnCmp builds attr op const (either way round) over an int or float
// column of m as an in-place comparison, or returns nil when c is not of
// that shape. Numeric operands never make Value.Compare fail, so neither
// does this.
func (c *cexpr) columnCmp(m *relation.TupleMap, op CmpOp) boolFn {
	if m == nil {
		return nil
	}
	a, k := c.kids[0], c.kids[1]
	flip := false
	if _, ok := a.e.(Const); ok {
		a, k, flip = k, a, true
	}
	kc, isConst := k.e.(Const)
	if _, isAttr := a.e.(Attr); !isAttr || a.col < 0 || !isConst || !kc.Value.IsNumeric() {
		return nil
	}
	// truth[n+1] says whether op holds when the column value compares n
	// to the constant.
	var truth [3]bool
	for n := -1; n <= 1; n++ {
		if flip {
			truth[n+1] = op.holds(-n)
		} else {
			truth[n+1] = op.holds(n)
		}
	}
	if ints, ok := m.IntColumn(a.col); ok {
		if kc.Value.Kind() == relation.KindInt {
			y := kc.Value.AsInt()
			return func(_ relation.Tuple, s int32) (bool, error) {
				x := ints[s]
				switch {
				case x < y:
					return truth[0], nil
				case x > y:
					return truth[2], nil
				}
				return truth[1], nil
			}
		}
		y := kc.Value.AsFloat()
		return func(_ relation.Tuple, s int32) (bool, error) { return truth[cmpFloat(float64(ints[s]), y)+1], nil }
	}
	if floats, ok := m.FloatColumn(a.col); ok {
		y := kc.Value.AsFloat()
		return func(_ relation.Tuple, s int32) (bool, error) { return truth[cmpFloat(floats[s], y)+1], nil }
	}
	return nil
}

// member builds e over c's column: one valueSet probe per row, reading an
// int or float column of m in place.
func (c *cexpr) member(m *relation.TupleMap, e In) boolFn {
	if len(e.Values) == 0 {
		return func(relation.Tuple, int32) (bool, error) { return false, nil }
	}
	col := c.col
	if col < 0 {
		err := fmt.Errorf("algebra: unknown attribute %q", e.Attr)
		return func(relation.Tuple, int32) (bool, error) { return false, err }
	}
	set := newValueSet(e.Values)
	if m == nil {
		return func(t relation.Tuple, _ int32) (bool, error) { return set.has(t[col]), nil }
	}
	if ints, ok := m.IntColumn(col); ok {
		return func(_ relation.Tuple, s int32) (bool, error) { return set.hasInt(ints[s]), nil }
	}
	if floats, ok := m.FloatColumn(col); ok {
		return func(_ relation.Tuple, s int32) (bool, error) { return set.hasFloat(floats[s]), nil }
	}
	return func(_ relation.Tuple, s int32) (bool, error) { return set.has(m.ValueAt(s, col)), nil }
}

// valueSet answers "does some member Value.Equal v" in O(1). Value.Equal
// is not an equivalence on numbers — an int equals a float when its
// float64 conversion does, ints compare exactly among themselves, and
// NaN equals every number — so numbers are kept three ways: the int
// members (exact, for int rows), the float members (for both kinds of
// row) and every numeric member as a float64 (for float rows).
type valueSet struct {
	null, nan, numeric bool
	bools              [2]bool
	strs               map[string]struct{}
	ints               map[int64]struct{}
	floats, asFloat    map[float64]struct{}
}

func newValueSet(vals []relation.Value) *valueSet {
	s := &valueSet{
		strs: map[string]struct{}{}, ints: map[int64]struct{}{},
		floats: map[float64]struct{}{}, asFloat: map[float64]struct{}{},
	}
	for _, v := range vals {
		switch v.Kind() {
		case relation.KindNull:
			s.null = true
		case relation.KindBool:
			if v.AsBool() {
				s.bools[1] = true
			} else {
				s.bools[0] = true
			}
		case relation.KindString:
			s.strs[v.AsString()] = struct{}{}
		case relation.KindInt:
			s.numeric = true
			s.ints[v.AsInt()] = struct{}{}
			s.asFloat[v.AsFloat()] = struct{}{}
		case relation.KindFloat:
			s.numeric = true
			if f := v.AsFloat(); f != f {
				s.nan = true
			} else {
				s.floats[f] = struct{}{}
				s.asFloat[f] = struct{}{}
			}
		}
	}
	return s
}

func (s *valueSet) has(v relation.Value) bool {
	switch v.Kind() {
	case relation.KindNull:
		return s.null
	case relation.KindBool:
		if v.AsBool() {
			return s.bools[1]
		}
		return s.bools[0]
	case relation.KindString:
		_, ok := s.strs[v.AsString()]
		return ok
	case relation.KindInt:
		return s.hasInt(v.AsInt())
	case relation.KindFloat:
		return s.hasFloat(v.AsFloat())
	}
	return false
}

func (s *valueSet) hasInt(x int64) bool {
	if _, ok := s.ints[x]; ok || s.nan {
		return true
	}
	_, ok := s.floats[float64(x)]
	return ok
}

func (s *valueSet) hasFloat(x float64) bool {
	if x != x || s.nan {
		return s.numeric
	}
	_, ok := s.asFloat[x]
	return ok
}

// cmpFloat is Value.Compare on two floats: unordered (NaN) compares 0.
func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
