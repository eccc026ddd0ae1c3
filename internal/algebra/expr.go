// Package algebra implements the attribute-based relational algebra the
// paper uses as its view-definition language (§5): scalar expressions and
// selection predicates over named attributes, and relational expressions
// (select, project, join, union, difference) with a hash-join evaluator.
//
// Predicates support arithmetic, so join conditions like the paper's
// Example 5.1 (a1² + a2 < b2²) are expressible directly.
package algebra

import (
	"fmt"
	"strings"

	"squirrel/internal/relation"
)

// Env resolves attribute names to values during expression evaluation.
type Env interface {
	Lookup(name string) (relation.Value, bool)
}

// TupleEnv binds a tuple to a schema for attribute lookup.
type TupleEnv struct {
	Schema *relation.Schema
	Tuple  relation.Tuple
}

// Lookup implements Env.
func (e TupleEnv) Lookup(name string) (relation.Value, bool) {
	i, ok := e.Schema.AttrIndex(name)
	if !ok {
		return relation.Null(), false
	}
	return e.Tuple[i], true
}

// Expr is a scalar expression over attributes.
type Expr interface {
	// Eval evaluates the expression in the given environment.
	Eval(env Env) (relation.Value, error)
	// CollectAttrs adds every attribute name referenced to the set.
	CollectAttrs(set map[string]bool)
	// String renders the expression in the surface syntax.
	String() string
}

// Attr references a named attribute.
type Attr struct{ Name string }

// Eval implements Expr.
func (a Attr) Eval(env Env) (relation.Value, error) {
	v, ok := env.Lookup(a.Name)
	if !ok {
		return relation.Null(), fmt.Errorf("algebra: unknown attribute %q", a.Name)
	}
	return v, nil
}

// CollectAttrs implements Expr.
func (a Attr) CollectAttrs(set map[string]bool) { set[a.Name] = true }

func (a Attr) String() string { return a.Name }

// Const is a literal value.
type Const struct{ Value relation.Value }

// Eval implements Expr.
func (c Const) Eval(Env) (relation.Value, error) { return c.Value, nil }

// CollectAttrs implements Expr.
func (c Const) CollectAttrs(map[string]bool) {}

func (c Const) String() string { return c.Value.String() }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Arith applies an arithmetic operator to two numeric subexpressions.
// If both operands are ints the result is an int (integer division for /);
// otherwise the result is a float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(env Env) (relation.Value, error) {
	l, err := a.L.Eval(env)
	if err != nil {
		return relation.Null(), err
	}
	r, err := a.R.Eval(env)
	if err != nil {
		return relation.Null(), err
	}
	return arith(a.Op, l, r)
}

// arith applies op to two evaluated operands.
func arith(op ArithOp, l, r relation.Value) (relation.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return relation.Null(), fmt.Errorf("algebra: arithmetic on non-numeric values %s %s %s", l, op, r)
	}
	if l.Kind() == relation.KindInt && r.Kind() == relation.KindInt {
		x, y := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return relation.Int(x + y), nil
		case OpSub:
			return relation.Int(x - y), nil
		case OpMul:
			return relation.Int(x * y), nil
		case OpDiv:
			if y == 0 {
				return relation.Null(), fmt.Errorf("algebra: integer division by zero")
			}
			return relation.Int(x / y), nil
		}
	}
	x, y := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return relation.Float(x + y), nil
	case OpSub:
		return relation.Float(x - y), nil
	case OpMul:
		return relation.Float(x * y), nil
	case OpDiv:
		if y == 0 {
			return relation.Null(), fmt.Errorf("algebra: division by zero")
		}
		return relation.Float(x / y), nil
	}
	return relation.Null(), fmt.Errorf("algebra: bad arithmetic op %v", op)
}

// CollectAttrs implements Expr.
func (a Arith) CollectAttrs(set map[string]bool) {
	a.L.CollectAttrs(set)
	a.R.CollectAttrs(set)
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Cmp compares two subexpressions, yielding a boolean.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(env Env) (relation.Value, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return relation.Null(), err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return relation.Null(), err
	}
	ok, err := compare(c.Op, l, r)
	if err != nil {
		return relation.Null(), err
	}
	return relation.Bool(ok), nil
}

// compare applies op to two evaluated operands. = and <> never fail
// (values of incomparable kinds are unequal); the orderings do.
func compare(op CmpOp, l, r relation.Value) (bool, error) {
	if op == OpEq || op == OpNe {
		return l.Equal(r) == (op == OpEq), nil
	}
	n, err := l.Compare(r)
	if err != nil {
		return false, err
	}
	return op.holds(n), nil
}

// holds reports whether op accepts a three-way comparison result n.
func (op CmpOp) holds(n int) bool {
	switch op {
	case OpEq:
		return n == 0
	case OpNe:
		return n != 0
	case OpLt:
		return n < 0
	case OpLe:
		return n <= 0
	case OpGt:
		return n > 0
	case OpGe:
		return n >= 0
	}
	return false
}

// CollectAttrs implements Expr.
func (c Cmp) CollectAttrs(set map[string]bool) {
	c.L.CollectAttrs(set)
	c.R.CollectAttrs(set)
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// And is a conjunction of boolean subexpressions; the empty conjunction is
// true (used for unconditional selections).
type And struct{ Terms []Expr }

// Eval implements Expr (short-circuiting).
func (a And) Eval(env Env) (relation.Value, error) {
	for _, t := range a.Terms {
		v, err := t.Eval(env)
		if err != nil {
			return relation.Null(), err
		}
		if v.Kind() != relation.KindBool {
			return relation.Null(), fmt.Errorf("algebra: AND over non-boolean %s", v)
		}
		if !v.AsBool() {
			return relation.Bool(false), nil
		}
	}
	return relation.Bool(true), nil
}

// CollectAttrs implements Expr.
func (a And) CollectAttrs(set map[string]bool) {
	for _, t := range a.Terms {
		t.CollectAttrs(set)
	}
}

func (a And) String() string {
	if len(a.Terms) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is a disjunction of boolean subexpressions; the empty disjunction is
// false.
type Or struct{ Terms []Expr }

// Eval implements Expr (short-circuiting).
func (o Or) Eval(env Env) (relation.Value, error) {
	for _, t := range o.Terms {
		v, err := t.Eval(env)
		if err != nil {
			return relation.Null(), err
		}
		if v.Kind() != relation.KindBool {
			return relation.Null(), fmt.Errorf("algebra: OR over non-boolean %s", v)
		}
		if v.AsBool() {
			return relation.Bool(true), nil
		}
	}
	return relation.Bool(false), nil
}

// CollectAttrs implements Expr.
func (o Or) CollectAttrs(set map[string]bool) {
	for _, t := range o.Terms {
		t.CollectAttrs(set)
	}
}

func (o Or) String() string {
	if len(o.Terms) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o.Terms))
	for i, t := range o.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates a boolean subexpression.
type Not struct{ Term Expr }

// Eval implements Expr.
func (n Not) Eval(env Env) (relation.Value, error) {
	v, err := n.Term.Eval(env)
	if err != nil {
		return relation.Null(), err
	}
	if v.Kind() != relation.KindBool {
		return relation.Null(), fmt.Errorf("algebra: NOT over non-boolean %s", v)
	}
	return relation.Bool(!v.AsBool()), nil
}

// CollectAttrs implements Expr.
func (n Not) CollectAttrs(set map[string]bool) { n.Term.CollectAttrs(set) }

func (n Not) String() string { return "NOT " + n.Term.String() }

// True is the always-true predicate.
func True() Expr { return And{} }

// IsTrue reports whether e is syntactically the always-true predicate
// (nil, an empty conjunction, or the literal true).
func IsTrue(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case And:
		return len(x.Terms) == 0
	case Const:
		return x.Value.Kind() == relation.KindBool && x.Value.AsBool()
	}
	return false
}

// Conjuncts flattens predicate e, viewed as a conjunction, into its
// non-trivial terms (nested Ands opened, always-true terms dropped).
func Conjuncts(e Expr) []Expr {
	if IsTrue(e) {
		return nil
	}
	if a, ok := e.(And); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// Conj builds the conjunction of the given predicates, flattening nested
// Ands and dropping always-true terms; it returns True() when nothing
// remains.
func Conj(terms ...Expr) Expr {
	var out []Expr
	for _, t := range terms {
		out = append(out, Conjuncts(t)...)
	}
	if len(out) == 0 {
		return True()
	}
	if len(out) == 1 {
		return out[0]
	}
	return And{Terms: out}
}

// Disj builds the disjunction of the given predicates, flattening nested
// Ors. Used by the VAP when merging temporary-relation requests (f ∨ g,
// §6.3 step 2b).
func Disj(terms ...Expr) Expr {
	var out []Expr
	for _, t := range terms {
		if IsTrue(t) {
			return True()
		}
		if o, ok := t.(Or); ok {
			out = append(out, o.Terms...)
			continue
		}
		out = append(out, t)
	}
	if len(out) == 1 {
		return out[0]
	}
	return Or{Terms: out}
}

// Attrs returns the set of attribute names referenced by e (nil-safe).
func Attrs(e Expr) map[string]bool {
	set := make(map[string]bool)
	if e != nil {
		e.CollectAttrs(set)
	}
	return set
}

// EvalPred evaluates e as a predicate over (schema, tuple) by walking the
// expression tree, resolving attributes by name. A nil predicate is true.
// It is the reference semantics: production code runs Compile, and tests
// hold Compile to EvalPred.
func EvalPred(e Expr, schema *relation.Schema, tuple relation.Tuple) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(TupleEnv{Schema: schema, Tuple: tuple})
	if err != nil {
		return false, err
	}
	if v.Kind() != relation.KindBool {
		return false, fmt.Errorf("algebra: predicate yielded non-boolean %s", v)
	}
	return v.AsBool(), nil
}

// Convenience constructors used widely in tests, examples, and the parser.

// Eq builds the predicate l = r.
func Eq(l, r Expr) Expr { return Cmp{Op: OpEq, L: l, R: r} }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return Cmp{Op: OpNe, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return Cmp{Op: OpLt, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return Cmp{Op: OpLe, L: l, R: r} }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return Cmp{Op: OpGt, L: l, R: r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return Cmp{Op: OpGe, L: l, R: r} }

// A references attribute name.
func A(name string) Expr { return Attr{Name: name} }

// CInt is an integer literal.
func CInt(v int64) Expr { return Const{Value: relation.Int(v)} }

// CFloat is a float literal.
func CFloat(v float64) Expr { return Const{Value: relation.Float(v)} }

// CStr is a string literal.
func CStr(v string) Expr { return Const{Value: relation.Str(v)} }

// Add builds l + r.
func Add(l, r Expr) Expr { return Arith{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return Arith{Op: OpSub, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return Arith{Op: OpMul, L: l, R: r} }

// Div builds l / r.
func Div(l, r Expr) Expr { return Arith{Op: OpDiv, L: l, R: r} }
