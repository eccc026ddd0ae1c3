package algebra

import (
	"math"
	"strings"
	"testing"

	"squirrel/internal/relation"
)

func TestSubstAttrs(t *testing.T) {
	e := Conj(
		Eq(A("a"), A("b")),
		Lt(Add(A("a"), CInt(1)), Mul(A("c"), A("c"))),
		Or{Terms: []Expr{Not{Term: Ge(A("b"), CStr("x"))}}},
	)
	m := map[string]string{"a": "x1", "b": "x2"}
	got := SubstAttrs(e, m).String()
	for _, want := range []string{"x1 = x2", "(x1 + 1)", "x2 >="} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
	if strings.Contains(strings.ReplaceAll(strings.ReplaceAll(got, "x1", ""), "x2", ""), "a =") {
		t.Errorf("unsubstituted attrs remain: %q", got)
	}
	// c is not in the mapping: unchanged.
	if !strings.Contains(got, "(c * c)") {
		t.Errorf("unmapped attr must survive: %q", got)
	}
	if SubstAttrs(nil, m) != nil {
		t.Errorf("nil stays nil")
	}
	// Constants pass through.
	if SubstAttrs(CInt(5), m).String() != "5" {
		t.Errorf("const subst")
	}
}

func TestConjunctsOver(t *testing.T) {
	e := Conj(
		Eq(A("a"), CInt(1)),
		Lt(A("b"), CInt(2)),
		Gt(Add(A("a"), A("c")), CInt(0)),
	)
	push, rest := ConjunctsOver(e, map[string]bool{"a": true, "b": true})
	ps, rs := push.String(), rest.String()
	if !strings.Contains(ps, "a = 1") || !strings.Contains(ps, "b < 2") {
		t.Errorf("pushable = %q", ps)
	}
	if !strings.Contains(rs, "c") {
		t.Errorf("residual = %q", rs)
	}
	// All pushable.
	push2, rest2 := ConjunctsOver(Eq(A("a"), CInt(1)), map[string]bool{"a": true})
	if IsTrue(push2) || !IsTrue(rest2) {
		t.Errorf("all-pushable: %q / %q", push2, rest2)
	}
	// True input: both empty.
	p3, r3 := ConjunctsOver(True(), nil)
	if !IsTrue(p3) || !IsTrue(r3) {
		t.Errorf("true input")
	}
}

func TestBaseRelationsAllNodeTypes(t *testing.T) {
	e := Union{
		L: Diff{
			L: DistinctOf{Input: Scan{Rel: "A"}},
			R: Project{Input: Scan{Rel: "B"}, Cols: []string{"x"}},
		},
		R: Select{Input: Join{L: Scan{Rel: "C"}, R: Scan{Rel: "D"}}, Pred: True()},
	}
	got := BaseRelationsOf(e)
	if strings.Join(got, ",") != "A,B,C,D" {
		t.Errorf("base relations = %v", got)
	}
}

func TestCollectAttrsConstAndArith(t *testing.T) {
	set := map[string]bool{}
	CInt(1).CollectAttrs(set)
	if len(set) != 0 {
		t.Errorf("const collects nothing")
	}
	Add(A("p"), Div(A("q"), CInt(2))).CollectAttrs(set)
	if !set["p"] || !set["q"] {
		t.Errorf("arith attrs: %v", set)
	}
}

func TestArithOpStrings(t *testing.T) {
	for op, want := range map[ArithOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"} {
		if op.String() != want {
			t.Errorf("%v != %s", op, want)
		}
	}
	if ArithOp(99).String() != "?" || CmpOp(99).String() != "?" {
		t.Errorf("unknown op strings")
	}
}

func TestInNode(t *testing.T) {
	in := In{Attr: "a", Values: []relation.Value{relation.Str("x"), relation.Int(3), relation.Null(), relation.Float(1.5), relation.Int(-2)}}
	// The rendering sorts the values, so a permuted list renders alike.
	perm := In{Attr: "a", Values: []relation.Value{relation.Int(-2), relation.Float(1.5), relation.Int(3), relation.Null(), relation.Str("x")}}
	if got, want := in.String(), `a IN (NULL, -2, 3, 1.5, "x")`; got != want || perm.String() != want {
		t.Errorf("String = %q and %q, want %q", got, perm.String(), want)
	}
	nan, negZero := relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1))
	odd := []relation.Value{nan, relation.Float(0), negZero, relation.Float(math.Inf(1)), relation.Float(-1)}
	for i := range odd {
		rot := append(append([]relation.Value(nil), odd[i:]...), odd[:i]...)
		if got, want := (In{Attr: "f", Values: rot}).String(), "f IN (-1, -0, 0, +Inf, NaN)"; got != want {
			t.Errorf("String of rotation %d = %q, want %q", i, got, want)
		}
	}
	if got := SubstAttrs(Conj(in, Eq(A("b"), CInt(1))), map[string]string{"a": "z"}).String(); !strings.Contains(got, "z IN (") {
		t.Errorf("SubstAttrs did not rename the In attribute: %s", got)
	}
	if attrs := Attrs(in); len(attrs) != 1 || !attrs["a"] {
		t.Errorf("CollectAttrs = %v", attrs)
	}
	push, rest := ConjunctsOver(Conj(in, Eq(A("b"), CInt(1))), map[string]bool{"a": true})
	if push.String() != in.String() || rest.String() != "b = 1" {
		t.Errorf("ConjunctsOver = %s | %s", push, rest)
	}
	if !HasIn(Not{Term: Conj(Eq(A("b"), CInt(1)), in)}) || HasIn(Eq(A("a"), CInt(3))) {
		t.Errorf("HasIn")
	}
	// Numeric equality across kinds, NULL = NULL; the empty list is false
	// and reads nothing.
	schema := relation.MustSchema("X", []relation.Attribute{{Name: "a", Type: relation.KindFloat}})
	for _, c := range []struct {
		e    Expr
		v    relation.Value
		want bool
	}{
		{in, relation.Float(3), true},
		{in, relation.Int(1), false},
		{in, relation.Null(), true},
		{In{Attr: "a", Values: []relation.Value{relation.Float(0)}}, relation.Float(math.Copysign(0, -1)), true},
		{In{Attr: "zz"}, relation.Int(1), false},
	} {
		got, err := EvalPred(c.e, schema, relation.Tuple{c.v})
		if err != nil || got != c.want {
			t.Errorf("%s on %s = %v, %v; want %v", c.e, c.v, got, err, c.want)
		}
		if got, err := Compile(c.e, schema).Eval(relation.Tuple{c.v}); err != nil || got != c.want {
			t.Errorf("compiled %s on %s = %v, %v; want %v", c.e, c.v, got, err, c.want)
		}
	}
}
