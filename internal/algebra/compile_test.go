package algebra

import (
	"math"
	"math/rand"
	"testing"

	"squirrel/internal/relation"
)

// The compiled predicate must be EvalPred row for row — same result, same
// error — whether it reads a tuple or is bound to a TupleMap's columns.
// The generator leans on the shapes the bound form specializes (attribute
// against numeric constant, either way round, over int and float columns)
// and mixes in every way EvalPred can fail.

var compileSchema = relation.MustSchema("X", []relation.Attribute{
	{Name: "i", Type: relation.KindInt},    // unboxed ints
	{Name: "f", Type: relation.KindFloat},  // unboxed floats: ±0, NaN, ±Inf
	{Name: "s", Type: relation.KindString}, // boxed
	{Name: "b", Type: relation.KindBool},   // boxed
	{Name: "n", Type: relation.KindInt},    // NULL first, so boxed
	{Name: "m", Type: relation.KindInt},    // ints then floats and strings: demoted
})

var (
	someInts   = []int64{-3, -1, 0, 1, 2, 3, math.MinInt64, math.MaxInt64, 1<<53 + 1}
	someFloats = []float64{0, math.Copysign(0, -1), 0.5, -2.5, 3, 1 << 53, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// chooser is the generator's source of choices: a seeded rand in the
// property test, the fuzzer's bytes in FuzzCompile.
type chooser interface{ Intn(n int) int }

type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

func genValue(c chooser) relation.Value {
	switch c.Intn(6) {
	case 0, 1:
		return relation.Int(someInts[c.Intn(len(someInts))])
	case 2, 3:
		return relation.Float(someFloats[c.Intn(len(someFloats))])
	case 4:
		return relation.Str([]string{"a", "s1", ""}[c.Intn(3)])
	}
	if c.Intn(2) == 0 {
		return relation.Bool(c.Intn(2) == 0)
	}
	return relation.Null()
}

func genAttrName(c chooser) string {
	names := []string{"i", "i", "f", "f", "s", "b", "n", "m", "zz"}
	return names[c.Intn(len(names))]
}

func genAttr(c chooser) Expr { return A(genAttrName(c)) }

// genIn draws a membership test whose list mixes int and float spellings
// of one number, ±0, big ints and NULL with the ordinary values.
func genIn(c chooser) Expr {
	vals := make([]relation.Value, c.Intn(5))
	for i := range vals {
		switch c.Intn(4) {
		case 0:
			n := someInts[c.Intn(len(someInts))]
			vals[i] = relation.Float(float64(n))
		case 1:
			vals[i] = relation.Float(math.Copysign(0, -1))
		default:
			vals[i] = genValue(c)
		}
	}
	return In{Attr: genAttrName(c), Values: vals}
}

func genLeaf(c chooser) Expr {
	if c.Intn(2) == 0 {
		return genAttr(c)
	}
	return Const{Value: genValue(c)}
}

func genExpr(c chooser, depth int) Expr {
	if depth <= 0 {
		return genLeaf(c)
	}
	op := CmpOp(c.Intn(6))
	switch c.Intn(10) {
	case 0, 1, 2:
		a, k := genAttr(c), Const{Value: genValue(c)}
		if c.Intn(2) == 0 {
			return Cmp{Op: op, L: a, R: k}
		}
		return Cmp{Op: op, L: k, R: a}
	case 3:
		return Cmp{Op: op, L: genExpr(c, depth-1), R: genExpr(c, depth-1)}
	case 4:
		return Arith{Op: ArithOp(c.Intn(4)), L: genExpr(c, depth-1), R: genExpr(c, depth-1)}
	case 5, 6:
		terms := make([]Expr, c.Intn(4))
		for i := range terms {
			terms[i] = genExpr(c, depth-1)
		}
		if c.Intn(2) == 0 {
			return And{Terms: terms}
		}
		return Or{Terms: terms}
	case 7:
		return Not{Term: genExpr(c, depth-1)}
	case 8:
		return genIn(c)
	}
	return genLeaf(c)
}

// compileFixture builds the map the predicates run over, and checks the
// columns took the representations the generator aims at.
func compileFixture(t testing.TB) *relation.TupleMap {
	rng := rand.New(rand.NewSource(7))
	m := relation.NewTupleMap(compileSchema.Arity())
	for r := 0; r < 60; r++ {
		n := relation.Null()
		if r > 0 && rng.Intn(4) > 0 {
			n = relation.Int(int64(rng.Intn(5) - 2))
		}
		mixed := relation.Int(someInts[rng.Intn(len(someInts))])
		switch {
		case r == 40:
			mixed = relation.Float(someFloats[rng.Intn(len(someFloats))])
		case r == 50:
			mixed = relation.Str("m")
		}
		m.Add(relation.Tuple{
			relation.Int(someInts[rng.Intn(len(someInts))]),
			relation.Float(someFloats[rng.Intn(len(someFloats))]),
			relation.Str([]string{"a", "s1", "zz"}[rng.Intn(3)]),
			relation.Bool(rng.Intn(2) == 0),
			n, mixed,
		}, 1, relation.ModeBag)
	}
	if _, ok := m.IntColumn(0); !ok {
		t.Fatal("column i is not unboxed ints")
	}
	if _, ok := m.FloatColumn(1); !ok {
		t.Fatal("column f is not unboxed floats")
	}
	return m
}

// orOfEq rewrites every In of e into its defining Or of equalities, the
// reference the compiled membership test is held to.
func orOfEq(e Expr) Expr {
	switch x := e.(type) {
	case In:
		terms := make([]Expr, len(x.Values))
		for i, v := range x.Values {
			terms[i] = Eq(A(x.Attr), Const{Value: v})
		}
		return Or{Terms: terms}
	case Arith:
		return Arith{Op: x.Op, L: orOfEq(x.L), R: orOfEq(x.R)}
	case Cmp:
		return Cmp{Op: x.Op, L: orOfEq(x.L), R: orOfEq(x.R)}
	case And:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = orOfEq(t)
		}
		return And{Terms: terms}
	case Or:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = orOfEq(t)
		}
		return Or{Terms: terms}
	case Not:
		return Not{Term: orOfEq(x.Term)}
	}
	return e
}

// agree checks one expression on every row of m.
func agree(t *testing.T, e Expr, m *relation.TupleMap) {
	t.Helper()
	p := Compile(e, compileSchema)
	bound := p.Bind(m)
	ref := orOfEq(e)
	m.EachSlot(func(s int32, _ int64) bool {
		row := m.AppendTupleAt(nil, s)
		want, werr := EvalPred(ref, compileSchema, row)
		for form, got := range map[string]func() (bool, error){
			"bound": func() (bool, error) { return bound(s) },
			"tuple": func() (bool, error) { return p.Eval(row) },
			"eval":  func() (bool, error) { return EvalPred(e, compileSchema, row) },
		} {
			ok, err := got()
			if (err != nil) != (werr != nil) || (werr == nil && ok != want) ||
				(werr != nil && err.Error() != werr.Error()) {
				t.Fatalf("%s form of %s on %s: (%v, %v), EvalPred (%v, %v)", form, exprString(e), row, ok, err, want, werr)
			}
		}
		return true
	})
}

func TestCompileMatchesEvalPred(t *testing.T) {
	m := compileFixture(t)
	agree(t, nil, m)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		agree(t, genExpr(rng, 1+i%4), m)
	}
}

func FuzzCompile(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2})
	f.Add([]byte{5, 3, 3, 7, 0, 9, 2, 1, 4, 8})
	f.Add([]byte{4, 3, 1, 1, 0, 0, 6, 2, 2, 1, 0})
	m := compileFixture(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, genExpr(&byteChooser{b: b}, 4), m)
	})
}

// TestSelectProjectAllocsPerCall is the allocation gate for the compiled
// scan: binding costs a constant per call, and a row costs nothing —
// ProjectSelectInto builds no tuple and boxes no value.
func TestSelectProjectAllocsPerCall(t *testing.T) {
	schema := relation.MustSchema("K", []relation.Attribute{{Name: "k", Type: relation.KindInt}, {Name: "v", Type: relation.KindInt}})
	proj := relation.MustSchema("P", []relation.Attribute{{Name: "v", Type: relation.KindInt}})
	pred := Compile(Conj(Ge(A("k"), CInt(10)), Lt(A("k"), CInt(210))), schema)
	allocs := func(rows int) float64 {
		src := relation.New(schema, relation.Bag)
		for i := 0; i < rows; i++ {
			src.Add(relation.T(i, i%7), 1)
		}
		dst := relation.New(proj, relation.Bag)
		scan := func() {
			if err := relation.ProjectSelectInto(dst, src, []int{1}, pred); err != nil {
				t.Fatal(err)
			}
		}
		scan() // dst now holds every projected row; later scans only count
		return testing.AllocsPerRun(20, scan)
	}
	small, large := allocs(1000), allocs(20000)
	if large != small || large > 8 {
		t.Errorf("ProjectSelectInto allocates %v per call over 1k rows and %v over 20k, want the same constant ≤ 8", small, large)
	}
}
