// Package relation implements the relational substrate used throughout the
// Squirrel reproduction: typed values, tuples, schemas with keys, and
// relations with either set or bag (multiset) semantics, including hash
// indexes for join and probe support. Every relation stores its tuples in
// one columnar representation, the TupleMap (tuplemap.go).
//
// The paper (Hull & Zhou, SIGMOD 1996) works in the relational model with
// attribute-based algebra; some mediator relations are stored as bags to
// support incremental maintenance under projection and union (§5.1).
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is null.
//
// Values are immutable and comparable via Equal and Compare; numeric
// comparisons coerce between int and float.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. (Named to avoid colliding with the
// fmt.Stringer method on Value.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Str is shorthand for String_.
func Str(v string) Value { return String_(v) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics unless the kind is int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("relation: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the value as a float64, coercing from int.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic("relation: AsFloat on " + v.kind.String())
}

// AsString returns the string payload. It panics unless the kind is string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("relation: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless the kind is bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("relation: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are equal. Ints and floats compare
// numerically; null equals only null.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	if err != nil {
		return false
	}
	return c == 0
}

// Compare orders two values. It returns a negative, zero, or positive
// integer as v sorts before, equal to, or after o. Numeric kinds are
// mutually comparable; otherwise the kinds must match. Null sorts before
// everything and equals null.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0, nil
		case v.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.kind == KindInt && o.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1, nil
			case v.i > o.i:
				return 1, nil
			}
			return 0, nil
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindBool:
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		}
		return 0, nil
	case KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("relation: cannot compare %s values", v.kind)
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	}
	return "?"
}

// appendKey appends a canonical, unambiguous encoding of v to b, suitable
// for use as a hash-map key component. Numerically equal ints and floats
// encode identically so that join keys built from mixed numeric columns
// match.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, 'n')
	case KindBool:
		if v.i != 0 {
			return append(b, 'T')
		}
		return append(b, 'F')
	case KindInt:
		// Integers that are exactly representable as float64 encode in
		// float form so Int(2) and Float(2.0) collide, matching Equal.
		f := float64(v.i)
		if int64(f) == v.i {
			return appendFloatKey(b, f)
		}
		b = append(b, 'i')
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return appendFloatKey(b, v.f)
	case KindString:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		return append(b, v.s...)
	}
	return b
}

func appendFloatKey(b []byte, f float64) []byte {
	b = append(b, 'f')
	return strconv.AppendUint(b, floatKeyBits(f), 16)
}

// floatKeyBits is the normalized bit pattern appendFloatKey encodes:
// -0 collapses to +0 so the two zero representations share a key.
func floatKeyBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f + 0)
}

// floatKeyEqual reports whether two floats produce identical canonical
// key encodings.
func floatKeyEqual(a, b float64) bool {
	return floatKeyBits(a) == floatKeyBits(b)
}

// valueKeyEqual reports whether two values produce identical canonical
// key encodings (appendKey) — the equivalence the hashed columnar lookup
// uses, which by construction matches equality of Tuple.Key strings.
func valueKeyEqual(a, b Value) bool {
	switch a.kind {
	case KindNull:
		return b.kind == KindNull
	case KindBool:
		return b.kind == KindBool && a.i == b.i
	case KindString:
		return b.kind == KindString && a.s == b.s
	case KindInt, KindFloat:
		if !b.IsNumeric() {
			return false
		}
		aInt, ai, af := numKeyForm(a)
		bInt, bi, bf := numKeyForm(b)
		if aInt != bInt {
			return false
		}
		if aInt {
			return ai == bi
		}
		return floatKeyEqual(af, bf)
	}
	return false
}

// numKeyForm reports which encoding form a numeric value takes: the
// integer form ('i', for ints not exactly representable as float64) or
// the float form, with the corresponding payload.
func numKeyForm(v Value) (isInt bool, i int64, f float64) {
	if v.kind == KindInt {
		fv := float64(v.i)
		if int64(fv) == v.i {
			return false, 0, fv
		}
		return true, v.i, 0
	}
	return false, 0, v.f
}
