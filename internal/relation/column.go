package relation

// A column is one attribute's value vector inside a TupleMap: unboxed
// int64 or float64 when every value it holds is an int or every value is a
// float (the common case — schemas are typed), with a generic Value
// fallback for strings, booleans, nulls and mixed data. Specialization is
// adaptive: the first value stored picks the representation and a later
// mismatching value demotes the column to generic, converting in place,
// so correctness never depends on the declared schema being honest.
type column struct {
	tag    uint8
	ints   []int64   // colInt
	floats []float64 // colFloat
	vals   []Value   // colGeneric
}

const (
	colEmpty uint8 = iota // no value stored yet: no representation chosen
	colInt
	colFloat
	colGeneric
)

// tagFor picks the specialized representation for a value kind.
func tagFor(k Kind) uint8 {
	switch k {
	case KindInt:
		return colInt
	case KindFloat:
		return colFloat
	default: // string, bool, null
		return colGeneric
	}
}

// length returns the number of slots the column holds.
func (c *column) length() int {
	switch c.tag {
	case colInt:
		return len(c.ints)
	case colFloat:
		return len(c.floats)
	case colGeneric:
		return len(c.vals)
	}
	return 0
}

// demote converts the column to the generic representation in place.
func (c *column) demote() {
	if c.tag == colGeneric {
		return
	}
	n := c.length()
	vals := make([]Value, n)
	for i := 0; i < n; i++ {
		vals[i] = c.valueAt(i)
	}
	c.vals = vals
	c.ints, c.floats = nil, nil
	c.tag = colGeneric
}

// grow appends one zero slot. An empty column stays empty: its slots
// appear when set stores the first value and picks the representation.
func (c *column) grow() {
	switch c.tag {
	case colInt:
		c.ints = append(c.ints, 0)
	case colFloat:
		c.floats = append(c.floats, 0)
	case colGeneric:
		c.vals = append(c.vals, Value{})
	}
}

// set stores v at slot i, demoting the column if v's kind does not match
// the specialization. Slot i must exist (grow first for appends), except
// on an empty column, where the first value picks the representation and
// the slots up to i are created.
func (c *column) set(i int, v Value) {
	want := tagFor(v.kind)
	if c.tag == colEmpty {
		c.tag = want
		for c.length() <= i {
			c.grow()
		}
	}
	if c.tag != want && c.tag != colGeneric {
		c.demote()
	}
	switch c.tag {
	case colInt:
		c.ints[i] = v.i
	case colFloat:
		c.floats[i] = v.f
	default:
		c.vals[i] = v
	}
}

// valueAt materializes the value stored at slot i (allocation free).
func (c *column) valueAt(i int) Value {
	switch c.tag {
	case colInt:
		return Value{kind: KindInt, i: c.ints[i]}
	case colFloat:
		return Value{kind: KindFloat, f: c.floats[i]}
	default:
		return c.vals[i]
	}
}

// keyEqualAt reports whether the value at slot i equals v under the
// canonical-key equivalence (the same relation appendKey induces: ints
// and floats compare numerically through the float encoding, strings by
// content). This is the collision check behind hashed lookups, so it must
// agree exactly with the byte encoding produced by Value.appendKey.
func (c *column) keyEqualAt(i int, v Value) bool {
	switch c.tag {
	case colInt:
		switch v.kind {
		case KindInt:
			return c.ints[i] == v.i
		case KindFloat:
			x := c.ints[i]
			f := float64(x)
			return int64(f) == x && floatKeyEqual(f, v.f)
		}
		return false
	case colFloat:
		switch v.kind {
		case KindFloat:
			return floatKeyEqual(c.floats[i], v.f)
		case KindInt:
			f := float64(v.i)
			return int64(f) == v.i && floatKeyEqual(c.floats[i], f)
		}
		return false
	default:
		return valueKeyEqual(c.vals[i], v)
	}
}

// appendKeyAt appends the canonical key encoding of the value at slot i —
// byte-identical to Value.appendKey of valueAt(i).
func (c *column) appendKeyAt(b []byte, i int) []byte {
	switch c.tag {
	case colInt:
		return Value{kind: KindInt, i: c.ints[i]}.appendKey(b)
	case colFloat:
		return appendFloatKey(b, c.floats[i])
	default:
		return c.vals[i].appendKey(b)
	}
}

// setFromCol stores src's slot j into this column's slot i, copying the
// typed payload directly when the specializations agree (the vectorized
// path smash/apply use).
func (c *column) setFromCol(i int, src *column, j int) {
	if c.tag == src.tag {
		switch c.tag {
		case colInt:
			c.ints[i] = src.ints[j]
			return
		case colFloat:
			c.floats[i] = src.floats[j]
			return
		case colGeneric:
			c.vals[i] = src.vals[j]
			return
		}
	}
	c.set(i, src.valueAt(j))
}

// colEqualAt compares this column's slot i with src's slot j under
// canonical-key equivalence, using the typed fast path when the
// specializations agree.
func (c *column) colEqualAt(i int, src *column, j int) bool {
	if c.tag == src.tag {
		switch c.tag {
		case colInt:
			return c.ints[i] == src.ints[j]
		case colFloat:
			return floatKeyEqual(c.floats[i], src.floats[j])
		}
	}
	return c.keyEqualAt(i, src.valueAt(j))
}

// clone deep-copies the column (Values are immutable; shallow element
// copies are safe).
func (c *column) clone() column {
	out := column{tag: c.tag}
	switch c.tag {
	case colInt:
		out.ints = append([]int64(nil), c.ints...)
	case colFloat:
		out.floats = append([]float64(nil), c.floats...)
	case colGeneric:
		out.vals = append([]Value(nil), c.vals...)
	}
	return out
}

// payloadBytes estimates the resident payload of slot i using the same
// accounting MemoryFootprint has always used (24 bytes per value plus
// string bytes), so the representation does not change advisor
// arithmetic.
func (c *column) payloadBytes(i int) int {
	if c.tag == colGeneric && c.vals[i].kind == KindString {
		return 24 + len(c.vals[i].s)
	}
	return 24
}
