package delta

import "squirrel/internal/relation"

// Test-only constructors: nothing outside this package's tests builds
// deltas this way.

// Diff computes the delta that transforms relation a into relation b
// (tuple counts in b minus counts in a). Both must share a schema shape.
func Diff(rel string, a, b *relation.Relation) *RelDelta {
	out := NewRel(rel)
	atm, btm := a.Blockmap(), b.Blockmap()
	tm := out.lazy(atm.Arity())
	atm.EachSlot(func(s int32, n int64) bool {
		tm.AddFrom(atm, s, -n, relation.ModeSigned)
		return true
	})
	btm.EachSlot(func(s int32, n int64) bool {
		tm.AddFrom(btm, s, n, relation.ModeSigned)
		return true
	})
	return out
}

// Smashed returns the smash d1 ! d2 ! ... of the given deltas as a new
// value, leaving the arguments untouched.
func Smashed(ds ...*Delta) *Delta {
	out := New()
	for _, d := range ds {
		if d != nil {
			out.Smash(d)
		}
	}
	return out
}

// FromRows builds a RelDelta from explicit signed rows.
func FromRows(rel string, rows ...relation.Row) *RelDelta {
	d := NewRel(rel)
	for _, r := range rows {
		d.Add(r.Tuple, r.Count)
	}
	return d
}
