// Package delta implements the Heraclitus-style delta machinery of §6.2 of
// the paper: deltas as first-class values describing the difference between
// database states, with the apply, smash (!), and inverse operators, plus
// the bag generalization [DHR95] required for VDP nodes that involve
// projection or union.
//
// A RelDelta is a signed multiset over tuples of a single relation: a
// positive count n means n insertion atoms +R(t), a negative count means
// deletion atoms -R(t). The consistency condition of the paper — that a
// delta cannot contain both +R(t) and -R(t) — is structural here: each
// tuple has a single signed count.
//
// A Delta groups RelDeltas for several relations, matching the paper's
// deltas that "simultaneously contain atoms that refer to more than one
// relation".
//
// Like relations, deltas store their atoms in a relation.TupleMap, here
// with signed counts, so smash, apply, select, project, and distinct move
// data column-to-column using stored hashes (no tuple materialization, no
// key strings).
package delta

import (
	"fmt"
	"sort"
	"strings"

	"squirrel/internal/relation"
)

// RelDelta is an incremental update to a single relation, represented as a
// signed multiset of tuples.
type RelDelta struct {
	rel string
	tm  *relation.TupleMap // nil until the first Add fixes the arity
}

// NewRel creates an empty delta for the named relation.
func NewRel(rel string) *RelDelta { return &RelDelta{rel: rel} }

// lazy returns the columnar store, creating it at the given arity on
// first use (the arity is not known until the first tuple arrives).
func (d *RelDelta) lazy(arity int) *relation.TupleMap {
	if d.tm == nil {
		d.tm = relation.NewTupleMap(arity)
	}
	return d.tm
}

// Rel returns the name of the relation this delta applies to.
func (d *RelDelta) Rel() string { return d.rel }

// Add adjusts the signed count of t by n. Counts that reach zero are
// removed (an insertion and a deletion of the same tuple annihilate, which
// is exactly additive smash at the tuple level). A tuple whose arity
// differs from the delta's earlier tuples panics, as relation.Add does.
func (d *RelDelta) Add(t relation.Tuple, n int) {
	if n == 0 {
		return
	}
	if d.tm != nil && len(t) != d.tm.Arity() {
		panic(fmt.Sprintf("delta: arity mismatch adding to %s: tuple %s, arity %d", d.rel, t, d.tm.Arity()))
	}
	d.lazy(len(t)).Add(t, int64(n), relation.ModeSigned)
}

// Insert records one insertion atom +R(t).
func (d *RelDelta) Insert(t relation.Tuple) { d.Add(t, 1) }

// Delete records one deletion atom -R(t).
func (d *RelDelta) Delete(t relation.Tuple) { d.Add(t, -1) }

// Count returns the signed count of t in the delta.
func (d *RelDelta) Count(t relation.Tuple) int {
	if d.tm == nil {
		return 0
	}
	return int(d.tm.Get(t))
}

// IsEmpty reports whether the delta contains no atoms.
func (d *RelDelta) IsEmpty() bool { return d.Len() == 0 }

// Len returns the number of distinct tuples mentioned.
func (d *RelDelta) Len() int {
	if d.tm == nil {
		return 0
	}
	return d.tm.Len()
}

// Card returns the total number of atoms (sum of absolute counts).
func (d *RelDelta) Card() int {
	total := 0
	d.Each(func(_ relation.Tuple, n int) bool {
		if n < 0 {
			total -= n
		} else {
			total += n
		}
		return true
	})
	return total
}

// Each iterates over the entries (tuple, signed count); return false to
// stop. Iteration order is unspecified. Tuples handed out are safe to
// retain.
func (d *RelDelta) Each(fn func(t relation.Tuple, n int) bool) {
	if d.tm == nil {
		return
	}
	d.tm.Each(func(t relation.Tuple, n int64) bool { return fn(t, int(n)) })
}

// Rows returns the entries in deterministic (sorted) order with signed
// counts.
func (d *RelDelta) Rows() []relation.Row {
	out := make([]relation.Row, 0, d.Len())
	d.Each(func(t relation.Tuple, n int) bool {
		out = append(out, relation.Row{Tuple: t, Count: n})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// Insertions returns the tuples with positive counts (the Δ⁺ of the
// paper's difference rules), with their counts.
func (d *RelDelta) Insertions() []relation.Row { return d.signed(1) }

// Deletions returns the tuples with negative counts (Δ⁻), with counts
// reported as positive magnitudes.
func (d *RelDelta) Deletions() []relation.Row {
	return d.signed(-1)
}

func (d *RelDelta) signed(sign int) []relation.Row {
	var out []relation.Row
	d.Each(func(t relation.Tuple, n int) bool {
		if sign > 0 && n > 0 {
			out = append(out, relation.Row{Tuple: t, Count: n})
		}
		if sign < 0 && n < 0 {
			out = append(out, relation.Row{Tuple: t, Count: -n})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// Clone returns a deep copy.
func (d *RelDelta) Clone() *RelDelta {
	c := &RelDelta{rel: d.rel}
	if d.tm != nil {
		c.tm = d.tm.Clone()
	}
	return c
}

// Equal reports whether two deltas contain identical atoms.
func (d *RelDelta) Equal(o *RelDelta) bool {
	if d.Len() != o.Len() {
		return false
	}
	if d.tm == nil || o.tm == nil {
		return true // both empty (lengths matched)
	}
	eq := true
	d.tm.EachSlot(func(s int32, n int64) bool {
		eq = o.tm.GetFrom(d.tm, s) == n
		return eq
	})
	return eq
}

// Inverse returns the delta with all atom signs reversed (the ⁻¹ operator).
// For non-redundant deltas, apply(apply(db, Δ), Δ⁻¹) = db.
func (d *RelDelta) Inverse() *RelDelta {
	c := &RelDelta{rel: d.rel}
	if d.tm != nil {
		tm := c.lazy(d.tm.Arity())
		d.tm.EachSlot(func(s int32, n int64) bool {
			tm.AddFrom(d.tm, s, -n, relation.ModeSigned)
			return true
		})
	}
	return c
}

// Smash combines o into d additively: apply(db, d ! o) =
// apply(apply(db, d), o). This is the bag smash; for set-semantics deltas
// satisfying the paper's non-redundancy assumption it agrees with the
// override smash of [HJ91] under apply (see SmashSet). The combination is
// vectorized: stored hashes are reused and values move column-to-column.
func (d *RelDelta) Smash(o *RelDelta) {
	if o.tm == nil {
		return
	}
	tm := d.lazy(o.tm.Arity())
	o.tm.EachSlot(func(s int32, n int64) bool {
		tm.AddFrom(o.tm, s, n, relation.ModeSigned)
		return true
	})
}

// SmashSet combines o into d using the override semantics of [HJ91]: the
// result is the union of the two atom sets with any atom of d that
// conflicts with an atom of o removed (o wins). Counts are clamped to ±1.
func (d *RelDelta) SmashSet(o *RelDelta) {
	if o.tm == nil {
		return
	}
	tm := d.lazy(o.tm.Arity())
	o.tm.EachSlot(func(s int32, n int64) bool {
		sign := int64(1)
		if n < 0 {
			sign = -1
		}
		tm.AddFrom(o.tm, s, sign, relation.ModeAssign)
		return true
	})
}

// ApplyTo applies the delta to rel. In strict mode it returns an error on
// any redundant atom (inserting a tuple already at its maximum multiplicity
// in a set relation, or deleting more occurrences than exist); otherwise
// effects are clamped. The relation name is not checked so that deltas can
// be applied to renamed copies, but a delta whose arity differs from the
// relation's is an error. Atoms apply slot-wise into the relation's
// columnar store.
func (d *RelDelta) ApplyTo(rel *relation.Relation, strict bool) error {
	if d.tm == nil {
		return nil
	}
	if a := rel.Schema().Arity(); d.tm.Arity() != a {
		return fmt.Errorf("delta: %s has arity %d, relation %s has %d", d.rel, d.tm.Arity(), rel.Schema().Name(), a)
	}
	var err error
	d.tm.EachSlot(func(s int32, n int64) bool {
		applied := rel.AddSlot(d.tm, s, n)
		if strict && applied != n {
			t := d.tm.AppendTupleAt(nil, s)
			err = fmt.Errorf("delta: redundant atom for %s: tuple %s count %+d applied %+d",
				d.rel, t, n, applied)
		}
		return err == nil
	})
	return err
}

// Project returns a new delta for relation newRel whose tuples are the
// projections of d's tuples onto the given positions, counts preserved
// (bag projection). Projection commutes with apply, as the paper notes.
func (d *RelDelta) Project(newRel string, positions []int) *RelDelta {
	out := &RelDelta{rel: newRel}
	if d.tm == nil {
		return out
	}
	tm := out.lazy(len(positions))
	d.tm.EachSlot(func(s int32, n int64) bool {
		tm.AddFromProjected(d.tm, s, positions, n, relation.ModeSigned)
		return true
	})
	return out
}

// Select returns a new delta containing only the atoms whose tuples
// satisfy pred. Selection commutes with apply. pred reads the delta's
// columns in place and kept atoms move column-to-column.
func (d *RelDelta) Select(pred relation.Predicate) (*RelDelta, error) {
	out := &RelDelta{rel: d.rel}
	if d.tm == nil {
		return out, nil
	}
	test := pred.Bind(d.tm)
	var err error
	d.tm.EachSlot(func(s int32, n int64) bool {
		ok, e := test(s)
		if e != nil {
			err = e
			return false
		}
		if ok {
			out.lazy(d.tm.Arity()).AddFrom(d.tm, s, n, relation.ModeSigned)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Renamed returns a copy of the delta targeting a different relation name.
func (d *RelDelta) Renamed(rel string) *RelDelta {
	c := d.Clone()
	c.rel = rel
	return c
}

// Distinct converts a bag-level delta into the set-level ("distinct")
// delta it induces, given the relation state old that d is about to be
// applied to: a tuple contributes +1 if its multiplicity transitions
// 0 -> positive and -1 if it transitions positive -> 0. This is how bag
// nodes feed set nodes (difference nodes) in a VDP.
func (d *RelDelta) Distinct(old *relation.Relation) *RelDelta {
	out := &RelDelta{rel: d.rel}
	if d.tm == nil {
		return out
	}
	oldTM := old.Blockmap()
	d.tm.EachSlot(func(s int32, n int64) bool {
		before := oldTM.GetFrom(d.tm, s)
		after := before + n
		if after < 0 {
			after = 0
		}
		switch {
		case before == 0 && after > 0:
			out.lazy(d.tm.Arity()).AddFrom(d.tm, s, 1, relation.ModeSigned)
		case before > 0 && after == 0:
			out.lazy(d.tm.Arity()).AddFrom(d.tm, s, -1, relation.ModeSigned)
		}
		return true
	})
	return out
}

// String renders the delta deterministically: one atom group per line with
// explicit signs.
func (d *RelDelta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Δ%s [%d atoms]\n", d.rel, d.Card())
	for _, r := range d.Rows() {
		fmt.Fprintf(&b, "  %+d %s\n", r.Count, r.Tuple)
	}
	return b.String()
}

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
