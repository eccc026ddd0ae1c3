package delta

import (
	"fmt"
	"sort"
	"strings"

	"squirrel/internal/relation"
)

// Delta is a multi-relation delta: a collection of RelDeltas keyed by
// relation name. It corresponds to the paper's deltas that may contain
// atoms referring to more than one relation — e.g. the net update a source
// database announces for one of its transactions.
type Delta struct {
	rels map[string]*RelDelta
}

// New creates an empty multi-relation delta.
func New() *Delta {
	return &Delta{rels: make(map[string]*RelDelta)}
}

// Rel returns the per-relation delta for rel, creating it if absent.
func (d *Delta) Rel(rel string) *RelDelta {
	rd := d.rels[rel]
	if rd == nil {
		rd = NewRel(rel)
		d.rels[rel] = rd
	}
	return rd
}

// Get returns the per-relation delta for rel, or nil if the delta has no
// atoms for it.
func (d *Delta) Get(rel string) *RelDelta {
	rd := d.rels[rel]
	if rd == nil || rd.IsEmpty() {
		return nil
	}
	return rd
}

// Put installs rd (replacing any existing delta for the same relation).
// Empty deltas are dropped.
func (d *Delta) Put(rd *RelDelta) {
	if rd == nil || rd.IsEmpty() {
		delete(d.rels, rd.Rel())
		return
	}
	d.rels[rd.Rel()] = rd
}

// Insert records an insertion atom +rel(t).
func (d *Delta) Insert(rel string, t relation.Tuple) { d.Rel(rel).Insert(t) }

// Delete records a deletion atom -rel(t).
func (d *Delta) Delete(rel string, t relation.Tuple) { d.Rel(rel).Delete(t) }

// Add adjusts the signed count of t in rel by n.
func (d *Delta) Add(rel string, t relation.Tuple, n int) { d.Rel(rel).Add(t, n) }

// Relations returns the sorted names of relations with at least one atom.
func (d *Delta) Relations() []string {
	out := make([]string, 0, len(d.rels))
	for name, rd := range d.rels {
		if !rd.IsEmpty() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// IsEmpty reports whether the delta has no atoms at all.
func (d *Delta) IsEmpty() bool {
	for _, rd := range d.rels {
		if !rd.IsEmpty() {
			return false
		}
	}
	return true
}

// Card returns the total atom count across relations.
func (d *Delta) Card() int {
	total := 0
	for _, rd := range d.rels {
		total += rd.Card()
	}
	return total
}

// Clone returns a deep copy.
func (d *Delta) Clone() *Delta {
	c := New()
	for name, rd := range d.rels {
		if !rd.IsEmpty() {
			c.rels[name] = rd.Clone()
		}
	}
	return c
}

// Equal reports whether two deltas contain identical atoms.
func (d *Delta) Equal(o *Delta) bool {
	names := d.Relations()
	onames := o.Relations()
	if len(names) != len(onames) {
		return false
	}
	for i, n := range names {
		if n != onames[i] || !d.rels[n].Equal(o.rels[n]) {
			return false
		}
	}
	return true
}

// Compact drops per-relation deltas whose atoms have fully annihilated
// (an insert-then-delete of the same tuple smashes to a zero count and
// vanishes entry by entry; Compact removes the empty shell that remains).
// Coalescing a queue of announcements can legitimately net out to an
// empty delta — the transaction still commits and advances ref′, it just
// propagates nothing. Returns d for chaining.
func (d *Delta) Compact() *Delta {
	for name, rd := range d.rels {
		if rd.IsEmpty() {
			delete(d.rels, name)
		}
	}
	return d
}

// Smash combines o into d (additively, per relation): apply(db, d ! o) =
// apply(apply(db, d), o).
func (d *Delta) Smash(o *Delta) {
	for name, rd := range o.rels {
		if rd.IsEmpty() {
			continue
		}
		d.Rel(name).Smash(rd)
	}
}

// Inverse returns the delta with all atoms sign-reversed; note
// (Δ1!Δ2)⁻¹ = Δ2⁻¹!Δ1⁻¹ as the paper observes (for additive smash the
// order is immaterial).
func (d *Delta) Inverse() *Delta {
	c := New()
	for name, rd := range d.rels {
		if !rd.IsEmpty() {
			c.rels[name] = rd.Inverse()
		}
	}
	return c
}

// Filter returns a new delta retaining only atoms for the named relations.
func (d *Delta) Filter(rels ...string) *Delta {
	keep := make(map[string]bool, len(rels))
	for _, r := range rels {
		keep[r] = true
	}
	c := New()
	for name, rd := range d.rels {
		if keep[name] && !rd.IsEmpty() {
			c.rels[name] = rd.Clone()
		}
	}
	return c
}

// ApplyTo applies every per-relation delta to the matching relation in the
// catalog (a map from relation name to instance). Relations not present in
// the catalog are skipped (they belong to other consumers). strict has the
// same meaning as RelDelta.ApplyTo.
func (d *Delta) ApplyTo(catalog map[string]*relation.Relation, strict bool) error {
	for name, rd := range d.rels {
		rel, ok := catalog[name]
		if !ok {
			continue
		}
		if err := rd.ApplyTo(rel, strict); err != nil {
			return err
		}
	}
	return nil
}

// String renders the delta deterministically.
func (d *Delta) String() string {
	var b strings.Builder
	names := d.Relations()
	if len(names) == 0 {
		return "Δ∅\n"
	}
	for _, name := range names {
		b.WriteString(d.rels[name].String())
	}
	return b.String()
}

// Validate checks the structural consistency condition: no tuple may carry
// a zero count (impossible by construction) and, in set mode, counts must
// be ±1. Returns the first violation found.
func (d *RelDelta) Validate(set bool) error {
	var err error
	d.Each(func(t relation.Tuple, n int) bool {
		if n == 0 {
			err = fmt.Errorf("delta: zero-count atom for %s tuple %s", d.rel, t)
		} else if set && n != 1 && n != -1 {
			err = fmt.Errorf("delta: set-semantics delta for %s has count %d for tuple %s", d.rel, n, t)
		}
		return err == nil
	})
	return err
}
