package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Semantics selects set or bag (multiset) storage for a relation.
// Difference nodes in a VDP are set nodes; nodes involving projection or
// union are stored as bags so incremental maintenance stays correct (§5.1).
type Semantics uint8

const (
	// Set semantics: every tuple has multiplicity 0 or 1.
	Set Semantics = iota
	// Bag semantics: tuples carry arbitrary non-negative multiplicities.
	Bag
)

// String returns "set" or "bag".
func (s Semantics) String() string {
	if s == Set {
		return "set"
	}
	return "bag"
}

type row struct {
	tuple Tuple
	count int
}

// Relation is an in-memory relation instance with set or bag semantics and
// optional join indexes on attribute subsets (index.go).
//
// Two physical backends implement the same observable behavior: the
// columnar Blocks backend (a TupleMap of type-specialized column vectors)
// and the original Rows backend (map[string]*row keyed by canonical tuple
// encodings), retained as a differential oracle. Exactly one of tm / rows
// is non-nil.
type Relation struct {
	schema *Schema
	sem    Semantics
	bk     Backend
	rows   map[string]*row // Rows backend
	tm     *TupleMap       // Blocks backend
	card   int             // total multiplicity
}

// New creates an empty relation over the given schema with the given
// semantics, using the process-default backend.
func New(schema *Schema, sem Semantics) *Relation {
	return NewWith(schema, sem, DefaultBackend())
}

// NewWith creates an empty relation on an explicit backend.
func NewWith(schema *Schema, sem Semantics, bk Backend) *Relation {
	r := &Relation{schema: schema, sem: sem, bk: bk}
	if bk == Rows {
		r.rows = make(map[string]*row)
	} else {
		r.tm = NewTupleMap(schema.Arity())
	}
	return r
}

// NewSet creates an empty set-semantics relation.
func NewSet(schema *Schema) *Relation { return New(schema, Set) }

// NewBag creates an empty bag-semantics relation.
func NewBag(schema *Schema) *Relation { return New(schema, Bag) }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Semantics returns the relation's storage semantics.
func (r *Relation) Semantics() Semantics { return r.sem }

// Backend returns the relation's physical backend.
func (r *Relation) Backend() Backend { return r.bk }

// Blockmap exposes the underlying columnar store when the relation is
// block-backed (nil otherwise). Intended for the vectorized kernels in
// internal/delta; mutating through it bypasses cardinality maintenance.
func (r *Relation) Blockmap() *TupleMap { return r.tm }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int {
	if r.tm != nil {
		return r.tm.Len()
	}
	return len(r.rows)
}

// Card returns the total cardinality including multiplicities (equal to
// Len for set relations).
func (r *Relation) Card() int { return r.card }

// Count returns the multiplicity of t (0 if absent).
func (r *Relation) Count(t Tuple) int {
	if r.tm != nil {
		return int(r.tm.Get(t))
	}
	if rw, ok := r.rows[t.Key()]; ok {
		return rw.count
	}
	return 0
}

// Contains reports whether t occurs at least once.
func (r *Relation) Contains(t Tuple) bool { return r.Count(t) > 0 }

// Insert adds one occurrence of t. For set relations, inserting an existing
// tuple is a no-op and returns false; otherwise it returns true.
func (r *Relation) Insert(t Tuple) bool {
	n, _ := r.Add(t, 1)
	return n > 0
}

// Delete removes one occurrence of t, reporting whether anything was
// removed.
func (r *Relation) Delete(t Tuple) bool {
	n, _ := r.Add(t, -1)
	return n < 0
}

// Add adjusts the multiplicity of t by n (which may be negative), clamping
// the result at zero and, for sets, at one. It returns the actual applied
// change and the new multiplicity. On the blocks backend this path builds
// no key string and performs zero per-tuple allocations.
func (r *Relation) Add(t Tuple, n int) (applied, newCount int) {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("relation: arity mismatch inserting into %s: tuple %s", r.schema.Name(), t))
	}
	if r.tm != nil {
		a, nc := r.tm.Add(t, int64(n), r.addMode())
		r.card += int(a)
		return int(a), int(nc)
	}
	key := t.Key()
	rw := r.rows[key]
	old := 0
	if rw != nil {
		old = rw.count
	}
	target := old + n
	if target < 0 {
		target = 0
	}
	if r.sem == Set && target > 1 {
		target = 1
	}
	applied = target - old
	if applied == 0 {
		return 0, old
	}
	r.card += applied
	if target == 0 {
		delete(r.rows, key)
		return applied, 0
	}
	if rw == nil {
		rw = &row{tuple: t.Clone()}
		r.rows[key] = rw
	}
	rw.count = target
	return applied, target
}

// SetCount forces the multiplicity of t to n (>= 0).
func (r *Relation) SetCount(t Tuple, n int) {
	cur := r.Count(t)
	r.Add(t, n-cur)
}

// Each iterates over distinct rows; fn receives each tuple and its
// multiplicity, returning false to stop early. The iteration order is
// unspecified. The callback must not mutate the relation. Tuples handed
// out are safe to retain on every backend.
func (r *Relation) Each(fn func(t Tuple, count int) bool) {
	if r.tm != nil {
		r.tm.Each(func(t Tuple, n int64) bool { return fn(t, int(n)) })
		return
	}
	for _, rw := range r.rows {
		if !fn(rw.tuple, rw.count) {
			return
		}
	}
}

// Rows returns all distinct rows in deterministic (sorted) order.
func (r *Relation) Rows() []Row {
	out := make([]Row, 0, r.Len())
	r.Each(func(t Tuple, n int) bool {
		out = append(out, Row{Tuple: t, Count: n})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// Tuples returns all tuples expanded by multiplicity in deterministic order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.card)
	for _, rw := range r.Rows() {
		for i := 0; i < rw.Count; i++ {
			out = append(out, rw.Tuple)
		}
	}
	return out
}

// Clone returns a deep copy of the relation, resident join indexes
// included. On the blocks backend this is a handful of slice copies, which
// is what makes copy-on-write store versions cheap for large relations.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema, sem: r.sem, bk: r.bk, card: r.card}
	if r.tm != nil {
		c.tm = r.tm.Clone()
		return c
	}
	c.rows = make(map[string]*row, len(r.rows))
	for key, rw := range r.rows {
		c.rows[key] = &row{tuple: rw.tuple.Clone(), count: rw.count}
	}
	return c
}

// Clear removes all tuples, keeping schema and index definitions.
func (r *Relation) Clear() {
	if r.tm != nil {
		r.tm.Clear()
	} else {
		r.rows = make(map[string]*row)
	}
	r.card = 0
}

// Equal reports whether two relations have identical contents (same tuples
// with the same multiplicities). Schemas are compared by shape only; the
// backends need not match.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || r.Card() != o.Card() {
		return false
	}
	if r.tm != nil && o.tm != nil {
		eq := true
		r.tm.EachSlot(func(s int32, n int64) bool {
			if o.tm.GetFrom(r.tm, s) != n {
				eq = false
			}
			return eq
		})
		return eq
	}
	eq := true
	r.Each(func(t Tuple, n int) bool {
		if o.Count(t) != n {
			eq = false
		}
		return eq
	})
	return eq
}

// EqualAsSet reports whether two relations contain the same distinct
// tuples, ignoring multiplicities.
func (r *Relation) EqualAsSet(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	if r.tm != nil && o.tm != nil {
		eq := true
		r.tm.EachSlot(func(s int32, n int64) bool {
			if o.tm.GetFrom(r.tm, s) == 0 {
				eq = false
			}
			return eq
		})
		return eq
	}
	eq := true
	r.Each(func(t Tuple, n int) bool {
		if !o.Contains(t) {
			eq = false
		}
		return eq
	})
	return eq
}

// String renders the relation contents deterministically, one row per line.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s, %d distinct / %d total]\n", r.schema.String(), r.sem, r.Len(), r.Card())
	for _, rw := range r.Rows() {
		b.WriteString("  ")
		b.WriteString(rw.Tuple.String())
		if rw.Count != 1 {
			fmt.Fprintf(&b, " x%d", rw.Count)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MemoryFootprint estimates the resident bytes of the relation's tuple
// data. Used by the §5.3 space-vs-performance experiments; it is an
// estimate of payload size, not Go heap overhead. Both backends use the
// same accounting formula so annotation-advisor decisions do not depend
// on the physical representation.
func (r *Relation) MemoryFootprint() int {
	total := 0
	if r.tm != nil {
		var arr [128]byte
		r.tm.EachSlot(func(s int32, n int64) bool {
			b := r.tm.appendKeyAt(arr[:0], s)
			total += len(b) + 16
			for c := 0; c < r.tm.Arity(); c++ {
				total += r.tm.cols[c].payloadBytes(int(s))
			}
			return true
		})
		return total
	}
	for key, rw := range r.rows {
		total += len(key) + 16 // key string + row header estimate
		for _, v := range rw.tuple {
			total += 24
			if v.Kind() == KindString {
				total += len(v.AsString())
			}
		}
	}
	return total
}

// Distinct returns a new set-semantics relation with the distinct tuples
// of r, on the same backend.
func (r *Relation) Distinct() *Relation {
	out := NewWith(r.schema, Set, r.bk)
	if r.tm != nil {
		r.tm.EachSlot(func(s int32, n int64) bool {
			out.tm.AddFrom(r.tm, s, 1, ModeSet)
			return true
		})
		out.card = out.tm.Len()
		return out
	}
	for key, rw := range r.rows {
		out.rows[key] = &row{tuple: rw.tuple.Clone(), count: 1}
		out.card++
	}
	return out
}
