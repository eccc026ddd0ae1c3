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

// Relation is an in-memory relation instance with set or bag semantics and
// optional join indexes on attribute subsets (index.go). Its tuples live in
// a TupleMap: type-specialized column vectors plus a multiplicity column,
// hashed by canonical key encoding.
type Relation struct {
	schema *Schema
	sem    Semantics
	tm     *TupleMap
	card   int // total multiplicity
}

// New creates an empty relation over the given schema with the given
// semantics.
func New(schema *Schema, sem Semantics) *Relation {
	return &Relation{schema: schema, sem: sem, tm: NewTupleMap(schema.Arity())}
}

// NewSet creates an empty set-semantics relation.
func NewSet(schema *Schema) *Relation { return New(schema, Set) }

// NewBag creates an empty bag-semantics relation.
func NewBag(schema *Schema) *Relation { return New(schema, Bag) }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Semantics returns the relation's storage semantics.
func (r *Relation) Semantics() Semantics { return r.sem }

// Blockmap exposes the underlying columnar store. Intended for the
// vectorized kernels in internal/delta; mutating through it bypasses
// cardinality maintenance.
func (r *Relation) Blockmap() *TupleMap { return r.tm }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return r.tm.Len() }

// Card returns the total cardinality including multiplicities (equal to
// Len for set relations).
func (r *Relation) Card() int { return r.card }

// Count returns the multiplicity of t (0 if absent).
func (r *Relation) Count(t Tuple) int { return int(r.tm.Get(t)) }

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
// change and the new multiplicity. The path builds no key string and
// performs zero per-tuple allocations.
func (r *Relation) Add(t Tuple, n int) (applied, newCount int) {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("relation: arity mismatch inserting into %s: tuple %s", r.schema.Name(), t))
	}
	a, nc := r.tm.Add(t, int64(n), r.addMode())
	r.card += int(a)
	return int(a), int(nc)
}

// SetCount forces the multiplicity of t to n (>= 0).
func (r *Relation) SetCount(t Tuple, n int) {
	cur := r.Count(t)
	r.Add(t, n-cur)
}

// Each iterates over distinct rows; fn receives each tuple and its
// multiplicity, returning false to stop early. The iteration order is
// unspecified. The callback must not mutate the relation. Tuples handed
// out are safe to retain.
func (r *Relation) Each(fn func(t Tuple, count int) bool) {
	r.tm.Each(func(t Tuple, n int64) bool { return fn(t, int(n)) })
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

// Clone returns a deep copy of the relation, resident join indexes
// included. This is a handful of slice copies, which is what makes
// copy-on-write store versions cheap for large relations.
func (r *Relation) Clone() *Relation {
	return &Relation{schema: r.schema, sem: r.sem, tm: r.tm.Clone(), card: r.card}
}

// Clear removes all tuples, keeping schema and index definitions.
func (r *Relation) Clear() {
	r.tm.Clear()
	r.card = 0
}

// Equal reports whether two relations have identical contents (same tuples
// with the same multiplicities). Schemas are compared by shape only.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || r.Card() != o.Card() {
		return false
	}
	eq := true
	r.tm.EachSlot(func(s int32, n int64) bool {
		eq = o.tm.GetFrom(r.tm, s) == n
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
	eq := true
	r.tm.EachSlot(func(s int32, _ int64) bool {
		eq = o.tm.GetFrom(r.tm, s) != 0
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

// MemoryFootprint is the §5.3 space accounting model the annotation
// advisor and the space-vs-performance experiments read: per distinct
// tuple, its canonical key length plus a 16-byte row header, and per value
// 24 bytes plus string bytes. It is a fixed model, not the resident bytes
// of the columnar store (which holds unboxed ints and floats in 8), so
// advisor decisions do not move when the representation does.
func (r *Relation) MemoryFootprint() int {
	total := 0
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

// Distinct returns a new set-semantics relation with the distinct tuples
// of r.
func (r *Relation) Distinct() *Relation {
	out := New(r.schema, Set)
	r.tm.EachSlot(func(s int32, n int64) bool {
		out.tm.AddFrom(r.tm, s, 1, ModeSet)
		return true
	})
	out.card = out.tm.Len()
	return out
}

// addMode maps the relation's semantics to TupleMap count arithmetic.
func (r *Relation) addMode() AddMode {
	if r.sem == Set {
		return ModeSet
	}
	return ModeBag
}

// AddSlot adds n occurrences of src's slot tuple into r under r's
// semantics, maintaining cardinality (and, inside the map, any resident
// join index), and returns the applied change. This is the slot-wise apply
// primitive deltas use.
func (r *Relation) AddSlot(src *TupleMap, slot int32, n int64) int64 {
	a, _ := r.tm.AddFrom(src, slot, n, r.addMode())
	r.card += int(a)
	return a
}

// CopyInto adds every row of src into dst, accumulating multiplicities
// under dst's semantics. The copy is vectorized: stored hashes are reused
// and values move column-to-column without materializing tuples or key
// strings. Arities must match.
func CopyInto(dst, src *Relation) {
	mode := dst.addMode()
	src.tm.EachSlot(func(s int32, n int64) bool {
		a, _ := dst.tm.AddFrom(src.tm, s, n, mode)
		dst.card += int(a)
		return true
	})
}

// Predicate is a compiled selection condition (algebra.Compile builds
// them). Bind specializes it to m's current column representations and
// returns a test over m's live slots, valid until m is next mutated; Eval
// tests a materialized tuple. Both give the same answer for the same row.
type Predicate interface {
	Bind(m *TupleMap) func(slot int32) (bool, error)
	Eval(t Tuple) (bool, error)
}

// ProjectSelectInto evaluates a select-project block from src into dst:
// rows passing pred (nil selects everything) are projected onto positions
// (nil keeps every column) and added to dst. No tuple is built: pred reads
// src's columns in place and passing rows move column-to-column. The first
// error pred reports stops the scan and is returned.
func ProjectSelectInto(dst, src *Relation, positions []int, pred Predicate) error {
	var test func(int32) (bool, error)
	if pred != nil {
		test = pred.Bind(src.tm)
	}
	mode := dst.addMode()
	for s, n := range src.tm.counts {
		if n == 0 {
			continue
		}
		if test != nil {
			ok, err := test(int32(s))
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		var a int64
		if positions == nil {
			a, _ = dst.tm.AddFrom(src.tm, int32(s), n, mode)
		} else {
			a, _ = dst.tm.AddFromProjected(src.tm, int32(s), positions, n, mode)
		}
		dst.card += int(a)
	}
	return nil
}
