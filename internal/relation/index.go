package relation

import (
	"fmt"
	"slices"
)

// JoinIndex is a columnar secondary index over a column subset of a
// TupleMap: the canonical-key hash of the indexed columns selects a
// bucket, and each bucket threads its live slots into a chain held in two
// int32 vectors parallel to the slot space. It is the structure §5.3's
// "whether indices can be used" asks for: a rule firing probes it with
// the delta's join key and touches only the matching sibling rows.
//
// A resident index (TupleMap.EnsureIndex) is maintained by the map on
// every 0↔positive count transition and copied by Clone as three slice
// copies, so it survives copy-on-write store versions. A transient index
// (NewJoinIndex) has the same layout but is private to its builder — the
// form a firing uses when the operand carries no resident index.
//
// Concurrency: First/Next are read-only and allocation free; any number
// of goroutines may probe an index whose map is no longer mutated.
type JoinIndex struct {
	m    *TupleMap
	cols []int
	// heads[b] is the first slot+1 of bucket b (0 = empty); next/prev link
	// the bucket's slots (slot+1, 0 = end) so removal needs no chain walk.
	heads []int32
	next  []int32
	prev  []int32
	mask  uint64
}

// newJoinIndex builds an index over cols from m's live slots.
func newJoinIndex(m *TupleMap, cols []int) *JoinIndex {
	ix := &JoinIndex{m: m, cols: append([]int(nil), cols...)}
	ix.rebuild(8)
	return ix
}

// rebuild re-threads every live slot into a bucket array of at least
// minBuckets, doubled until the live entries fit at load factor one.
func (ix *JoinIndex) rebuild(minBuckets int) {
	size := minBuckets
	for size < ix.m.live {
		size *= 2
	}
	ix.heads = make([]int32, size)
	ix.mask = uint64(size - 1)
	ix.next = make([]int32, len(ix.m.counts))
	ix.prev = make([]int32, len(ix.m.counts))
	for s, n := range ix.m.counts {
		if n != 0 {
			ix.link(int32(s))
		}
	}
}

// link pushes a live slot onto the front of its bucket's chain.
func (ix *JoinIndex) link(s int32) {
	b := hashSlotProjected(ix.m, s, ix.cols) & ix.mask
	head := ix.heads[b]
	ix.next[s], ix.prev[s] = head, 0
	if head != 0 {
		ix.prev[head-1] = s + 1
	}
	ix.heads[b] = s + 1
}

// insert indexes a slot that just became live, growing the bucket array
// when the live count outruns it.
func (ix *JoinIndex) insert(s int32) {
	for int(s) >= len(ix.next) {
		ix.next = append(ix.next, 0)
		ix.prev = append(ix.prev, 0)
	}
	if ix.m.live > len(ix.heads) {
		ix.rebuild(len(ix.heads) * 2) // threads s along with the rest
		return
	}
	ix.link(s)
}

// remove unlinks a slot that just died. Its column values are still in
// place (slots are recycled only by a later insert), so the bucket is
// recomputed rather than stored.
func (ix *JoinIndex) remove(s int32) {
	nx, pv := ix.next[s], ix.prev[s]
	if pv != 0 {
		ix.next[pv-1] = nx
	} else {
		ix.heads[hashSlotProjected(ix.m, s, ix.cols)&ix.mask] = nx
	}
	if nx != 0 {
		ix.prev[nx-1] = pv
	}
}

// clone copies the index for a cloned map.
func (ix *JoinIndex) clone(m *TupleMap) *JoinIndex {
	return &JoinIndex{
		m:     m,
		cols:  ix.cols,
		heads: append([]int32(nil), ix.heads...),
		next:  append([]int32(nil), ix.next...),
		prev:  append([]int32(nil), ix.prev...),
		mask:  ix.mask,
	}
}

// clear empties the index, retaining its definition and capacity.
func (ix *JoinIndex) clear() {
	for i := range ix.heads {
		ix.heads[i] = 0
	}
	ix.next, ix.prev = ix.next[:0], ix.prev[:0]
}

// Map returns the indexed tuple store; slots handed out by First and Next
// are read through it.
func (ix *JoinIndex) Map() *TupleMap { return ix.m }

// First returns the first live slot whose indexed columns equal key under
// canonical-key equality (the equivalence hash joins use), or -1. key
// must have one value per indexed column.
func (ix *JoinIndex) First(key []Value) int32 {
	return ix.match(ix.heads[HashTuple(key)&ix.mask], key)
}

// Next continues a First/Next walk past slot.
func (ix *JoinIndex) Next(slot int32, key []Value) int32 {
	return ix.match(ix.next[slot], key)
}

// match walks a chain from entry e (slot+1) to the next slot equal to key.
func (ix *JoinIndex) match(e int32, key []Value) int32 {
	for ; e != 0; e = ix.next[e-1] {
		if ix.keyEqual(e-1, key) {
			return e - 1
		}
	}
	return -1
}

func (ix *JoinIndex) keyEqual(s int32, key []Value) bool {
	for i, c := range ix.cols {
		if !ix.m.cols[c].keyEqualAt(int(s), key[i]) {
			return false
		}
	}
	return true
}

// check verifies the index against a brute-force scan: every live slot is
// reachable through First/Next on its own key exactly once, and no chain
// holds a dead or foreign slot.
func (ix *JoinIndex) check() error {
	reached := 0
	for b, e := range ix.heads {
		var pv int32
		for ; e != 0; pv, e = e, ix.next[e-1] {
			s := e - 1
			if ix.m.counts[s] == 0 {
				return fmt.Errorf("relation: index %v chains dead slot %d", ix.cols, s)
			}
			if got := hashSlotProjected(ix.m, s, ix.cols) & ix.mask; got != uint64(b) {
				return fmt.Errorf("relation: index %v holds slot %d in bucket %d, want %d", ix.cols, s, b, got)
			}
			if ix.prev[s] != pv {
				return fmt.Errorf("relation: index %v slot %d has a broken back link", ix.cols, s)
			}
			reached++
		}
	}
	if reached != ix.m.live {
		return fmt.Errorf("relation: index %v reaches %d slots, map holds %d", ix.cols, reached, ix.m.live)
	}
	// The chains are proper lists over exactly the live slots; now every
	// distinct key must probe to as many rows as a scan counts.
	want := make(map[string]int)
	ix.m.EachSlot(func(s int32, _ int64) bool {
		want[ix.keyAt(s).Key()]++
		return true
	})
	var err error
	ix.m.EachSlot(func(s int32, _ int64) bool {
		key := ix.keyAt(s)
		n, ok := want[key.Key()]
		if !ok {
			return true // key already probed
		}
		delete(want, key.Key())
		got := 0
		for p := ix.First(key); p >= 0; p = ix.Next(p, key) {
			got++
		}
		if got != n {
			err = fmt.Errorf("relation: index %v probe %s finds %d rows, scan finds %d", ix.cols, key, got, n)
		}
		return err == nil
	})
	return err
}

// keyAt materializes the indexed columns of a live slot.
func (ix *JoinIndex) keyAt(s int32) Tuple {
	key := make(Tuple, len(ix.cols))
	for i, c := range ix.cols {
		key[i] = ix.m.cols[c].valueAt(int(s))
	}
	return key
}

// EnsureIndex declares a resident index over cols, building it from the
// current contents; a no-op when one already exists. From then on the map
// maintains it through every mutation, Clone and Clear.
func (m *TupleMap) EnsureIndex(cols []int) {
	if m.IndexOn(cols) == nil {
		m.indexes = append(m.indexes, newJoinIndex(m, cols))
	}
}

// IndexOn returns the resident index over exactly cols (in that order),
// or nil.
func (m *TupleMap) IndexOn(cols []int) *JoinIndex {
	for _, ix := range m.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// EnsureIndex declares a resident join index over the named attributes
// (see TupleMap.EnsureIndex).
func (r *Relation) EnsureIndex(attrs ...string) error {
	positions, err := r.schema.Positions(attrs)
	if err != nil {
		return err
	}
	r.tm.EnsureIndex(positions)
	return nil
}

// IndexOn returns the resident index over exactly the given attribute
// positions, or nil.
func (r *Relation) IndexOn(positions []int) *JoinIndex { return r.tm.IndexOn(positions) }

// IndexedAttrs lists the attribute sets of the resident indexes, in
// declaration order.
func (r *Relation) IndexedAttrs() [][]string {
	names := r.schema.AttrNames()
	out := make([][]string, len(r.tm.indexes))
	for i, ix := range r.tm.indexes {
		for _, c := range ix.cols {
			out[i] = append(out[i], names[c])
		}
	}
	return out
}

// CheckIndexes verifies every resident index against a brute-force scan
// (quadratic; for tests and invariant checks at quiescence).
func (r *Relation) CheckIndexes() error {
	for _, ix := range r.tm.indexes {
		if err := ix.check(); err != nil {
			return fmt.Errorf("%s: %w", r.schema.Name(), err)
		}
	}
	return nil
}

// NewJoinIndex builds a transient index over r's rows on the given
// attribute positions — what a join does when r has no resident index
// there. It reads every row once and leaves r untouched, so it is safe on
// relations shared with concurrent readers.
func NewJoinIndex(r *Relation, positions []int) *JoinIndex {
	return newJoinIndex(r.tm, positions)
}
