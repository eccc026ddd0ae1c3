package relation

// TupleMap is the columnar tuple store behind every Relation: a
// signed-count map from tuples to int64 counts laid out as type
// specialized column vectors (one per attribute) plus a multiplicity
// column, indexed by an open-addressed hash table over the tuples'
// canonical key encodings.
//
// It serves both relations (counts clamped to the set/bag range by the
// caller-supplied AddMode) and deltas (signed counts), which is what lets
// the smash, apply, and select-project kernels move data column-to-column
// between deltas and stores without materializing a single tuple or key
// string.
//
// Concurrency: mutation is single-writer, like every relation in this
// codebase. All read paths (Get, Each, EachSlot, value accessors) are
// safe for any number of concurrent readers once mutation stops — they
// allocate nothing shared and mutate nothing, which is what published
// store versions require.
type TupleMap struct {
	arity  int
	cols   []column
	counts []int64
	hashes []uint64
	// Open addressing: table[i] == 0 means empty, == tombstone means a
	// deleted entry (probes continue), otherwise slot+1. Kept at a load
	// factor below 3/4 including tombstones; cloning is a straight slice
	// copy, which is the reason this is not a Go map.
	table []int32
	mask  uint64
	live  int // slots with a nonzero count
	used  int // table entries occupied, tombstones included
	free  []int32
	// Resident join indexes (index.go), maintained in adjust on every
	// 0↔positive transition and copied by Clone.
	indexes []*JoinIndex
}

const tombstone = int32(-1)

// AddMode selects the count arithmetic for TupleMap.Add and the
// vectorized AddFrom variants.
type AddMode uint8

const (
	// ModeSigned leaves counts unclamped (delta semantics).
	ModeSigned AddMode = iota
	// ModeBag clamps counts at zero from below (bag relation semantics).
	ModeBag
	// ModeSet clamps counts to {0, 1} (set relation semantics).
	ModeSet
	// ModeAssign sets the count to n outright (override-smash semantics).
	ModeAssign
)

// NewTupleMap creates an empty map for tuples of the given arity.
func NewTupleMap(arity int) *TupleMap {
	return &TupleMap{
		arity: arity,
		cols:  make([]column, arity),
		table: make([]int32, 8),
		mask:  7,
	}
}

// Arity returns the tuple width.
func (m *TupleMap) Arity() int { return m.arity }

// Len returns the number of tuples with a nonzero count.
func (m *TupleMap) Len() int { return m.live }

// Slots returns the slot-space upper bound for EachSlot-style iteration:
// every live slot index is < Slots(), dead slots have count zero.
func (m *TupleMap) Slots() int { return len(m.counts) }

// CountAt returns the signed count at a slot (zero for dead slots).
func (m *TupleMap) CountAt(slot int32) int64 { return m.counts[slot] }

// HashAt returns the canonical-key hash of the tuple at a live slot.
func (m *TupleMap) HashAt(slot int32) uint64 { return m.hashes[slot] }

// ValueAt materializes one attribute of the tuple at a live slot.
func (m *TupleMap) ValueAt(slot int32, col int) Value {
	return m.cols[col].valueAt(int(slot))
}

// IntColumn returns column col's vector, indexed by slot, when the column
// holds unboxed ints (dead slots hold stale values). Read-only.
func (m *TupleMap) IntColumn(col int) ([]int64, bool) {
	c := &m.cols[col]
	return c.ints, c.tag == colInt
}

// FloatColumn is IntColumn for a column of unboxed floats.
func (m *TupleMap) FloatColumn(col int) ([]float64, bool) {
	c := &m.cols[col]
	return c.floats, c.tag == colFloat
}

// AppendTupleAt appends the tuple at a live slot to dst and returns it —
// the materialization primitive Each builds on.
func (m *TupleMap) AppendTupleAt(dst Tuple, slot int32) Tuple {
	for c := range m.cols {
		dst = append(dst, m.cols[c].valueAt(int(slot)))
	}
	return dst
}

// hashBytes is FNV-1a over the canonical key encoding.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// HashTuple computes the canonical-key hash of a tuple without retaining
// any allocation: the encoding is built in a stack buffer (heap spill
// only for tuples encoding past 128 bytes, where correctness still
// holds).
func HashTuple(t Tuple) uint64 {
	var arr [128]byte
	b := arr[:0]
	for _, v := range t {
		b = v.appendKey(b)
		b = append(b, '|')
	}
	return hashBytes(b)
}

// hashSlotProjected hashes the projection of src's slot onto positions,
// matching HashTuple of the materialized projected tuple.
func hashSlotProjected(src *TupleMap, slot int32, positions []int) uint64 {
	var arr [128]byte
	b := arr[:0]
	for _, p := range positions {
		b = src.cols[p].appendKeyAt(b, int(slot))
		b = append(b, '|')
	}
	return hashBytes(b)
}

// hashSlot hashes src's full-width slot; equal to the stored hash, kept
// as a helper for callers that do not have it at hand.
func hashSlot(src *TupleMap, slot int32) uint64 { return src.hashes[slot] }

// findWith probes for a slot with hash h satisfying eq. It returns the
// slot (or -1), the table index where the probe ended (the match, or the
// insertion point), and the first tombstone passed (-1 if none) for
// insert reuse.
func (m *TupleMap) findWith(h uint64, eq func(slot int32) bool) (slot int32, tableIdx int, tombIdx int) {
	tombIdx = -1
	i := h & m.mask
	for {
		switch e := m.table[i]; {
		case e == 0:
			return -1, int(i), tombIdx
		case e == tombstone:
			if tombIdx < 0 {
				tombIdx = int(i)
			}
		default:
			s := e - 1
			if m.hashes[s] == h && eq(s) {
				return s, int(i), tombIdx
			}
		}
		i = (i + 1) & m.mask
	}
}

// equalTuple is the eq predicate for probe tuples.
func (m *TupleMap) equalTuple(slot int32, t Tuple) bool {
	for c := range m.cols {
		if !m.cols[c].keyEqualAt(int(slot), t[c]) {
			return false
		}
	}
	return true
}

// Get returns the signed count of t (zero if absent). Allocation free for
// tuples whose canonical encoding fits the stack buffer; safe for
// concurrent readers.
func (m *TupleMap) Get(t Tuple) int64 {
	if m.live == 0 {
		return 0
	}
	h := HashTuple(t)
	slot, _, _ := m.findWith(h, func(s int32) bool { return m.equalTuple(s, t) })
	if slot < 0 {
		return 0
	}
	return m.counts[slot]
}

// target applies the mode arithmetic.
func applyMode(old, n int64, mode AddMode) int64 {
	if mode == ModeAssign {
		return n
	}
	t := old + n
	if mode != ModeSigned && t < 0 {
		t = 0
	}
	if mode == ModeSet && t > 1 {
		t = 1
	}
	return t
}

// Add adjusts the count of t by n under the given mode, returning the
// actual applied change and the new count. Entries reaching zero are
// removed.
func (m *TupleMap) Add(t Tuple, n int64, mode AddMode) (applied, newCount int64) {
	h := HashTuple(t)
	slot, tableIdx, tombIdx := m.findWith(h, func(s int32) bool { return m.equalTuple(s, t) })
	return m.adjust(slot, tableIdx, tombIdx, h, n, mode, func(s int32) {
		for c := range m.cols {
			m.cols[c].set(int(s), t[c])
		}
	})
}

// AddFrom adds n occurrences of src's slot tuple under mode — the
// vectorized path: the stored hash is reused and values copy
// column-to-column without materializing the tuple.
func (m *TupleMap) AddFrom(src *TupleMap, srcSlot int32, n int64, mode AddMode) (applied, newCount int64) {
	h := src.hashes[srcSlot]
	slot, tableIdx, tombIdx := m.findWith(h, func(s int32) bool {
		for c := range m.cols {
			if !m.cols[c].colEqualAt(int(s), &src.cols[c], int(srcSlot)) {
				return false
			}
		}
		return true
	})
	return m.adjust(slot, tableIdx, tombIdx, h, n, mode, func(s int32) {
		for c := range m.cols {
			m.cols[c].setFromCol(int(s), &src.cols[c], int(srcSlot))
		}
	})
}

// AddFromProjected adds n occurrences of the projection of src's slot
// onto positions (len(positions) must equal m.arity). The projected hash
// is recomputed column-wise; values still copy column-to-column.
func (m *TupleMap) AddFromProjected(src *TupleMap, srcSlot int32, positions []int, n int64, mode AddMode) (applied, newCount int64) {
	h := hashSlotProjected(src, srcSlot, positions)
	slot, tableIdx, tombIdx := m.findWith(h, func(s int32) bool {
		for c := range m.cols {
			if !m.cols[c].colEqualAt(int(s), &src.cols[positions[c]], int(srcSlot)) {
				return false
			}
		}
		return true
	})
	return m.adjust(slot, tableIdx, tombIdx, h, n, mode, func(s int32) {
		for c := range m.cols {
			m.cols[c].setFromCol(int(s), &src.cols[positions[c]], int(srcSlot))
		}
	})
}

// adjust performs the count update found by a probe: slot >= 0 names an
// existing entry (tableIdx its table position), slot < 0 means absent
// with tableIdx the probe's empty stop and tombIdx a reusable tombstone.
// write stores the tuple's values into a newly reserved slot.
func (m *TupleMap) adjust(slot int32, tableIdx, tombIdx int, h uint64, n int64, mode AddMode, write func(s int32)) (applied, newCount int64) {
	var old int64
	if slot >= 0 {
		old = m.counts[slot]
	}
	target := applyMode(old, n, mode)
	applied = target - old
	if applied == 0 {
		return 0, old
	}
	if slot >= 0 {
		if target == 0 {
			m.counts[slot] = 0
			m.free = append(m.free, slot)
			m.table[tableIdx] = tombstone
			m.live--
			for _, ix := range m.indexes {
				ix.remove(slot)
			}
			return applied, 0
		}
		m.counts[slot] = target
		return applied, target
	}
	// New entry.
	s := m.reserveSlot()
	write(s)
	m.counts[s] = target
	m.hashes[s] = h
	if tombIdx >= 0 {
		m.table[tombIdx] = s + 1
	} else {
		m.table[tableIdx] = s + 1
		m.used++
	}
	m.live++
	if uint64(m.used)*4 >= (m.mask+1)*3 {
		m.rehash()
	}
	for _, ix := range m.indexes {
		ix.insert(s)
	}
	return applied, target
}

// reserveSlot returns a writable slot index: a freed one if available,
// otherwise freshly appended across every column vector.
func (m *TupleMap) reserveSlot() int32 {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		return s
	}
	for c := range m.cols {
		m.cols[c].grow()
	}
	m.counts = append(m.counts, 0)
	m.hashes = append(m.hashes, 0)
	return int32(len(m.counts) - 1)
}

// rehash rebuilds the table at double size, dropping tombstones.
func (m *TupleMap) rehash() {
	size := (m.mask + 1) * 2
	// Keep doubling while the live entries alone would exceed half the
	// new size (pathological tombstone churn).
	for uint64(m.live)*2 >= size {
		size *= 2
	}
	m.table = make([]int32, size)
	m.mask = size - 1
	m.used = 0
	for s, n := range m.counts {
		if n == 0 {
			continue
		}
		i := m.hashes[s] & m.mask
		for m.table[i] != 0 {
			i = (i + 1) & m.mask
		}
		m.table[i] = int32(s) + 1
		m.used++
	}
}

// EachSlot iterates the live slots (slot index plus signed count) in slot
// order — the deterministic, allocation-free iteration the vectorized
// kernels use. Return false to stop.
func (m *TupleMap) EachSlot(fn func(slot int32, n int64) bool) {
	for s, n := range m.counts {
		if n == 0 {
			continue
		}
		if !fn(int32(s), n) {
			return
		}
	}
}

// Each iterates live entries, materializing a fresh tuple per row (safe
// to retain). Return false to stop.
func (m *TupleMap) Each(fn func(t Tuple, n int64) bool) {
	for s, n := range m.counts {
		if n == 0 {
			continue
		}
		t := make(Tuple, 0, m.arity)
		t = m.AppendTupleAt(t, int32(s))
		if !fn(t, n) {
			return
		}
	}
}

// Clone deep-copies the map. Column vectors, the count/hash vectors, the
// open-addressed table and the join indexes copy as whole slices — the
// structural reason copy-on-write cloning of large stores is cheap.
func (m *TupleMap) Clone() *TupleMap {
	out := &TupleMap{
		arity:  m.arity,
		cols:   make([]column, m.arity),
		counts: append([]int64(nil), m.counts...),
		hashes: append([]uint64(nil), m.hashes...),
		table:  append([]int32(nil), m.table...),
		mask:   m.mask,
		live:   m.live,
		used:   m.used,
	}
	if len(m.free) > 0 {
		out.free = append([]int32(nil), m.free...)
	}
	for c := range m.cols {
		out.cols[c] = m.cols[c].clone()
	}
	for _, ix := range m.indexes {
		out.indexes = append(out.indexes, ix.clone(out))
	}
	return out
}

// Clear removes every entry, retaining capacity and index definitions.
// Columns forget their representation: the next value stored picks it
// afresh.
func (m *TupleMap) Clear() {
	for i := range m.table {
		m.table[i] = 0
	}
	m.counts = m.counts[:0]
	m.hashes = m.hashes[:0]
	m.free = m.free[:0]
	m.live, m.used = 0, 0
	for c := range m.cols {
		cc := &m.cols[c]
		cc.tag = colEmpty
		cc.ints = cc.ints[:0]
		cc.floats = cc.floats[:0]
		cc.vals = cc.vals[:0]
	}
	for _, ix := range m.indexes {
		ix.clear()
	}
}

// GetFrom returns the count in m of src's slot tuple — the vectorized
// membership probe (used by Distinct-style transitions).
func (m *TupleMap) GetFrom(src *TupleMap, srcSlot int32) int64 {
	if m.live == 0 {
		return 0
	}
	h := src.hashes[srcSlot]
	slot, _, _ := m.findWith(h, func(s int32) bool {
		for c := range m.cols {
			if !m.cols[c].colEqualAt(int(s), &src.cols[c], int(srcSlot)) {
				return false
			}
		}
		return true
	})
	if slot < 0 {
		return 0
	}
	return m.counts[slot]
}

// appendKeyAt appends the canonical key encoding of the full tuple at a
// live slot (the '|'-separated form Tuple.Key produces).
func (m *TupleMap) appendKeyAt(b []byte, slot int32) []byte {
	for c := range m.cols {
		b = m.cols[c].appendKeyAt(b, int(slot))
		b = append(b, '|')
	}
	return b
}
