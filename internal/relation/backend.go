package relation

import (
	"fmt"
	"sync/atomic"
)

// Backend selects the physical representation of relations and deltas.
//
// Blocks is the columnar data plane: type-specialized column vectors with
// a multiplicity column, hashed by canonical key encoding (TupleMap).
// Rows is the original map[string]*row representation, kept alive behind
// the same API as a differential oracle and operator fallback.
type Backend uint8

const (
	// Blocks is the columnar backend (default).
	Blocks Backend = iota
	// Rows is the row-oriented oracle backend.
	Rows
)

// String returns "blocks" or "rows".
func (b Backend) String() string {
	if b == Rows {
		return "rows"
	}
	return "blocks"
}

// ParseBackend parses a backend name as used by the -relation-backend flag.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "blocks":
		return Blocks, nil
	case "rows":
		return Rows, nil
	}
	return Blocks, fmt.Errorf("relation: unknown backend %q (want rows or blocks)", s)
}

// defaultBackend is the process-wide backend for newly created relations.
// Stored atomically so tests and the serve-mediator flag can flip it
// without racing concurrent relation construction.
var defaultBackend atomic.Uint32

// SetDefaultBackend sets the backend used by New/NewSet/NewBag.
func SetDefaultBackend(b Backend) { defaultBackend.Store(uint32(b)) }

// DefaultBackend returns the backend used by New/NewSet/NewBag.
func DefaultBackend() Backend { return Backend(defaultBackend.Load()) }

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
// primitive block-backed deltas use; it falls back to tuple
// materialization when r is row-backed.
func (r *Relation) AddSlot(src *TupleMap, slot int32, n int64) int64 {
	if r.tm == nil {
		t := make(Tuple, 0, src.Arity())
		t = src.AppendTupleAt(t, slot)
		a, _ := r.Add(t, int(n))
		return int64(a)
	}
	a, _ := r.tm.AddFrom(src, slot, n, r.addMode())
	r.card += int(a)
	return a
}

// CopyInto adds every row of src into dst, accumulating multiplicities
// under dst's semantics. When both relations are block-backed the copy is
// vectorized: stored hashes are reused and values move column-to-column
// without materializing tuples or key strings. Arities must match.
func CopyInto(dst, src *Relation) {
	if dst.tm != nil && src.tm != nil {
		mode := dst.addMode()
		src.tm.EachSlot(func(s int32, n int64) bool {
			a, _ := dst.tm.AddFrom(src.tm, s, n, mode)
			dst.card += int(a)
			return true
		})
		return
	}
	src.Each(func(t Tuple, n int) bool {
		dst.Add(t, n)
		return true
	})
}

// ProjectSelectInto evaluates a select-project block from src into dst:
// rows passing pred (nil selects everything) are projected onto positions
// and added to dst. On the vectorized path the tuple handed to pred is a
// scratch buffer reused between calls — predicates must not retain it.
// len(positions) must equal dst's arity.
func ProjectSelectInto(dst, src *Relation, positions []int, pred func(t Tuple) (bool, error)) error {
	if dst.tm != nil && src.tm != nil {
		mode := dst.addMode()
		var scratch Tuple
		var err error
		src.tm.EachSlot(func(s int32, n int64) bool {
			if pred != nil {
				scratch = src.tm.AppendTupleAt(scratch[:0], s)
				ok, e := pred(scratch)
				if e != nil {
					err = e
					return false
				}
				if !ok {
					return true
				}
			}
			a, _ := dst.tm.AddFromProjected(src.tm, s, positions, n, mode)
			dst.card += int(a)
			return true
		})
		return err
	}
	var err error
	src.Each(func(t Tuple, n int) bool {
		if pred != nil {
			ok, e := pred(t)
			if e != nil {
				err = e
				return false
			}
			if !ok {
				return true
			}
		}
		dst.Add(t.Project(positions), n)
		return true
	})
	return err
}
