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
// (nil keeps every column) and added to dst. When both relations are
// block-backed no tuple is built: pred reads src's columns in place and
// passing rows move column-to-column. The first error pred reports stops
// the scan and is returned.
func ProjectSelectInto(dst, src *Relation, positions []int, pred Predicate) error {
	if dst.tm != nil && src.tm != nil {
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
	var err error
	src.Each(func(t Tuple, n int) bool {
		if pred != nil {
			ok, e := pred.Eval(t)
			if e != nil {
				err = e
				return false
			}
			if !ok {
				return true
			}
		}
		if positions != nil {
			t = t.Project(positions)
		}
		dst.Add(t, n)
		return true
	})
	return err
}
