package main

import (
	"math/rand"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// The paper's running example: db1.R(r1,r2,r3,r4) key r1, db2.S(s1,s2,s3)
// key s1, T = π_{r1,r3,s1,s2} σ_{r4=100 ∧ s3<50} (R ⋈_{r2=s1} S).
const (
	viewT  = `SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`
	viewVS = `SELECT s1, s2 FROM S WHERE s3 < 50`
	// Tier views for tier-fanin.
	viewVRp  = `SELECT r1, r2, r3 FROM R WHERE r4 = 100`
	viewVSp  = `SELECT s1, s2 FROM S WHERE s3 < 50`
	viewTTop = `SELECT r1, r3, s1, s2 FROM VRp JOIN VSp ON r2 = s1`

	// markerBase separates marker values from ordinary r3/s2 values: commit
	// id c writes markerBase+c into r3 (ΔR) or s2 (ΔS) of one tuple that is
	// guaranteed to reach T (and VS, for ΔS).
	markerBase = int64(1_000_000_000)
)

var (
	schemaR = relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}, {Name: "r4", Type: relation.KindInt}}, "r1")
	schemaS = relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")
)

type rRow struct{ r1, r2, r3, r4 int64 }
type sRow struct{ s1, s2, s3 int64 }

func (r rRow) tuple() relation.Tuple { return relation.T(r.r1, r.r2, r.r3, r.r4) }
func (s sRow) tuple() relation.Tuple { return relation.T(s.s1, s.s2, s.s3) }

// dataset is the seeded initial state of both sources.
//
// The first keys of both relations are reserved for markers. S keys
// 1..carriers carry ΔS markers and are joined only by the anchor R rows
// 1..carriers, which never change, so one ΔS marker yields exactly one T
// insertion. S keys carriers+1..2·carriers never change and are joined by ΔR
// marker rows, so a ΔR marker yields exactly one T insertion and a later ΔS
// never re-emits it. R keys carriers+1..2·carriers are the rows the churn
// workload re-marks. Marker slots are used round-robin; carriers exceeds the
// longest announcement queue the benchmark allows, so a marker and its
// overwrite never meet in one transaction and cancel.
type dataset struct {
	rows     []rRow // by key order, r1 = index+1
	srow     []sRow // s1 = index+1
	carriers int
	reserved int // 2·carriers
}

func genDataset(seed int64, nR, nS int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{rows: make([]rRow, nR), srow: make([]sRow, nS), carriers: nS / 5}
	ds.reserved = 2 * ds.carriers
	reserved := ds.reserved
	for i := range ds.srow {
		s := sRow{s1: int64(i + 1), s2: rng.Int63n(markerBase), s3: rng.Int63n(100)}
		if i < reserved {
			s.s3 = 0
		}
		ds.srow[i] = s
	}
	for i := range ds.rows {
		r := rRow{r1: int64(i + 1), r3: rng.Int63n(markerBase), r4: 50}
		if rng.Intn(2) == 0 {
			r.r4 = 100
		}
		r.r2 = int64(reserved+1) + rng.Int63n(int64(nS-reserved))
		if i < reserved {
			// Anchor of carrier S key i+1 (i < carriers), or churn marker
			// row joined to the never-changing S key i+1.
			r.r2, r.r4 = int64(i+1), 100
		}
		ds.rows[i] = r
	}
	return ds
}

func (ds *dataset) relR() *relation.Relation {
	rel := relation.NewSet(schemaR)
	for _, r := range ds.rows {
		rel.Insert(r.tuple())
	}
	return rel
}

func (ds *dataset) relS() *relation.Relation {
	rel := relation.NewSet(schemaS)
	for _, s := range ds.srow {
		rel.Insert(s.tuple())
	}
	return rel
}

// spareKeys is how many R keys beyond |R| exist; they start unused.
const spareKeys = 1024

// fifo is a slice-backed queue that drops its consumed prefix now and then.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head > 1<<14 && q.head > len(q.buf)/2 {
		q.buf = append([]T(nil), q.buf[q.head:]...)
		q.head = 0
	}
	return v
}

// evenly reports whether item i belongs to the share frac of a sequence,
// spreading that share at even distances (every 20th item for 0.05) so that
// any window holds the same mix; the seed varies the values, not the mix.
func evenly(i int64, frac float64) bool {
	return int64(float64(i+1)*frac) > int64(float64(i)*frac)
}

// commit is one generated source transaction.
type commit struct {
	id  int64
	src int // 0 = db1 (ΔR), 1 = db2 (ΔS)
	d   *delta.Delta
}

// commitGen produces the workload's commit sequence. It mirrors both
// relations so every delta is non-redundant (deletes hit live tuples,
// inserts never duplicate a key), and keeps both relations at their
// initial size: every insert is paired with a delete of an earlier insert.
// The sequence depends only on the seed, never on timing. Not safe for
// concurrent use.
type commitGen struct {
	w   *workload
	ds  *dataset
	rng *rand.Rand
	id  int64
	// Commits generated so far per source; they pick the marker slot.
	nR, nS int

	// ΔR, insert/delete style: live non-reserved rows in insertion order,
	// and the keys currently unused. Deleted keys are reused, so the key
	// universe stays [1, |R|+spareKeys] and range queries over it see the
	// same density throughout the run.
	live fifo[rRow]
	free fifo[int64]
	// ΔR, update style, and every ΔS: current contents by key.
	rows []rRow
	srow []sRow
}

func newCommitGen(w *workload, seed int64, ds *dataset) *commitGen {
	g := &commitGen{w: w, ds: ds, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		srow: append([]sRow(nil), ds.srow...), rows: append([]rRow(nil), ds.rows...)}
	for _, r := range ds.rows[ds.reserved:] {
		g.live.push(r)
	}
	for k := len(ds.rows) + 1; k <= len(ds.rows)+spareKeys; k++ {
		g.free.push(int64(k))
	}
	return g
}

func (g *commitGen) next() commit {
	c := commit{id: g.id, d: delta.New()}
	g.id++
	pairs := g.w.Atoms / 2
	reserved, nCarrier := g.ds.reserved, g.ds.carriers
	if evenly(c.id, g.w.SFrac) {
		c.src = 1
		g.updateS(c.d, g.nS%nCarrier, markerBase+c.id)
		g.nS++
		g.updateRandomS(c.d, pairs-1)
		return c
	}
	slot := g.nR % nCarrier
	g.nR++
	if g.w.Churn {
		g.updateR(c.d, nCarrier+slot, markerBase+c.id)
		seen := map[int]bool{}
		for n := 0; n < pairs-1; {
			i := reserved + g.rng.Intn(len(g.rows)-reserved)
			if seen[i] {
				continue
			}
			seen[i] = true
			g.updateR(c.d, i, g.rng.Int63n(markerBase))
			n++
		}
		return c
	}
	for n := 0; n < pairs; n++ {
		r := rRow{r1: g.free.pop(), r3: g.rng.Int63n(markerBase), r4: 50}
		if g.rng.Intn(2) == 0 {
			r.r4 = 100
		}
		r.r2 = int64(reserved+1) + g.rng.Int63n(int64(len(g.srow)-reserved))
		if n == 0 { // the marker row joins a never-changing S key
			r.r2, r.r3, r.r4 = int64(nCarrier+1+slot), markerBase+c.id, 100
		}
		c.d.Insert("R", r.tuple())
		g.live.push(r)
		old := g.live.pop()
		c.d.Delete("R", old.tuple())
		g.free.push(old.r1)
	}
	return c
}

func (g *commitGen) updateR(d *delta.Delta, i int, r3 int64) {
	d.Delete("R", g.rows[i].tuple())
	g.rows[i].r3 = r3
	d.Insert("R", g.rows[i].tuple())
}

func (g *commitGen) updateS(d *delta.Delta, i int, s2 int64) {
	d.Delete("S", g.srow[i].tuple())
	g.srow[i].s2 = s2
	d.Insert("S", g.srow[i].tuple())
}

func (g *commitGen) updateRandomS(d *delta.Delta, n int) {
	seen := map[int]bool{}
	for n > 0 {
		i := g.ds.reserved + g.rng.Intn(len(g.srow)-g.ds.reserved)
		if seen[i] {
			continue
		}
		seen[i] = true
		g.updateS(d, i, g.rng.Int63n(markerBase))
		n--
	}
}

// query is one generated read: π_attrs σ_{lo ≤ r1 < hi} T.
type query struct {
	cold  bool
	attrs []string
	cond  algebra.Expr
	lo    int64
	hi    int64
}

// queryGen produces the query sequence: range scans of querySpan keys over
// T. Hot queries project materialized attributes only; cold ones touch
// r3/s2, which are virtual in the hybrid deployment. Not safe for
// concurrent use.
type queryGen struct {
	w      *workload
	rng    *rand.Rand
	n      int64 // queries generated so far
	lo, hi int64 // range starts are drawn from [lo, hi)
}

const querySpan = 200

func newQueryGen(w *workload, seed int64, ds *dataset) *queryGen {
	return &queryGen{w: w, rng: rand.New(rand.NewSource(seed ^ 0x9e77)),
		lo: int64(ds.reserved + 1), hi: int64(len(ds.rows) + spareKeys - querySpan)}
}

func (g *queryGen) next() query {
	q := query{attrs: []string{"r1", "s1"}}
	if evenly(g.n, g.w.ColdFrac) {
		q.cold, q.attrs = true, []string{"r1", "r3", "s2"}
	}
	g.n++
	q.lo = g.lo + g.rng.Int63n(g.hi-g.lo)
	q.hi = q.lo + querySpan
	q.cond = algebra.Conj(algebra.Ge(algebra.A("r1"), algebra.CInt(q.lo)), algebra.Lt(algebra.A("r1"), algebra.CInt(q.hi)))
	return q
}
