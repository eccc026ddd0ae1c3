package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"squirrel/internal/relation"
	"squirrel/internal/store"
)

// The columnar data-plane oracle: every relation a published store version
// holds is checked against a row model rebuilt from its tuples — one entry
// per Tuple.Key — and every published version must stay exactly as it was
// published while later transactions copy and mutate the TupleMaps it
// shares. CI runs this under -race (the columnar-oracle job), which also
// exercises the interner and the staged kernel's parallel writers.

// checkAgainstRowModel rebuilds rel as a map keyed by Tuple.Key and
// requires the columnar store to agree with it: no key held twice,
// positive counts (at most one under set semantics), Len, Card, a Count
// probe per tuple, and the deterministic rendering.
func checkAgainstRowModel(rel *relation.Relation) error {
	model := map[string]relation.Row{}
	card := 0
	var dup error
	rel.Each(func(t relation.Tuple, n int) bool {
		key := t.Key()
		if _, ok := model[key]; ok {
			dup = fmt.Errorf("tuple %s stored twice", t)
			return false
		}
		if n <= 0 || (rel.Semantics() == relation.Set && n != 1) {
			dup = fmt.Errorf("tuple %s has count %d under %s semantics", t, n, rel.Semantics())
			return false
		}
		model[key] = relation.Row{Tuple: t.Clone(), Count: n}
		card += n
		return true
	})
	if dup != nil {
		return dup
	}
	if rel.Len() != len(model) || rel.Card() != card {
		return fmt.Errorf("Len/Card = %d/%d, row model %d/%d", rel.Len(), rel.Card(), len(model), card)
	}
	rows := make([]relation.Row, 0, len(model))
	for _, r := range model {
		if got := rel.Count(r.Tuple); got != r.Count {
			return fmt.Errorf("Count(%s) = %d, row model %d", r.Tuple, got, r.Count)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s, %d distinct / %d total]\n", rel.Schema(), rel.Semantics(), len(model), card)
	for _, r := range rows {
		b.WriteString("  " + r.Tuple.String())
		if r.Count != 1 {
			fmt.Fprintf(&b, " x%d", r.Count)
		}
		b.WriteByte('\n')
	}
	if got := rel.String(); got != b.String() {
		return fmt.Errorf("render diverges from the row model\n--- columnar ---\n%s--- row model ---\n%s", got, b.String())
	}
	return nil
}

// renderVersion renders every relation of a published version.
func renderVersion(v *store.Version) string {
	var b strings.Builder
	for _, name := range v.Nodes() {
		fmt.Fprintf(&b, "%s:\n%s", name, v.Rel(name))
	}
	return b.String()
}

// columnarTranscript runs the differential workload and, after every
// update transaction, checks the newly published version against the row
// model and the plan's join indexes, and re-renders every earlier version.
func columnarTranscript(t *testing.T, seed int64, workers int) []string {
	t.Helper()
	type published struct {
		v      *store.Version
		render string
	}
	var history []published
	return observedTranscript(t, seed, workers, func(rp *randPlan) {
		t.Helper()
		cur := rp.med.vstore.Current()
		for _, name := range cur.Nodes() {
			if err := checkAgainstRowModel(cur.Rel(name)); err != nil {
				t.Fatalf("workers=%d seq=%d node %s: %v\nplan:\n%s", workers, cur.Seq(), name, err, rp.plan)
			}
		}
		if err := rp.med.CheckJoinIndexes(); err != nil {
			t.Fatalf("workers=%d seq=%d: %v\nplan:\n%s", workers, cur.Seq(), err, rp.plan)
		}
		for _, p := range history {
			if got := renderVersion(p.v); got != p.render {
				t.Fatalf("workers=%d: version seq=%d changed after publication (now at seq=%d)\n--- now ---\n%s--- published ---\n%s",
					workers, p.v.Seq(), cur.Seq(), got, p.render)
			}
		}
		if len(history) == 0 || history[len(history)-1].v != cur {
			history = append(history, published{cur, renderVersion(cur)})
		}
	})
}

// TestColumnarOracle: for each seeded random plan and workload, on both the
// serial and the staged kernel, every published store relation matches its
// row model and every published version stays immutable; the two kernels'
// transcripts must also be identical.
func TestColumnarOracle(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := columnarTranscript(t, seed, 0)
			got := columnarTranscript(t, seed, 2)
			if len(got) != len(ref) {
				t.Fatalf("workers=2 transcript has %d records, serial has %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=2 transcript diverges from the serial one at record %d:\n--- staged ---\n%s\n--- serial ---\n%s",
						i, got[i], ref[i])
				}
			}
		})
	}
}
