package experiments

import (
	"fmt"
	"io"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// E12BatchingAblation measures the design choice behind the paper's
// update-transaction model (§6.1/§6.4): the IUP smashes the ENTIRE queue
// into one delta per transaction. Against a churn-heavy stream (the same
// rows flip back and forth), batching lets smash annihilate atoms before
// they are propagated; per-commit processing propagates every atom.
func E12BatchingAblation(w io.Writer) error {
	t := &Table{
		Title:  "E12 — ablation: per-commit vs batched update transactions (smash annihilation)",
		Header: []string{"policy", "commits", "txns", "atoms propagated", "total time", "T==recompute"},
		Notes: []string{
			"workload: 100 commits; 80% flip a hot row (insert/delete the same tuples)",
			"batched = one transaction per 25 commits (smash cancels flips before propagation)",
		},
	}
	for _, policy := range []struct {
		name  string
		every int
	}{{"per-commit", 1}, {"batch-25", 25}, {"batch-100", 100}} {
		e, err := newEnv(58, 2000, 1000, annVariants()["materialized"])
		if err != nil {
			return err
		}
		base := e.med.Stats()
		const commits = 100
		hot := relation.T(int64(999999), int64(10), int64(1), int64(100))
		present := false
		start := time.Now()
		for i := 0; i < commits; i++ {
			d := delta.New()
			if i%5 == 4 {
				// 20%: genuine new data.
				d.Insert("R", relation.T(int64(500000+i), int64(20), int64(i), int64(100)))
			} else {
				// 80%: flip the hot row.
				if present {
					d.Delete("R", hot)
				} else {
					d.Insert("R", hot)
				}
				present = !present
			}
			if _, err := e.db1.Apply(d); err != nil {
				return err
			}
			if (i+1)%policy.every == 0 {
				if _, err := e.med.RunUpdateTransaction(); err != nil {
					return err
				}
			}
		}
		if err := e.sync(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		st := e.med.Stats()
		truth, err := e.groundTruthT()
		if err != nil {
			return err
		}
		ok := e.med.StoreSnapshot("T").Equal(truth)
		t.Add(policy.name, commits, st.UpdateTxns-base.UpdateTxns,
			st.AtomsPropagated-base.AtomsPropagated, elapsed, ok)
		if !ok {
			return fmt.Errorf("E12: divergence under policy %s", policy.name)
		}
	}
	t.Print(w)
	return nil
}

// E13JoinStrategyAblation measures the §5.3 remark that joins without a
// usable index are expensive: the same equi-join evaluated three ways —
// nested loop (condition hidden from the extractor), a join index built on
// the spot (over the smaller side; the other side is read in full), and a
// probe of a resident join index (relation.EnsureIndex, what the mediator
// keeps on stored join siblings). Each size runs with a full-size left side
// and with a delta-sized one (8 rows): only the resident index makes the
// small join cost O(|L|) instead of O(|R|).
func E13JoinStrategyAblation(w io.Writer) error {
	t := &Table{
		Title:  "E13 — ablation: join strategies (§5.3: \"whether indices can be used\")",
		Header: []string{"|L|", "|R|", "strategy", "µs/join", "result rows"},
	}
	ls := relation.MustSchema("L", []relation.Attribute{
		{Name: "lk", Type: relation.KindInt}, {Name: "lv", Type: relation.KindInt}})
	rs := relation.MustSchema("Rr", []relation.Attribute{
		{Name: "rk", Type: relation.KindInt}, {Name: "rv", Type: relation.KindInt}})
	for _, n := range []int{500, 2000} {
		for _, nl := range []int{8, n} {
			rng := newRng(int64(n))
			l := relation.NewBag(ls)
			rPlain := relation.NewBag(rs)
			rIndexed := relation.NewBag(rs)
			if err := rIndexed.EnsureIndex("rk"); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if i < nl {
					l.Add(relation.T(rng.Intn(n), rng.Intn(10)), 1)
				}
				tr := relation.T(rng.Intn(n), rng.Intn(10))
				rPlain.Add(tr, 1)
				rIndexed.Add(tr, 1)
			}
			hashCond := algebra.Eq(algebra.A("lk"), algebra.A("rk"))
			// Hiding the equality inside arithmetic defeats extraction →
			// nested loop with residual evaluation.
			nlCond := algebra.Eq(algebra.Add(algebra.A("lk"), algebra.CInt(0)), algebra.A("rk"))

			cases := []struct {
				name string
				r    *relation.Relation
				cond algebra.Expr
				reps int
			}{
				{"nested-loop", rPlain, nlCond, 3},
				{"index-on-the-spot", rPlain, hashCond, 20},
				{"resident-index", rIndexed, hashCond, 20},
			}
			var want int
			for ci, c := range cases {
				var rows int
				start := time.Now()
				for rep := 0; rep < c.reps; rep++ {
					out, err := algebra.EvalJoin(l, c.r, c.cond, "J")
					if err != nil {
						return err
					}
					rows = out.Card()
				}
				if ci == 0 {
					want = rows
				} else if rows != want {
					return fmt.Errorf("E13: %s produced %d rows, nested loop %d", c.name, rows, want)
				}
				perJoin := float64(time.Since(start).Microseconds()) / float64(c.reps)
				t.Add(nl, n, c.name, perJoin, rows)
			}
		}
	}
	t.Print(w)
	return nil
}
