package experiments

import (
	"fmt"
	"io"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/federate"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// fedEnv is the 1×2×4 federation tree of DESIGN.md §11: four leaf
// databases, two middle-tier mediators each joining its own pair, and a
// top mediator joining the two exports. Announcements flow synchronously
// (ConnectLocal for the leaf hop, Exporter.Subscribe for the tier hop),
// so the measured cost is pure mediator work, not transport.
type fedEnv struct {
	clk    *clock.Logical
	leaves []*source.DB     // db1..db4
	tiers  []*core.Mediator // meda, medb
	exps   []*federate.Exporter
	top    *core.Mediator
	flat   *vdp.VDP // the same views composed in one plan, for ground truth
	cnt    []int64  // per-leaf commit counters (keeps tree-wide keys aligned)
}

func fedLeafSchemas() []*relation.Schema {
	mk := func(rel, k, v string) *relation.Schema {
		return relation.MustSchema(rel, []relation.Attribute{
			{Name: k, Type: relation.KindInt}, {Name: v, Type: relation.KindInt}}, k)
	}
	return []*relation.Schema{
		mk("RA", "a1", "a2"), mk("SA", "a3", "a4"),
		mk("RB", "b1", "b2"), mk("SB", "b3", "b4"),
	}
}

const (
	fedVA = `SELECT a1, a4 FROM RA JOIN SA ON a2 = a3`
	fedVB = `SELECT b1, b4 FROM RB JOIN SB ON b2 = b3`
	fedT  = `SELECT a1, a4, b4 FROM VA JOIN VB ON a1 = b1`
)

// newFedEnv assembles the tree. seedR rows of RA/RB carry join targets
// (i, 16+i) for later SA/SB inserts; SA/SB seed the 16 hot keys RA/RB
// inserts join against.
func newFedEnv(seedR int) (*fedEnv, error) {
	e := &fedEnv{clk: &clock.Logical{}, cnt: make([]int64, 4)}
	schemas := fedLeafSchemas()
	for i, s := range schemas {
		db := source.NewDB(fmt.Sprintf("db%d", i+1), e.clk)
		if err := db.CreateRelation(s, relation.Set); err != nil {
			return nil, err
		}
		e.leaves = append(e.leaves, db)
	}
	for l, rel := range []string{"RA", "SA", "RB", "SB"} {
		seed := delta.New()
		if l%2 == 0 { // RA/RB: join targets for later SA/SB inserts
			for i := int64(0); i < int64(seedR); i++ {
				seed.Insert(rel, relation.T(i, 16+i))
			}
		} else { // SA/SB: the 16 hot keys RA/RB inserts join against
			for k := int64(0); k < 16; k++ {
				seed.Insert(rel, relation.T(k, 100+k))
			}
		}
		e.leaves[l].MustApply(seed)
	}

	buildTier := func(name string, left, right int, view, sql string) error {
		b := vdp.NewBuilder()
		if err := b.AddSource(e.leaves[left].Name(), schemas[left]); err != nil {
			return err
		}
		if err := b.AddSource(e.leaves[right].Name(), schemas[right]); err != nil {
			return err
		}
		if err := b.AddViewSQL(view, sql); err != nil {
			return err
		}
		plan, err := b.Build()
		if err != nil {
			return err
		}
		med, err := core.New(core.Config{VDP: plan, Sources: map[string]core.SourceConn{
			e.leaves[left].Name():  core.LocalSource{DB: e.leaves[left]},
			e.leaves[right].Name(): core.LocalSource{DB: e.leaves[right]},
		}, Clock: e.clk})
		if err != nil {
			return err
		}
		core.ConnectLocal(med, e.leaves[left])
		core.ConnectLocal(med, e.leaves[right])
		if err := med.Initialize(); err != nil {
			return err
		}
		x, err := federate.New(med, name)
		if err != nil {
			return err
		}
		e.tiers = append(e.tiers, med)
		e.exps = append(e.exps, x)
		return nil
	}
	if err := buildTier("meda", 0, 1, "VA", fedVA); err != nil {
		return nil, err
	}
	if err := buildTier("medb", 2, 3, "VB", fedVB); err != nil {
		return nil, err
	}

	b := vdp.NewBuilder()
	for _, x := range e.exps {
		for _, rel := range x.Relations() {
			s, err := x.Schema(rel)
			if err != nil {
				return nil, err
			}
			if err := b.AddSource(x.Name(), s); err != nil {
				return nil, err
			}
		}
	}
	if err := b.AddViewSQL("T", fedT); err != nil {
		return nil, err
	}
	plan, err := b.Build()
	if err != nil {
		return nil, err
	}
	top, err := core.New(core.Config{VDP: plan, Sources: map[string]core.SourceConn{
		e.exps[0].Name(): e.exps[0],
		e.exps[1].Name(): e.exps[1],
	}, Clock: e.clk})
	if err != nil {
		return nil, err
	}
	for _, x := range e.exps {
		x.Subscribe(top.OnAnnouncement)
	}
	if err := top.Initialize(); err != nil {
		return nil, err
	}
	e.top = top

	fb := vdp.NewBuilder()
	for i, s := range schemas {
		if err := fb.AddSource(e.leaves[i].Name(), s); err != nil {
			return nil, err
		}
	}
	for _, v := range []struct{ name, sql string }{
		{"VA", fedVA}, {"VB", fedVB}, {"T", fedT},
	} {
		if err := fb.AddViewSQL(v.name, v.sql); err != nil {
			return nil, err
		}
	}
	if e.flat, err = fb.Build(); err != nil {
		return nil, err
	}
	return e, nil
}

// commitLeaf applies the next scripted insert to leaf l (0..3). RA/RB
// inserts join the 16 hot SA/SB seed keys; SA/SB inserts join the RA/RB
// seed rows, so every commit eventually surfaces in T when its partner
// leaf on the other branch reaches the same counter.
func (e *fedEnv) commitLeaf(l int) error {
	c := e.cnt[l]
	e.cnt[l]++
	d := delta.New()
	switch l {
	case 0:
		d.Insert("RA", relation.T(10000+c, c%16))
	case 1:
		d.Insert("SA", relation.T(16+c, 500+c))
	case 2:
		d.Insert("RB", relation.T(10000+c, c%16))
	case 3:
		d.Insert("SB", relation.T(16+c, 500+c))
	}
	_, err := e.leaves[l].Apply(d)
	return err
}

// drain runs update transactions until the mediator's queue is empty.
func drainMed(m *core.Mediator) error {
	for {
		ran, err := m.RunUpdateTransaction()
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
	}
}

// groundTruthT evaluates the flat composed plan over the current leaf
// states — what one mediator with the whole tree's views would serve.
func (e *fedEnv) groundTruthT() (*relation.Relation, error) {
	cat := map[string]*relation.Relation{}
	for i, s := range fedLeafSchemas() {
		rel, err := e.leaves[i].Current(s.Name())
		if err != nil {
			return nil, err
		}
		cat[s.Name()] = rel
	}
	states, err := e.flat.EvalAll(vdp.ResolverFromCatalog(cat))
	if err != nil {
		return nil, err
	}
	return states["T"], nil
}

// E22FederationTree measures the 1×2×4 federation: per-hop propagation
// latency (leaf→tier materialization, tier→top lift) and end-to-end
// fan-in throughput as commits batch up before each drain. Batch 1 is
// the latency floor — every commit pays both hops alone; larger batches
// amortize the per-transaction overhead across the announcements each
// drain absorbs, which is exactly the u_hold trade Theorem 7.2 prices.
func E22FederationTree(w io.Writer) error {
	t := &Table{
		Title: "E22 — tiered federation (1 top × 2 tiers × 4 leaves): per-hop cost",
		Header: []string{"batch", "commits", "leaf→tier µs/c", "tier→top µs/c",
			"end-to-end µs/c", "commits/s", "T rows"},
		Notes: []string{
			"leaf→tier: tier update txns (IUP over the leaf pair); tier→top: top update txns over the exports",
			"announcements delivered synchronously — measured cost is mediator work, not transport",
			"batch = commits absorbed per drain cycle; round-robin across the 4 leaves",
		},
	}

	run := func(batch, commits int) error {
		e, err := newFedEnv(512)
		if err != nil {
			return err
		}
		var tierT, topT time.Duration
		start := time.Now()
		for done := 0; done < commits; {
			n := batch
			if commits-done < n {
				n = commits - done
			}
			for i := 0; i < n; i++ {
				if err := e.commitLeaf((done + i) % 4); err != nil {
					return err
				}
			}
			done += n
			t0 := time.Now()
			for _, tier := range e.tiers {
				if err := drainMed(tier); err != nil {
					return err
				}
			}
			t1 := time.Now()
			if err := drainMed(e.top); err != nil {
				return err
			}
			tierT += t1.Sub(t0)
			topT += time.Since(t1)
		}
		total := time.Since(start)

		res, err := e.top.QueryOpts("T", nil, nil, core.QueryOptions{})
		if err != nil {
			return err
		}
		truth, err := e.groundTruthT()
		if err != nil {
			return err
		}
		if !res.Answer.Equal(truth) {
			return fmt.Errorf("E22: batch %d diverged from flat ground truth", batch)
		}

		perC := func(d time.Duration) string {
			return fmt.Sprintf("%.1f", float64(d.Microseconds())/float64(commits))
		}
		t.Add(batch, commits, perC(tierT), perC(topT), perC(total),
			fmt.Sprintf("%.0f", float64(commits)/total.Seconds()), res.Answer.Len())
		return nil
	}

	for _, cfg := range []struct{ batch, commits int }{
		{1, 256}, {8, 512}, {64, 1024},
	} {
		if err := run(cfg.batch, cfg.commits); err != nil {
			return err
		}
	}
	t.Print(w)
	return nil
}

// FederationBench exposes the E22 tree to the root-level testing.B
// benchmark: each Step commits batch leaf transactions round-robin and
// drains both hops. Commits past the seeded join window stop producing
// T rows but still exercise the full per-hop machinery (empty export
// deltas are announced for sequence density).
type FederationBench struct {
	env   *fedEnv
	batch int
	n     int
}

// NewFederationBench builds a fresh 1×2×4 tree for one benchmark run.
func NewFederationBench(batch int) (*FederationBench, error) {
	e, err := newFedEnv(4096)
	if err != nil {
		return nil, err
	}
	return &FederationBench{env: e, batch: batch}, nil
}

// Step runs one drain cycle: batch commits, tier transactions, top
// transactions.
func (f *FederationBench) Step() error {
	for i := 0; i < f.batch; i++ {
		if err := f.env.commitLeaf(f.n % 4); err != nil {
			return err
		}
		f.n++
	}
	for _, tier := range f.env.tiers {
		if err := drainMed(tier); err != nil {
			return err
		}
	}
	return drainMed(f.env.top)
}
