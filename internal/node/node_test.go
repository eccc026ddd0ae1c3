package node

import (
	"sync"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/federate"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
	"squirrel/internal/wire"
)

// rig is a two-source integration environment: db1 holds R, db2 holds S,
// and the fully materialized export T joins them. With wireDB1 set the
// mediator reaches db1 over TCP (no replay), db2 always in process.
type rig struct {
	clk     *clock.Logical
	dbs     map[string]*source.DB
	plan    *vdp.VDP
	addr    string // db1's wire address
	wireDB1 bool

	mu sync.Mutex
	d  map[int64]int64 // S: c -> current d (the committer's view)
	k  int64           // next R key
}

func newRig(t *testing.T, wireDB1 bool) *rig {
	t.Helper()
	r := &rig{clk: &clock.Logical{}, dbs: map[string]*source.DB{}, wireDB1: wireDB1,
		d: map[int64]int64{1: 10, 2: 20, 3: 30}, k: 100}
	rs := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
	ss := relation.MustSchema("S", []relation.Attribute{
		{Name: "c", Type: relation.KindInt}, {Name: "d", Type: relation.KindInt}}, "c")
	rr, sr := relation.NewSet(rs), relation.NewSet(ss)
	rr.Insert(relation.T(1, 1))
	rr.Insert(relation.T(2, 2))
	for c, d := range r.d {
		sr.Insert(relation.T(c, d))
	}
	b := vdp.NewBuilder()
	for name, rel := range map[string]*relation.Relation{"db1": rr, "db2": sr} {
		db := source.NewDB(name, r.clk)
		if err := db.LoadRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := b.AddSource(name, rel.Schema()); err != nil {
			t.Fatal(err)
		}
		r.dbs[name] = db
	}
	if err := b.AddViewSQL("T", `SELECT a, b, d FROM R JOIN S ON b = c`); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.plan, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	if wireDB1 {
		srv := wire.NewSourceServer(r.dbs["db1"])
		if r.addr, err = srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	return r
}

// commit makes one transaction at each source: a new R row joining one of
// S's keys, and a new d for that key.
func (r *rig) commit(t *testing.T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.k++
	c := r.k%3 + 1
	dr := delta.New()
	dr.Insert("R", relation.T(r.k, c))
	ds := delta.New()
	ds.Delete("S", relation.T(c, r.d[c]))
	r.d[c] = r.k
	ds.Insert("S", relation.T(c, r.k))
	if _, err := r.dbs["db1"].Apply(dr); err != nil {
		t.Error(err)
	}
	if _, err := r.dbs["db2"].Apply(ds); err != nil {
		t.Error(err)
	}
}

// config assembles a node config over the rig; the returned recorder
// traces the mediator's query transactions for the checker.
func (r *rig) config(t *testing.T, dir string) (Config, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg := Config{
		Mediator: core.Config{VDP: r.plan, Sources: map[string]core.SourceConn{}, Clock: r.clk, Recorder: rec},
		Attach:   map[string]func(source.Handler){},
		Replay:   map[string]func(clock.Time, source.Handler){},
	}
	if dir != "" {
		cfg.WAL = &wal.Options{Dir: dir}
	}
	for name, db := range r.dbs {
		if name == "db1" && r.wireDB1 {
			c, err := wire.Dial(r.addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			cfg.Mediator.Sources[name] = c
			cfg.Attach[name] = c.OnAnnounce
			continue
		}
		cfg.Mediator.Sources[name] = core.LocalSource{DB: db}
		cfg.Attach[name] = db.Subscribe
		cfg.Replay[name] = db.ReplaySince
	}
	return cfg, rec
}

// settle runs the production runtime until the mediator has processed
// every commit the sources made, then stops it.
func (r *rig) settle(t *testing.T, med *core.Mediator) {
	t.Helper()
	rt, err := core.NewRuntime(med, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for !r.caughtUp(med) {
		if time.Now().After(deadline) {
			t.Fatalf("mediator never caught up: ref′ %v, queue %d, quarantined %v",
				med.LastProcessed(), med.QueueLen(), med.QuarantinedSources())
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rig) caughtUp(med *core.Mediator) bool {
	if med.QueueLen() > 0 || len(med.QuarantinedSources()) > 0 {
		return false
	}
	lp := med.LastProcessed()
	for name, db := range r.dbs {
		if log := db.Log(); len(log) > 0 && lp[name] < log[len(log)-1].Time {
			return false
		}
	}
	return true
}

// TestLifecycle starts a node while a goroutine commits at the sources,
// installs an export, runs the runtime, and checks that the store is the
// view at ref′ (nothing lost or applied twice) and that the export's
// announcement stream is seq-dense from the first commit after Start.
func TestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wire     bool // db1 over TCP, no replay
		recover  bool // a first node logs, shuts down, and the second recovers
		downtime int  // commits between the two nodes
	}{
		{name: "fresh/in-process"},
		{name: "fresh/wire", wire: true},
		{name: "recover/no-downtime", recover: true},
		{name: "recover/downtime/replay", recover: true, downtime: 5},
		{name: "recover/downtime/wire", wire: true, recover: true, downtime: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.wire)
			dir := ""
			if tc.recover {
				dir = t.TempDir()
				cfg, _ := r.config(t, dir)
				first, err := Start(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					r.commit(t)
				}
				r.settle(t, first.Mediator)
				if err := first.WAL.Close(); err != nil {
					t.Fatal(err)
				}
				if c, ok := cfg.Mediator.Sources["db1"].(*wire.Client); ok {
					c.Close()
				}
				for i := 0; i < tc.downtime; i++ {
					r.commit(t)
				}
			}

			cfg, rec := r.config(t, dir)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // commits before, during and after Start
				defer wg.Done()
				for i := 0; ; i++ {
					r.commit(t)
					select {
					case <-stop:
						if i >= 20 {
							return
						}
					default:
					}
				}
			}()
			n, err := Start(cfg)
			if err != nil {
				close(stop)
				wg.Wait()
				t.Fatal(err)
			}
			med := n.Mediator
			if (n.Recovery != nil) != tc.recover {
				t.Fatalf("recovery info %+v, want recovery %v", n.Recovery, tc.recover)
			}
			base := med.StoreVersion()
			x, err := federate.New(med, "x")
			if err != nil {
				t.Fatal(err)
			}
			var smu sync.Mutex
			var seqs []uint64
			x.Subscribe(func(a source.Announcement) {
				smu.Lock()
				seqs = append(seqs, a.Seq)
				smu.Unlock()
			})
			close(stop)
			wg.Wait()
			r.settle(t, med)

			if _, err := med.Query(algebra.Scan{Rel: "T"}, core.QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			env := checker.Environment{VDP: med.VDP(), Sources: r.dbs, Trace: rec}
			if err := env.CheckConsistency(); err != nil {
				t.Fatalf("store is not the view at ref′ %v: %v", med.LastProcessed(), err)
			}
			smu.Lock()
			defer smu.Unlock()
			if len(seqs) == 0 {
				t.Fatal("export announced nothing")
			}
			for i, s := range seqs {
				if s != base+uint64(i)+1 {
					t.Fatalf("export seqs %v not dense from v%d", seqs, base+1)
				}
			}
			if last := seqs[len(seqs)-1]; last != med.StoreVersion() {
				t.Fatalf("export's last seq %d, store at v%d", last, med.StoreVersion())
			}
			// No announcement is ever lost, so no gap is counted; the only
			// resync is the deliberate one of a recovered wire source.
			st, resyncs := med.Stats(), 0
			if tc.recover && tc.wire {
				resyncs = 1
			}
			if st.GapsDetected != 0 || st.Resyncs != resyncs {
				t.Errorf("%d gaps detected, %d resyncs; want 0 and %d", st.GapsDetected, st.Resyncs, resyncs)
			}
		})
	}
}
