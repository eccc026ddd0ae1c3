package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/federate"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
	"squirrel/internal/wire"
)

const loopback = "127.0.0.1:0"

// medNode is one mediator with everything that hangs off it: its
// connections to the layer below, its flush loop and its WAL.
type medNode struct {
	id      int // nodeTop or nodeTier
	plan    *vdp.VDP
	med     *core.Mediator
	reg     *metrics.Registry
	rt      *core.Runtime
	wal     *wal.Manager
	walDir  string
	walOpts wal.Options
	walIO   walCounters
	clients []*wire.Client
	conns   map[string]core.SourceConn

	// watch is the in-process subscription that, while tracing is on, stamps
	// when a version became visible inside the mediator's process.
	watch     *core.Subscription
	watchDone sync.WaitGroup
}

// pipeline is the whole Fig. 3 deployment inside this process, every hop
// between components over real loopback TCP.
type pipeline struct {
	w   *workload
	tr  *tracer
	clk *clock.Logical
	tmp string

	dbs      [2]*source.DB
	backends [2]*tracedBackend
	srcSrv   [2]*wire.SourceServer

	tier     *medNode // nil unless w.Tiered
	tierFace *tracedTierBackend
	tierSrv  *wire.SourceServer

	top     *medNode
	medSrv  *wire.MediatorServer
	medAddr string
	sub     *wire.SubClient
	qc      *wire.MediatorClient
	first   core.SubFrame // the subscriber's initial snapshot frame

	leafAddrs [2]string
	obs       *observers // a traced run's, connected during warm-up; nil otherwise
}

// setupTimes is how long the parts of one pipeline set-up took.
type setupTimes struct {
	Load, Initialize, WALStart, Total time.Duration
}

// flatPlan is the single-mediator plan for w; it is also the from-scratch
// oracle for the tiered deployment, which computes the same T in two hops.
func flatPlan(w *workload) (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", schemaR); err != nil {
		return nil, err
	}
	if err := b.AddSource("db2", schemaS); err != nil {
		return nil, err
	}
	if err := b.AddViewSQL("T", viewT); err != nil {
		return nil, err
	}
	if w.Hybrid {
		if err := b.AddViewSQL("VS", viewVS); err != nil {
			return nil, err
		}
		// Example 2.2/2.3: the auxiliary relations stay virtual and T keeps
		// only its key columns.
		b.Annotate("R'", vdp.Ann(nil, []string{"r1", "r2", "r3"}))
		b.Annotate("S'", vdp.Ann(nil, []string{"s1", "s2"}))
		b.Annotate("T", vdp.Ann([]string{"r1", "s1"}, []string{"r3", "s2"}))
	}
	return b.Build()
}

func tierPlan() (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", schemaR); err != nil {
		return nil, err
	}
	if err := b.AddSource("db2", schemaS); err != nil {
		return nil, err
	}
	if err := b.AddViewSQL("VRp", viewVRp); err != nil {
		return nil, err
	}
	if err := b.AddViewSQL("VSp", viewVSp); err != nil {
		return nil, err
	}
	return b.Build()
}

func topPlan(face wire.SourceBackend) (*vdp.VDP, error) {
	b := vdp.NewBuilder()
	for _, rel := range face.Relations() {
		s, err := face.Schema(rel)
		if err != nil {
			return nil, err
		}
		if err := b.AddSource(face.Name(), s); err != nil {
			return nil, err
		}
	}
	if err := b.AddViewSQL("T", viewTTop); err != nil {
		return nil, err
	}
	return b.Build()
}

// buildPipeline assembles and starts everything. On error it tears down
// whatever it had started.
func buildPipeline(w *workload, ds *dataset, tr *tracer, tmpRoot string) (p *pipeline, st setupTimes, err error) {
	begin := time.Now()
	p = &pipeline{w: w, tr: tr, clk: &clock.Logical{}}
	defer func() {
		if err != nil {
			p.teardown(false)
			p = nil
		}
	}()
	if p.tmp, err = os.MkdirTemp(tmpRoot, "squirrel-bench-"); err != nil {
		return
	}

	// Sources behind TCP servers.
	for i, rel := range []*relation.Relation{ds.relR(), ds.relS()} {
		db := source.NewDB(srcNames[i], p.clk)
		if err = db.LoadRelation(rel); err != nil {
			return
		}
		p.dbs[i] = db
		node := nodeTop
		if w.Tiered {
			node = nodeTier
		}
		p.backends[i] = &tracedBackend{SourceBackend: db, tr: tr, node: node, src: i}
		p.srcSrv[i] = wire.NewBackendServer(p.backends[i])
		p.srcSrv[i].Logf = func(string, ...any) {}
	}
	for i := range p.srcSrv {
		if p.leafAddrs[i], err = p.srcSrv[i].Start(loopback); err != nil {
			return
		}
	}
	st.Load = time.Since(begin)

	leaves := map[string]string{"db1": p.leafAddrs[0], "db2": p.leafAddrs[1]}
	if w.Tiered {
		var plan *vdp.VDP
		if plan, err = tierPlan(); err != nil {
			return
		}
		// The tier always runs the push configuration; its WAL is batch-synced.
		if p.tier, err = p.startNode(nodeTier, plan, leaves, wal.SyncBatch, &st); err != nil {
			return
		}
		var x *federate.Exporter
		if x, err = federate.New(p.tier.med, srcNames[srcTier]); err != nil {
			return
		}
		p.tierFace = &tracedTierBackend{
			tracedBackend: &tracedBackend{SourceBackend: x, tr: tr, node: nodeTop, src: srcTier},
			tiered:        x,
		}
		p.tierSrv = wire.NewBackendServer(p.tierFace)
		p.tierSrv.Logf = func(string, ...any) {}
		var addr string
		if addr, err = p.tierSrv.Start(loopback); err != nil {
			return
		}
		if plan, err = topPlan(p.tierFace); err != nil {
			return
		}
		if p.top, err = p.startNode(nodeTop, plan, map[string]string{srcNames[srcTier]: addr}, w.WALPolicy, &st); err != nil {
			return
		}
	} else {
		var plan *vdp.VDP
		if plan, err = flatPlan(w); err != nil {
			return
		}
		if p.top, err = p.startNode(nodeTop, plan, leaves, w.WALPolicy, &st); err != nil {
			return
		}
	}

	// The application side: one subscriber, one query client.
	p.medSrv = wire.NewMediatorServer(p.top.med)
	if p.medAddr, err = p.medSrv.Start(loopback); err != nil {
		return
	}
	if p.sub, err = wire.SubscribeView(p.medAddr, w.SubExport, wire.SubOptions{}); err != nil {
		return
	}
	if p.first, err = p.sub.Next(); err != nil {
		return
	}
	if p.first.Kind != core.SubSnapshot {
		err = fmt.Errorf("first frame is %s, want snapshot", p.first.Kind)
		return
	}
	if p.qc, err = wire.DialMediator(p.medAddr); err != nil {
		return
	}
	st.Total = time.Since(begin)
	return
}

// startNode dials the given sources, builds and initializes a mediator over
// them, starts its WAL and its flush loop.
func (p *pipeline) startNode(id int, plan *vdp.VDP, addrs map[string]string, policy wal.SyncPolicy, st *setupTimes) (*medNode, error) {
	w := p.w
	n := &medNode{id: id, plan: plan, reg: metrics.NewRegistry(0), conns: map[string]core.SourceConn{}}
	fail := func(err error) (*medNode, error) {
		p.stopNode(n, false)
		return nil, err
	}
	begin := time.Now()
	for name, addr := range addrs {
		c, err := wire.Dial(addr)
		if err != nil {
			return fail(err)
		}
		n.clients = append(n.clients, c)
		n.conns[name] = &tracedConn{c: c, tr: p.tr, node: id}
	}
	st.Load += time.Since(begin)

	begin = time.Now()
	med, err := core.New(core.Config{VDP: plan, Sources: n.conns, Clock: p.clk,
		PropagateWorkers: w.PropagateWorkers, Metrics: n.reg})
	if err != nil {
		return fail(err)
	}
	n.med = med
	for _, c := range n.clients {
		src := srcIndex(c.Name())
		c.OnAnnounce(func(a source.Announcement) {
			p.tr.arrived(id, src, a.Time, a.Seq)
			med.OnAnnouncement(a)
		})
	}
	if err := med.Initialize(); err != nil {
		return fail(err)
	}
	st.Initialize += time.Since(begin)

	begin = time.Now()
	n.walDir = filepath.Join(p.tmp, fmt.Sprintf("wal-%d", id))
	n.walOpts = wal.Options{Dir: n.walDir, Policy: policy, CompactEvery: w.CompactEvery, Metrics: n.reg,
		WrapFile: func(f wal.File) wal.File { return &tracedFile{File: f, tr: p.tr, node: id, c: &n.walIO} }}
	if n.wal, err = wal.Open(n.walOpts); err != nil {
		return fail(err)
	}
	if err := n.wal.Start(med); err != nil {
		return fail(err)
	}
	// Start hooked the manager in as the commit log; put the timing wrapper
	// around it.
	med.SetCommitLog(&tracedLog{inner: n.wal, tr: p.tr, node: id})
	st.WALStart += time.Since(begin)

	if w.MaxBatch > 0 {
		n.rt, err = core.NewBatchedRuntime(med, w.BatchWindow, w.MaxBatch)
	} else {
		n.rt, err = core.NewRuntime(med, w.Period)
	}
	if err != nil {
		return fail(err)
	}
	if err := n.rt.Start(); err != nil {
		return fail(err)
	}

	return n, nil
}

// startTracing starts each mediator's in-process watcher, then switches the
// wrappers on; stopTracing undoes both.
func (p *pipeline) startTracing() error {
	for _, n := range p.nodes() {
		export := n.plan.Exports()[0]
		if n.id == nodeTop {
			export = p.w.SubExport
		}
		// A queue deep enough that the watcher never coalesces: it must see
		// one frame per version to stamp each.
		watch, err := n.med.Subscribe(export, core.SubscribeOptions{MaxQueue: 1 << 16})
		if err != nil {
			return err
		}
		n.watch = watch
		n.watchDone.Add(1)
		go func() {
			defer n.watchDone.Done()
			for {
				f, err := watch.Recv()
				if err != nil {
					return
				}
				r := pubRec{version: f.Version, stamp: f.Stamp}
				for name, t := range f.Reflect {
					if i := srcIndex(name); i >= 0 {
						r.reflect[i] = t
					}
				}
				p.tr.published(n.id, r)
			}
		}()
	}

	p.tr.on.Store(true)
	return nil
}

func (p *pipeline) stopTracing() {
	p.tr.on.Store(false)
	for _, n := range p.nodes() {
		if n != nil && n.watch != nil {
			n.watch.Close()
			n.watchDone.Wait()
			n.watch = nil
		}
	}
}

// stopNode stops a mediator's loop, WAL and connections. kill abandons the
// WAL as a crash would; otherwise it is closed cleanly.
func (p *pipeline) stopNode(n *medNode, kill bool) error {
	if n == nil {
		return nil
	}
	var errs []error
	if n.rt != nil {
		errs = append(errs, n.rt.Stop())
	}
	if n.wal != nil {
		if kill {
			n.wal.Kill()
		} else {
			errs = append(errs, n.wal.Close())
		}
	}
	for _, c := range n.clients {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// teardown stops every component, application side first, and removes the
// temp directory. killTop says the top mediator's WAL was already killed by
// the recovery phase.
func (p *pipeline) teardown(killTop bool) error {
	var errs []error
	p.stopTracing()
	if p.obs != nil {
		_, err := p.stopObservers()
		errs = append(errs, err)
	}
	if p.sub != nil {
		errs = append(errs, p.sub.Close())
	}
	if p.qc != nil {
		errs = append(errs, p.qc.Close())
	}
	if p.medSrv != nil {
		errs = append(errs, p.medSrv.Close())
	}
	errs = append(errs, p.stopNode(p.top, killTop))
	if p.tierSrv != nil {
		errs = append(errs, p.tierSrv.Close())
	}
	errs = append(errs, p.stopNode(p.tier, false))
	for _, s := range p.srcSrv {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	if p.tmp != "" {
		errs = append(errs, os.RemoveAll(p.tmp))
	}
	return errors.Join(errs...)
}

// nodes lists the mediators in the order a commit passes through them.
func (p *pipeline) nodes() []*medNode {
	if p.tier != nil {
		return []*medNode{p.tier, p.top}
	}
	return []*medNode{p.top}
}
