package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/metrics"
	"squirrel/internal/wal"
)

// recovery is one timed Recover call.
type recovery struct {
	took     time.Duration
	replayed int
}

// recoverPhase crashes the top mediator's WAL and times recovery from it.
//
// The log tail at the kill decides how much work a recovery does, so it is
// made the same for every run: the flush loop is stopped, a checkpoint is
// taken, then exactly TailRecords commits are logged one transaction each.
// The killed directory is copied once per recovery, each copy is recovered
// into a fresh mediator, and every recovered store must equal the last
// state published before the kill.
func recoverPhase(p *pipeline, g *loadgen, sc scale) ([]recovery, float64, error) {
	n := p.top
	if err := n.rt.Stop(); err != nil {
		return nil, 0, fmt.Errorf("stopping the flush loop: %w", err)
	}
	if err := n.wal.Checkpoint(); err != nil {
		return nil, 0, err
	}
	tail := p.w.TailRecords / sc.TailDivisor
	for i := 0; i < tail; i++ {
		want := n.med.StoreVersion() + 1
		r := g.apply(g.gen.next(), g.tr.now(), phaseTail)
		if r.err != nil {
			return nil, 0, fmt.Errorf("tail commit %d: %w", r.id, r.err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for n.med.QueueLen() == 0 {
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("tail commit %d never reached the top mediator", r.id)
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := n.rt.Flush(); err != nil {
			return nil, 0, fmt.Errorf("tail flush: %w", err)
		}
		if got := n.med.StoreVersion(); got != want {
			return nil, 0, fmt.Errorf("tail commit %d published v%d, want v%d", r.id, got, want)
		}
	}
	last := n.med.CurrentVersion()
	n.wal.Kill()
	dirMB, err := dirSizeMB(n.walDir)
	if err != nil {
		return nil, 0, err
	}

	var out []recovery
	for i := 0; i < sc.Recoveries; i++ {
		dir := filepath.Join(p.tmp, fmt.Sprintf("recover-%d", i))
		if err := copyDir(n.walDir, dir); err != nil {
			return nil, 0, err
		}
		reg := metrics.NewRegistry(0)
		med, err := core.New(core.Config{VDP: n.plan, Sources: n.conns, Clock: p.clk,
			PropagateWorkers: p.w.PropagateWorkers, Metrics: reg})
		if err != nil {
			return nil, 0, err
		}
		opts := n.walOpts
		opts.Dir, opts.Metrics, opts.WrapFile = dir, reg, nil
		mgr, err := wal.Open(opts)
		if err != nil {
			return nil, 0, err
		}
		begin := time.Now()
		info, err := mgr.Recover(med)
		took := time.Since(begin)
		mgr.Kill()
		if err != nil {
			return nil, 0, err
		}
		if info.Replayed != tail || info.Version != last.Seq() {
			return nil, 0, fmt.Errorf("recovery %d replayed %d records to v%d (stopped: %q), want %d records to v%d",
				i, info.Replayed, info.Version, info.Stopped, tail, last.Seq())
		}
		got := med.CurrentVersion()
		for _, node := range last.Nodes() {
			if got.Rel(node) == nil || !got.Rel(node).Equal(last.Rel(node)) {
				return nil, 0, fmt.Errorf("recovery %d: store of node %s differs from the last published state", i, node)
			}
		}
		out = append(out, recovery{took: took, replayed: info.Replayed})
	}
	return out, dirMB, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func dirSizeMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / (1 << 20), nil
}
