// Package node starts a production mediator in one order: the mediator,
// its optional write-ahead log, recovery or initialization, the
// announcement feeds, and the catch-up after recovery. The public System,
// the serve-mediator command and the examples all start through it.
package node

import (
	"fmt"
	"sort"
	"sync"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/source"
	"squirrel/internal/wal"
)

// Config is what a start needs beyond the mediator's own configuration.
type Config struct {
	Mediator core.Config
	// WAL, if non-nil, backs the mediator with a write-ahead delta log
	// (Metrics default to the mediator's registry).
	WAL *wal.Options
	// Attach connects a source's announcement feed, per source name:
	// source.DB.Subscribe or wire.Client.OnAnnounce.
	Attach map[string]func(source.Handler)
	// Replay re-announces a source's commits after a time, per source
	// name: source.DB.ReplaySince. After recovery, a source without one
	// is quarantined, so the first flush resyncs it.
	Replay map[string]func(clock.Time, source.Handler)
}

// Node is a started mediator with its log.
type Node struct {
	Mediator *core.Mediator
	WAL      *wal.Manager      // nil without a log
	Recovery *wal.RecoveryInfo // nil unless the log held state
}

// Start builds the mediator in the one order:
//
//  1. core.New, then open the WAL if one is configured;
//  2. if the log holds state: Recover, attach the feeds, and catch up —
//     replay each source's log from ref′ where it offers a replay,
//     quarantine it otherwise;
//  3. else: attach the feeds, Initialize, and start the WAL.
//
// Feeds attach before Initialize, so a commit racing the initial poll is
// queued (Initialize drops what its poll covers) instead of falling
// between the poll and the first delivered announcement. The caller then
// installs its export and starts the runtime.
func Start(cfg Config) (*Node, error) {
	med, err := core.New(cfg.Mediator)
	if err != nil {
		return nil, err
	}
	n := &Node{Mediator: med}
	recovering := false
	if cfg.WAL != nil {
		opts := *cfg.WAL
		if opts.Metrics == nil {
			opts.Metrics = med.Metrics()
		}
		if n.WAL, err = wal.Open(opts); err != nil {
			return nil, err
		}
		if recovering, err = n.WAL.HasState(); err != nil {
			return nil, err
		}
	}
	if !recovering {
		for _, attach := range cfg.Attach {
			attach(med.OnAnnouncement)
		}
		if err := med.Initialize(); err != nil {
			return nil, err
		}
		if n.WAL != nil {
			err = n.WAL.Start(med)
		}
		return n, err
	}
	if n.Recovery, err = n.WAL.Recover(med); err != nil {
		return nil, fmt.Errorf("recovering WAL: %w", err)
	}
	lp := med.LastProcessed()
	names := make([]string, 0, len(cfg.Mediator.Sources))
	for name := range cfg.Mediator.Sources {
		names = append(names, name)
	}
	sort.Strings(names) // replay and quarantine in a fixed order
	for _, name := range names {
		attach, replay := cfg.Attach[name], cfg.Replay[name]
		if replay == nil {
			if attach != nil {
				attach(med.OnAnnouncement)
			}
			med.QuarantineSource(name, "recovered from WAL; commits during downtime unseen")
			continue
		}
		f := &heldFeed{med: med}
		if attach != nil {
			attach(f.announce)
		}
		replay(lp[name], med.OnAnnouncement)
		f.release()
	}
	return n, nil
}

// heldFeed holds a recovered source's live announcements until its replay
// is delivered: a live one arriving first would raise the source's
// sequence mark, and the replayed commits below it would be dropped as
// duplicates. Released, it passes announcements straight through.
type heldFeed struct {
	mu   sync.Mutex
	med  *core.Mediator
	held []source.Announcement
	open bool
}

func (f *heldFeed) announce(a source.Announcement) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		f.held = append(f.held, a)
		return
	}
	f.med.OnAnnouncement(a)
}

func (f *heldFeed) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.held {
		f.med.OnAnnouncement(a) // the mediator drops what the replay covered
	}
	f.held, f.open = nil, true
}
