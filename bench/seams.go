package main

import (
	"sync/atomic"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/wal"
	"squirrel/internal/wire"
)

// The wrappers in this file sit on the program's public seams — the
// interfaces one layer already uses to call the next — so each layer is
// timed and counted without touching a file outside bench/. While tracing is
// off a wrapper does nothing but test the switch and call through, so an
// untraced run, and the reference window of a traced one, pay one atomic load
// per call. The one exception is the count of announcements and barriers a
// backend emitted, which the correctness gate reads in every run.

// tracedBackend wraps what a wire.SourceServer serves (a source.DB, or a
// federate.Exporter via tracedTierBackend): it stamps announcements as they
// leave the backend's commit path, and times and counts snapshot polls.
type tracedBackend struct {
	wire.SourceBackend
	tr   *tracer
	node int // the mediator that polls this backend
	src  int

	polls, tuples     atomic.Int64
	announced, barred atomic.Int64
}

func (b *tracedBackend) Subscribe(h source.Handler) {
	b.SourceBackend.Subscribe(func(a source.Announcement) {
		b.announced.Add(1)
		if a.Barrier != "" {
			b.barred.Add(1)
		}
		b.tr.emit(b.src, a.Time, a.Seq)
		h(a)
	})
}

func (b *tracedBackend) polled(start int64, answers []*relation.Relation) {
	b.polls.Add(1)
	for _, a := range answers {
		b.tuples.Add(int64(a.Len()))
	}
	b.tr.done(spanSourcePoll, b.node, start, 0)
}

func (b *tracedBackend) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	if !b.tr.on.Load() {
		return b.SourceBackend.QueryMulti(specs)
	}
	start := b.tr.now()
	out, at, err := b.SourceBackend.QueryMulti(specs)
	b.polled(start, out)
	return out, at, err
}

// tracedTierBackend adds the wire.TieredBackend face, which the server
// prefers when present; only the tier's exporter has it.
type tracedTierBackend struct {
	*tracedBackend
	tiered wire.TieredBackend
}

func (b *tracedTierBackend) QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	if !b.tr.on.Load() {
		return b.tiered.QueryMultiBase(specs)
	}
	start := b.tr.now()
	out, at, base, err := b.tiered.QueryMultiBase(specs)
	b.polled(start, out)
	return out, at, base, err
}

// tracedConn wraps a mediator's connection to one source: the time spent
// here minus the backend's own poll time is the wire round trip.
type tracedConn struct {
	c    *wire.Client
	tr   *tracer
	node int
}

func (c *tracedConn) Name() string { return c.c.Name() }

func (c *tracedConn) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	out, at, _, err := c.QueryMultiBase(specs)
	return out, at, err
}

// QueryMultiBase implements core.TieredConn, as wire.Client does: the base
// vector is nil when the peer is a plain source.
func (c *tracedConn) QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	if !c.tr.on.Load() {
		return c.c.QueryMultiBase(specs)
	}
	start := c.tr.now()
	out, at, base, err := c.c.QueryMultiBase(specs)
	c.tr.done(spanConnPoll, c.node, start, 0)
	return out, at, base, err
}

// tracedLog wraps the mediator's durability hook.
type tracedLog struct {
	inner core.CommitLog
	tr    *tracer
	node  int
}

func (l *tracedLog) LogCommit(rec *core.CommitRecord) error {
	if !l.tr.on.Load() {
		return l.inner.LogCommit(rec)
	}
	start := l.tr.now()
	err := l.inner.LogCommit(rec)
	l.tr.done(spanLogCommit, l.node, start, rec.Version)
	return err
}

func (l *tracedLog) LogBarrier(version uint64, reason string) error {
	return l.inner.LogBarrier(version, reason)
}

func (l *tracedLog) Sync() error { return l.inner.Sync() }

// walCounters accumulates what every segment file of one WAL directory saw.
type walCounters struct {
	writes, bytes, syncs atomic.Int64
}

// tracedFile wraps one WAL segment file (wal.Options.WrapFile).
type tracedFile struct {
	wal.File
	tr   *tracer
	node int
	c    *walCounters
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.tr.on.Load() {
		return f.File.WriteAt(p, off)
	}
	n, err := f.File.WriteAt(p, off)
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	start := f.tr.now()
	err := f.File.Sync()
	f.c.syncs.Add(1)
	f.tr.done(spanWALSync, f.node, start, 0)
	return err
}

var (
	_ wire.SourceBackend = (*tracedBackend)(nil)
	_ wire.TieredBackend = (*tracedTierBackend)(nil)
	_ core.TieredConn    = (*tracedConn)(nil)
	_ core.CommitLog     = (*tracedLog)(nil)
	_ wal.File           = (*tracedFile)(nil)
)
