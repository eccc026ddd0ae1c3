package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/metrics"
	"squirrel/internal/persist"
)

// On-disk layout of a WAL directory:
//
//	checkpoint-%016d.snap   persist snapshot of store version N (atomic
//	                        tmp+fsync+rename writes; the newest readable
//	                        one is recovery's starting point)
//	wal-%016d.log           log segment; every record in it has version
//	                        greater than the segment's base N
//
// Compaction rotates to a fresh segment, snapshots the store (version
// V >= the rotated segment's base), writes checkpoint-V, and deletes
// every file the checkpoint covers. Recovery always ends with a fresh
// checkpoint + segment, so an append-side log never reopens old bytes.

// Metric names (see internal/metrics).
const (
	MetricFsyncSeconds  = "squirrel_wal_fsync_seconds"
	MetricBytesTotal    = "squirrel_wal_bytes_total"
	MetricRecordsTotal  = "squirrel_wal_records_total"
	MetricCompactions   = "squirrel_wal_compactions_total"
	MetricCompactErrors = "squirrel_wal_compact_errors_total"
	MetricReplayed      = "squirrel_wal_replayed_records_total"
	MetricRecoveries    = "squirrel_wal_recoveries_total"
	MetricSegmentBytes  = "squirrel_wal_segment_bytes"
)

// SyncPolicy decides when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncCommit (default) fsyncs inside every LogCommit: a published
	// version is always durable. One fsync per update transaction — the
	// batched runtime already coalesces N announcements into one
	// transaction, so group commit still pays one fsync per batch.
	SyncCommit SyncPolicy = iota
	// SyncBatch appends without fsync and lets the runtime's drain loop
	// call Sync once per batch: the fsync amortizes across every
	// transaction in the batch, at the cost of a bounded durability
	// window (a crash may lose the current batch, never a synced one).
	SyncBatch
	// SyncNone never fsyncs (the OS flushes when it pleases). Benchmarks
	// and tests only.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncCommit:
		return "commit"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// ParseSyncPolicy reads the -wal-fsync flag form.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit", "":
		return SyncCommit, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want commit, batch, or none)", s)
}

// Options configures a Manager.
type Options struct {
	// Dir is the WAL directory, created if absent. Required.
	Dir string
	// Policy is the fsync policy (default SyncCommit).
	Policy SyncPolicy
	// CompactEvery checkpoints after this many logged commits
	// (default 1024; negative disables periodic compaction).
	CompactEvery int
	// Metrics, if non-nil, receives the WAL instruments.
	Metrics *metrics.Registry
	// WrapFile, if non-nil, wraps every segment file the manager opens —
	// the chaos hook (resilience.FileInjector.Wrap satisfies it).
	WrapFile func(File) File
}

// RecoveryInfo describes what Recover did.
type RecoveryInfo struct {
	// CheckpointVersion is the store version of the checkpoint recovery
	// started from.
	CheckpointVersion uint64
	// Version is the store version after replay.
	Version uint64
	// Replayed counts commit records re-applied.
	Replayed int
	// Skipped counts records already covered by the checkpoint.
	Skipped int
	// TornTail is true when the scan hit a torn/corrupt record and
	// discarded the log from there on — the expected shape of a
	// mid-append crash.
	TornTail bool
	// Stopped, when non-empty, says why replay ended before the log did:
	// "barrier:<reason>" for a logged non-replayable publish, or a
	// version-gap description. Recovered state is consistent either way;
	// it is merely earlier than the log's horizon.
	Stopped string
}

// Manager owns a WAL directory: it is the core.CommitLog the mediator
// appends through, and the recovery engine that rebuilds a mediator
// from the directory after a crash.
type Manager struct {
	opts Options

	// ckptMu serializes whole Checkpoint runs (compaction goroutine,
	// Close, and explicit calls) without blocking appends.
	ckptMu sync.Mutex

	mu         sync.Mutex
	log        *log
	segBase    uint64 // base version of the open segment
	lastLogged uint64 // version of the newest logged commit record
	ckptVer    uint64 // version of the newest durable checkpoint
	sinceCkpt  int    // commits logged since that checkpoint
	running    bool   // compaction goroutine launched
	stopping   bool   // Close/Kill in progress (guards stopCh)
	closed     bool

	med *core.Mediator // attached by Start/Recover; Snapshot is lock-free

	compactCh chan struct{}
	stopCh    chan struct{}
	doneCh    chan struct{}

	fsyncHist   *metrics.Histogram
	bytesC      *metrics.Counter
	recordsC    *metrics.Counter
	compactC    *metrics.Counter
	compactErrC *metrics.Counter
	replayedC   *metrics.Counter
	recoveriesC *metrics.Counter
	segBytesG   *metrics.Gauge
}

// Open prepares a manager over dir (created if missing). No mediator is
// attached yet: call Recover (dir has state) or Start (fresh) next —
// HasState picks.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: options need a directory")
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 1024
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry(0)
	}
	m := &Manager{
		opts:        opts,
		compactCh:   make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		fsyncHist:   reg.Histogram(MetricFsyncSeconds, metrics.DefLatencyBuckets),
		bytesC:      reg.Counter(MetricBytesTotal),
		recordsC:    reg.Counter(MetricRecordsTotal),
		compactC:    reg.Counter(MetricCompactions),
		compactErrC: reg.Counter(MetricCompactErrors),
		replayedC:   reg.Counter(MetricReplayed),
		recoveriesC: reg.Counter(MetricRecoveries),
		segBytesG:   reg.Gauge(MetricSegmentBytes),
	}
	return m, nil
}

// HasState reports whether the directory holds a checkpoint to recover
// from.
func (m *Manager) HasState() (bool, error) {
	ckpts, _, err := m.scanDir()
	if err != nil {
		return false, err
	}
	return len(ckpts) > 0, nil
}

// Start attaches a freshly initialized mediator (Initialize already
// called, store version published): it writes the baseline checkpoint,
// opens the first segment, hooks the mediator's commit path, and starts
// the compaction goroutine. The directory must not already hold state.
func (m *Manager) Start(med *core.Mediator) error {
	has, err := m.HasState()
	if err != nil {
		return err
	}
	if has {
		return fmt.Errorf("wal: directory %s already holds state; use Recover", m.opts.Dir)
	}
	m.mu.Lock()
	m.med = med
	m.lastLogged = med.StoreVersion()
	m.mu.Unlock()
	if err := m.Checkpoint(); err != nil {
		return err
	}
	med.SetCommitLog(m)
	m.mu.Lock()
	m.running = true
	m.mu.Unlock()
	go m.compactLoop()
	return nil
}

// Recover rebuilds med — constructed but NOT initialized — from the
// directory: restore the newest readable checkpoint, replay the log
// tail through the mediator's own update-transaction path (stopping at
// the first torn record, version gap, or barrier), then checkpoint the
// recovered state, rotate to a fresh segment, attach the commit hook,
// and start compaction. The returned info says how far recovery got.
func (m *Manager) Recover(med *core.Mediator) (*RecoveryInfo, error) {
	ckpts, segs, err := m.scanDir()
	if err != nil {
		return nil, err
	}
	if len(ckpts) == 0 {
		return nil, fmt.Errorf("wal: no checkpoint in %s; use Start", m.opts.Dir)
	}
	// Newest readable checkpoint wins. An unreadable newer one (torn by
	// a crash that beat the atomic rename discipline, or flipped at
	// rest) falls back to its predecessor — whose log coverage is intact
	// if the failed compaction never reached its deletes.
	var snap *core.StateSnapshot
	var info RecoveryInfo
	var loadErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		snap, loadErr = persist.LoadFile(m.ckptPath(ckpts[i]))
		if loadErr == nil {
			info.CheckpointVersion = ckpts[i]
			break
		}
		if !errors.Is(loadErr, persist.ErrCorrupt) {
			return nil, loadErr
		}
	}
	if snap == nil {
		return nil, fmt.Errorf("wal: every checkpoint in %s is corrupt: %w", m.opts.Dir, loadErr)
	}
	if err := med.Restore(snap); err != nil {
		return nil, fmt.Errorf("wal: restoring checkpoint v%d: %w", info.CheckpointVersion, err)
	}

	// Replay the tail. Segments scan in base order; only the LAST may be
	// torn (a torn middle segment means later segments are unreachable —
	// the version-continuity check stops replay there anyway).
scan:
	for si, base := range segs {
		data, err := os.ReadFile(m.segPath(base))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		off := 0
		for off < len(data) {
			typ, payload, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				if si != len(segs)-1 {
					info.Stopped = fmt.Sprintf("segment wal-%d torn mid-chain: %v", base, derr)
					break scan
				}
				info.TornTail = true
				break scan
			}
			if n == 0 {
				break
			}
			off += n
			switch typ {
			case TypeBarrier:
				bp, err := decodeBarrier(payload)
				if err != nil {
					info.TornTail = true
					break scan
				}
				if bp.Version <= med.StoreVersion() {
					info.Skipped++
					continue // the checkpoint already covers it
				}
				info.Stopped = "barrier:" + bp.Reason
				break scan
			case TypeCommit:
				rec, err := decodeCommit(payload)
				if err != nil {
					info.TornTail = true
					break scan
				}
				if rec.Version <= med.StoreVersion() {
					info.Skipped++
					continue
				}
				if err := med.ReplayCommitRecord(rec); err != nil {
					if errors.Is(err, core.ErrReplayGap) {
						info.Stopped = err.Error()
						break scan
					}
					return nil, err
				}
				info.Replayed++
				m.replayedC.Inc()
			}
		}
	}
	info.Version = med.StoreVersion()
	m.recoveriesC.Inc()

	// Seal the recovery: checkpoint the recovered state and rotate, so
	// the torn tail (and anything beyond a barrier or gap) is retired
	// rather than appended over. lastLogged starts at the recovered
	// version so the rotation opens a segment PAST every old one — an
	// old segment is never truncated before the checkpoint covering its
	// replayed records is durable. (A name collision is harmless: it can
	// only happen when the old segment's entire content was discarded by
	// the torn-tail/barrier rule above.)
	m.mu.Lock()
	m.med = med
	m.lastLogged = med.StoreVersion()
	m.mu.Unlock()
	if err := m.Checkpoint(); err != nil {
		return nil, err
	}
	med.SetCommitLog(m)
	m.mu.Lock()
	m.running = true
	m.mu.Unlock()
	go m.compactLoop()
	return &info, nil
}

// LogCommit implements core.CommitLog: called by the mediator's commit
// path, under its store mutex, before the version publishes.
func (m *Manager) LogCommit(rec *core.CommitRecord) error {
	payload, err := encodeCommit(rec)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return fmt.Errorf("wal: manager not started")
	}
	n, err := m.log.append(TypeCommit, payload)
	if err != nil {
		return err
	}
	m.bytesC.Add(int64(n))
	m.recordsC.Inc()
	m.segBytesG.Set(m.log.tail)
	if m.opts.Policy == SyncCommit {
		if err := m.syncLocked(); err != nil {
			// The record's durability is unknown and the transaction is
			// about to abort; scrub it so a retry cannot leave two
			// version-N records racing for replay's attention.
			m.log.rollbackUnsynced()
			return err
		}
	}
	m.lastLogged = rec.Version
	m.sinceCkpt++
	if m.opts.CompactEvery > 0 && m.sinceCkpt >= m.opts.CompactEvery {
		m.requestCompact()
	}
	return nil
}

// LogBarrier implements core.CommitLog: a publish replay cannot cross.
// The barrier record is best-effort (the version-continuity check backs
// it up); a checkpoint is scheduled so the unreplayable region retires
// promptly.
func (m *Manager) LogBarrier(version uint64, reason string) error {
	payload, err := json.Marshal(barrierPayload{Version: version, Reason: reason})
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return fmt.Errorf("wal: manager not started")
	}
	n, err := m.log.append(TypeBarrier, payload)
	if err != nil {
		return err
	}
	m.bytesC.Add(int64(n))
	m.recordsC.Inc()
	if m.opts.Policy == SyncCommit {
		if err := m.syncLocked(); err != nil {
			m.log.rollbackUnsynced()
			return err
		}
	}
	m.requestCompact()
	return nil
}

// Sync implements core.CommitLog: the group-commit flush point under
// SyncBatch (no-op when nothing is buffered).
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil || m.opts.Policy == SyncNone {
		return nil
	}
	return m.syncLocked()
}

func (m *Manager) syncLocked() error {
	if m.log.unsynced() == 0 {
		return nil
	}
	start := time.Now()
	if err := m.log.sync(); err != nil {
		return err
	}
	m.fsyncHist.ObserveSince(start)
	return nil
}

// Checkpoint snapshots the attached mediator's current store version,
// writes it as the newest checkpoint, rotates to a fresh segment, and
// deletes every file the checkpoint covers. Safe while commits flow:
// the snapshot is copy-on-write off the published version, and rotation
// happens first, so any commit racing the checkpoint lands in a segment
// the garbage collector provably keeps.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	m.mu.Lock()
	if m.med == nil {
		m.mu.Unlock()
		return fmt.Errorf("wal: no mediator attached")
	}
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("wal: manager closed")
	}
	med := m.med
	// Rotate FIRST: every record <= lastLogged is sealed in the old
	// segments, and the snapshot below (taken after) can only be at a
	// version >= any record the GC will delete.
	rotated := m.lastLogged
	if m.log == nil || m.log.tail > 0 || rotated > m.segBase {
		if err := m.rotateLocked(rotated); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Unlock()

	snap, err := med.Snapshot()
	if err != nil {
		return err
	}
	if err := persist.SaveFile(m.ckptPath(snap.StoreVersion), snap); err != nil {
		return err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if snap.StoreVersion > m.ckptVer {
		m.ckptVer = snap.StoreVersion
	}
	m.sinceCkpt = 0
	m.compactC.Inc()
	return m.gcLocked()
}

// syncDir makes a new directory entry durable; tests swap it to observe
// when rotation syncs.
var syncDir = persist.SyncDir

// rotateLocked (mu held) seals the open segment and opens a fresh one
// based at base. The directory is synced before the segment takes its
// first record: without that, a crash can lose the segment's entry, and
// with it every commit whose own fsync succeeded.
func (m *Manager) rotateLocked(base uint64) error {
	f, err := os.OpenFile(m.segPath(base), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(m.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	var file File = f
	if m.opts.WrapFile != nil {
		file = m.opts.WrapFile(file)
	}
	if m.log != nil {
		if m.log.unsynced() > 0 {
			m.log.sync() //nolint:errcheck // best effort: SyncBatch tolerates losing an unsynced tail
		}
		m.log.close() //nolint:errcheck // sealed segment; scan-time CRC is the authority
	}
	m.log = newLog(file)
	m.segBase = base
	m.segBytesG.Set(0)
	return nil
}

// gcLocked deletes checkpoints older than the newest and every sealed
// segment whose records are all covered by it. A sealed segment's
// records are bounded above by the NEXT segment's base, so it is
// deletable exactly when that next base is <= the checkpoint version.
func (m *Manager) gcLocked() error {
	ckpts, segs, err := m.scanDir()
	if err != nil {
		return err
	}
	var firstErr error
	for _, v := range ckpts {
		if v < m.ckptVer {
			if err := os.Remove(m.ckptPath(v)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for i, base := range segs {
		if base == m.segBase {
			continue
		}
		next := m.segBase
		if i+1 < len(segs) {
			next = segs[i+1]
		}
		if next <= m.ckptVer {
			if err := os.Remove(m.segPath(base)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (m *Manager) requestCompact() {
	select {
	case m.compactCh <- struct{}{}:
	default:
	}
}

func (m *Manager) compactLoop() {
	defer close(m.doneCh)
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.compactCh:
			if err := m.Checkpoint(); err != nil {
				m.compactErrC.Inc()
			}
		}
	}
}

// Close stops compaction, takes a final checkpoint (so restart replays
// nothing), and closes the segment. Detach the mediator's runtime
// first; the mediator's commit log is unhooked here.
func (m *Manager) Close() error {
	med, running, ok := m.beginStop()
	if !ok {
		return nil
	}
	if running {
		close(m.stopCh)
		<-m.doneCh
	}
	if med != nil {
		med.SetCommitLog(nil)
	}
	var err error
	if med != nil {
		err = m.Checkpoint()
	}
	m.mu.Lock()
	m.closed = true
	if m.log != nil {
		if cerr := m.log.close(); cerr != nil && err == nil {
			err = cerr
		}
		m.log = nil
	}
	m.mu.Unlock()
	return err
}

// Kill abandons the manager the way a crash would: the compaction
// goroutine stops, the open segment closes with no sync and no final
// checkpoint, and the directory is left exactly as the "power cut" left
// it. Crash-soak hook; production shutdown is Close.
func (m *Manager) Kill() {
	med, running, ok := m.beginStop()
	if !ok {
		return
	}
	if running {
		close(m.stopCh)
		<-m.doneCh
	}
	if med != nil {
		med.SetCommitLog(nil)
	}
	m.mu.Lock()
	m.closed = true
	if m.log != nil {
		m.log.close() //nolint:errcheck // simulated crash: the error is the point
		m.log = nil
	}
	m.mu.Unlock()
}

// beginStop claims the one-shot shutdown transition; ok is false when a
// Close or Kill already ran.
func (m *Manager) beginStop() (med *core.Mediator, running, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.stopping {
		return nil, false, false
	}
	m.stopping = true
	return m.med, m.running, true
}

// --- directory layout helpers ---

func (m *Manager) ckptPath(v uint64) string {
	return filepath.Join(m.opts.Dir, fmt.Sprintf("checkpoint-%016d.snap", v))
}

func (m *Manager) segPath(v uint64) string {
	return filepath.Join(m.opts.Dir, fmt.Sprintf("wal-%016d.log", v))
}

// scanDir lists checkpoint and segment versions, each sorted ascending.
// Stray files (tmp leftovers from an interrupted atomic save) are
// ignored.
func (m *Manager) scanDir() (ckpts, segs []uint64, err error) {
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".snap"):
			if v, ok := parseVersion(name, "checkpoint-", ".snap"); ok {
				ckpts = append(ckpts, v)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if v, ok := parseVersion(name, "wal-", ".log"); ok {
				segs = append(segs, v)
			}
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

func parseVersion(name, prefix, suffix string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
