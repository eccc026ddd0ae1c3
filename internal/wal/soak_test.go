package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
)

// TestCrashRecoverySoak is the chaos acceptance test: a seeded loop that
// kills the mediator mid-commit — a scripted "power cut" tearing the WAL
// at a random byte — then recovers, over and over. After every single
// recovery the recovered store must be byte-identical to the last state
// the dead mediator published (the durable-before-publish invariant
// under SyncCommit: no published version is ever lost), catch-up must
// need only the announcements committed while dead (never a full source
// resync), and at the end the whole survivor chain must be
// byte-identical to a never-crashed oracle replaying the same commits.
func TestCrashRecoverySoak(t *testing.T) {
	cycles := 40
	if testing.Short() {
		cycles = 12
	}
	for _, tc := range []struct {
		seed         int64
		compactEvery int
	}{
		{seed: 1, compactEvery: -1}, // pure replay: the log carries everything
		{seed: 2, compactEvery: 3},  // compaction races the crashes
		{seed: 3, compactEvery: 7},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d,compact=%d", tc.seed, tc.compactEvery), func(t *testing.T) {
			runCrashSoak(t, tc.seed, tc.compactEvery, cycles)
		})
	}
}

func runCrashSoak(t *testing.T, seed int64, compactEvery, cycles int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	e := newWalEnv(t)

	med := e.startFresh(t)
	baseSnap, err := med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseVersion := med.StoreVersion()

	newManager := func() (*Manager, *resilience.FileInjector) {
		inj := resilience.NewFileInjector()
		mgr := openManager(t, dir, func(o *Options) {
			o.CompactEvery = compactEvery
			o.WrapFile = func(f File) File { return inj.Wrap(f) }
		})
		return mgr, inj
	}

	mgr, inj := newManager()
	if err := mgr.Start(med); err != nil {
		t.Fatal(err)
	}

	// script records the global order of source commits; the oracle
	// replays it at the end. lastGood is the newest published state.
	var script []string
	lastGood := snapBytes(t, med)
	lastGoodVersion := med.StoreVersion()
	crashes, cleanStops := 0, 0

	commitOnce := func() error {
		e.applyOne(t)
		script = append(script, []string{"db2", "db1", "db1"}[e.n%3])
		_, err := med.RunUpdateTransaction()
		if err == nil {
			lastGood = snapBytes(t, med)
			lastGoodVersion = med.StoreVersion()
		}
		return err
	}

	for cycle := 0; cycle < cycles; cycle++ {
		// Script this life's power cut: a random byte offset a few
		// records ahead in the WAL's write stream.
		clean := rng.Intn(5) == 0
		if !clean {
			inj.KillAtByte(int64(inj.Counts().BytesWritten) + int64(1+rng.Intn(1200)))
		}
		crashed := false
		for i := 0; i < 64; i++ {
			if err := commitOnce(); err != nil {
				crashed = true
				break
			}
		}
		if clean && !crashed {
			cleanStops++
		} else if !crashed {
			t.Fatalf("cycle %d: kill point never fired over 64 commits", cycle)
		} else {
			crashes++
		}
		mgr.Kill()

		// Next life: recover a brand-new mediator from the directory.
		med = e.newMediator(t)
		mgr, inj = newManager()
		info, err := mgr.Recover(med)
		if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if info.Version != lastGoodVersion {
			t.Fatalf("cycle %d: recovered version %d, want last published %d (info %+v)",
				cycle, info.Version, lastGoodVersion, info)
		}
		if got := snapBytes(t, med); !bytes.Equal(got, lastGood) {
			t.Fatalf("cycle %d: recovered state differs from last published state", cycle)
		}
		if med.Stats().Resyncs != 0 {
			t.Fatalf("cycle %d: recovery resorted to a source resync", cycle)
		}

		// Catch up on commits the dead mediator lost with its queue —
		// one transaction per announcement, so version numbering stays
		// aligned with the oracle's.
		e.connect(med)
		lp := med.LastProcessed()
		var missed []source.Announcement
		for _, db := range []*source.DB{e.db1, e.db2} {
			db.ReplaySince(lp[db.Name()], func(a source.Announcement) {
				missed = append(missed, a)
			})
		}
		if len(missed) > 3 {
			t.Fatalf("cycle %d: %d missed announcements, want at most the crashed batch", cycle, len(missed))
		}
		for _, a := range missed {
			med.OnAnnouncement(a)
			if ran, err := med.RunUpdateTransaction(); err != nil || !ran {
				t.Fatalf("cycle %d: catch-up txn: ran=%v err=%v", cycle, ran, err)
			}
			lastGood = snapBytes(t, med)
			lastGoodVersion = med.StoreVersion()
		}
		// The recovered store (checkpoint restore + replayed tail + catch-up)
		// carries exactly the plan's join indexes, each agreeing with a scan.
		if err := med.CheckJoinIndexes(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}

		// The WAL directory stays bounded: recovery always retires the
		// replayed log behind a fresh checkpoint.
		if entries, err := os.ReadDir(dir); err != nil || len(entries) > 6 {
			t.Fatalf("cycle %d: %d files in WAL dir (err %v), compaction is not keeping up", cycle, len(entries), err)
		}
	}
	mgr.Kill()
	if crashes == 0 {
		t.Fatal("soak never crashed; chaos script is broken")
	}
	t.Logf("soak: %d crashes, %d clean stops, %d commits, final version %d",
		crashes, cleanStops, len(script), lastGoodVersion)

	// The never-crashed oracle: restore the birth snapshot, replay every
	// source commit in script order, one transaction each. Its final
	// state must be byte-identical to the survivor chain's.
	oracle := e.newMediator(t)
	if err := oracle.Restore(baseSnap); err != nil {
		t.Fatal(err)
	}
	feeds := map[string][]source.Announcement{}
	for _, db := range []*source.DB{e.db1, e.db2} {
		name := db.Name()
		db.ReplaySince(baseSnap.LastProcessed[name], func(a source.Announcement) {
			feeds[name] = append(feeds[name], a)
		})
	}
	for i, src := range script {
		if len(feeds[src]) == 0 {
			t.Fatalf("oracle script entry %d: no %s announcement left", i, src)
		}
		a := feeds[src][0]
		feeds[src] = feeds[src][1:]
		oracle.OnAnnouncement(a)
		if ran, err := oracle.RunUpdateTransaction(); err != nil || !ran {
			t.Fatalf("oracle txn %d: ran=%v err=%v", i, ran, err)
		}
	}
	if got := oracle.StoreVersion(); got != baseVersion+uint64(len(script)) || got != lastGoodVersion {
		t.Fatalf("oracle version %d, want %d (= survivor %d)", got, baseVersion+uint64(len(script)), lastGoodVersion)
	}
	if !bytes.Equal(snapBytes(t, oracle), lastGood) {
		t.Fatal("survivor chain state differs from the never-crashed oracle")
	}
}

// gatedLog passes commits through to the manager, but its first
// LogCommit blocks until release is closed — holding the runtime inside a
// transaction while more announcements queue up.
type gatedLog struct {
	core.CommitLog
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedLog) LogCommit(rec *core.CommitRecord) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.CommitLog.LogCommit(rec)
}

// TestRuntimeGroupCommit wires the WAL under the runtime's group commit:
// the announcements that arrive while a transaction is in flight coalesce
// into the next transaction (one record), and under SyncBatch the
// runtime's Sync after each transaction makes its batch durable — one
// fsync per batch, and a crash after the flush loses nothing.
func TestRuntimeGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med := e.startFresh(t)
	inj := resilience.NewFileInjector()
	mgr := openManager(t, dir, func(o *Options) {
		o.Policy = SyncBatch
		o.WrapFile = func(f File) File { return inj.Wrap(f) }
	})
	if err := mgr.Start(med); err != nil {
		t.Fatal(err)
	}
	gate := &gatedLog{CommitLog: mgr, entered: make(chan struct{}), release: make(chan struct{})}
	med.SetCommitLog(gate)
	baseVersion, baseSyncs := med.StoreVersion(), inj.Counts().Syncs

	rt, err := core.NewRuntime(med, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	const commits = 12
	e.applyOne(t)
	select {
	case <-gate.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("runtime never started a transaction")
	}
	for i := 1; i < commits; i++ {
		e.applyOne(t)
	}
	close(gate.release)
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, med)
	wantVersion := med.StoreVersion()
	syncs := inj.Counts().Syncs - baseSyncs
	mgr.Kill()

	if wantVersion != baseVersion+2 {
		t.Fatalf("version %d after %d commits from v%d: want 2 transactions, the first and one for the %d that queued behind it",
			wantVersion, commits, baseVersion, commits-1)
	}
	if syncs != 2 {
		t.Fatalf("%d fsyncs for 2 batches, want one per batch", syncs)
	}

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != wantVersion {
		t.Fatalf("recovered version %d, want %d", info.Version, wantVersion)
	}
	if !bytes.Equal(snapBytes(t, med2), want) {
		t.Fatal("recovered state differs from batched-runtime state")
	}
}
