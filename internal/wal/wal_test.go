package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/persist"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
)

// testPlan is the paper's T = π(σ(R ⋈ S)) view over db1/db2, fully
// materialized (the default) so recovery replay needs no source polls.
func testPlan(t testing.TB) *vdp.VDP {
	t.Helper()
	b := vdp.NewBuilder()
	if err := b.AddSource("db1", schemaR()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSource("db2", schemaS()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("T",
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`); err != nil {
		t.Fatal(err)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func schemaR() *relation.Schema {
	return relation.MustSchema("R", []relation.Attribute{
		{Name: "r1", Type: relation.KindInt}, {Name: "r2", Type: relation.KindInt},
		{Name: "r3", Type: relation.KindInt}, {Name: "r4", Type: relation.KindInt}}, "r1")
}

func schemaS() *relation.Schema {
	return relation.MustSchema("S", []relation.Attribute{
		{Name: "s1", Type: relation.KindInt}, {Name: "s2", Type: relation.KindInt},
		{Name: "s3", Type: relation.KindInt}}, "s1")
}

// walEnv is one "world": a logical clock and two source databases that
// survive mediator crashes (sources are other people's computers).
type walEnv struct {
	clk *clock.Logical
	db1 *source.DB
	db2 *source.DB
	n   int // commits issued so far (distinct keys)
}

func newWalEnv(t testing.TB) *walEnv {
	t.Helper()
	clk := &clock.Logical{}
	db1 := source.NewDB("db1", clk)
	if err := db1.CreateRelation(schemaR(), relation.Set); err != nil {
		t.Fatal(err)
	}
	db2 := source.NewDB("db2", clk)
	if err := db2.CreateRelation(schemaS(), relation.Set); err != nil {
		t.Fatal(err)
	}
	return &walEnv{clk: clk, db1: db1, db2: db2}
}

// newMediator builds a mediator over the env's sources. Announcement
// feeds are NOT connected; the caller decides (a recovering mediator
// must replay with an empty queue).
func (e *walEnv) newMediator(t testing.TB) *core.Mediator {
	t.Helper()
	med, err := core.New(core.Config{
		VDP: testPlan(t),
		Sources: map[string]core.SourceConn{
			"db1": core.LocalSource{DB: e.db1},
			"db2": core.LocalSource{DB: e.db2},
		},
		Clock: e.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

func (e *walEnv) connect(med *core.Mediator) {
	core.ConnectLocal(med, e.db1)
	core.ConnectLocal(med, e.db2)
}

// startFresh assembles a connected, initialized mediator — "first boot".
func (e *walEnv) startFresh(t testing.TB) *core.Mediator {
	t.Helper()
	med := e.newMediator(t)
	e.connect(med)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	return med
}

// commit applies one distinct-keyed transaction to db1 or db2
// (alternating-ish by call count) and runs one update transaction.
func (e *walEnv) commit(t testing.TB, med *core.Mediator) {
	t.Helper()
	e.applyOne(t)
	if ran, err := med.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("commit %d: ran=%v err=%v", e.n, ran, err)
	}
}

// applyOne commits the next scripted transaction to a source (no
// mediator involvement).
func (e *walEnv) applyOne(t testing.TB) {
	t.Helper()
	e.n++
	d := delta.New()
	if e.n%3 == 0 {
		d.Insert("S", relation.T(int64(2000+e.n), int64(e.n%9), int64(e.n%60)))
		e.db2.MustApply(d)
		return
	}
	d.Insert("R", relation.T(int64(1000+e.n), int64(2000+3*e.n), int64(e.n%7), int64(100)))
	e.db1.MustApply(d)
}

// snapBytes serializes the mediator's state — the byte-identical oracle
// comparison (persist output is deterministic: sorted rows, sorted JSON
// keys).
func snapBytes(t testing.TB, med *core.Mediator) []byte {
	t.Helper()
	snap, err := med.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openManager(t testing.TB, dir string, mut func(*Options)) *Manager {
	t.Helper()
	opts := Options{Dir: dir, Policy: SyncCommit, CompactEvery: -1}
	if mut != nil {
		mut(&opts)
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lastSegment returns the path of the highest-based segment file.
func lastSegment(t testing.TB, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") && name > last {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no segment file in", dir)
	}
	return filepath.Join(dir, last)
}

func countFiles(t testing.TB, dir, prefix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

// TestManagerLogsAndRecovers is the tentpole invariant end to end: boot,
// commit, crash without warning, recover — and the recovered mediator is
// byte-identical to the pre-crash one.
func TestManagerLogsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	base := med1.StoreVersion()

	mgr1 := openManager(t, dir, nil)
	if has, err := mgr1.HasState(); err != nil || has {
		t.Fatalf("fresh dir HasState = %v, %v", has, err)
	}
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	const commits = 5
	for i := 0; i < commits; i++ {
		e.commit(t, med1)
	}
	want := snapBytes(t, med1)
	wantVersion := med1.StoreVersion()
	mgr1.Kill() // power cut: no Close, no final checkpoint

	med2 := e.newMediator(t)
	mgr2 := openManager(t, dir, nil)
	if has, err := mgr2.HasState(); err != nil || !has {
		t.Fatalf("HasState = %v, %v after crash", has, err)
	}
	info, err := mgr2.Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointVersion != base || info.Version != wantVersion ||
		info.Replayed != commits || info.TornTail || info.Stopped != "" {
		t.Fatalf("recovery info %+v, want ckpt=%d version=%d replayed=%d clean", info, base, wantVersion, commits)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from pre-crash state:\n%s\nwant\n%s", got, want)
	}

	// The recovered mediator is live: new commits log and survive a
	// clean restart with nothing to replay.
	e.connect(med2)
	e.commit(t, med2)
	want2 := snapBytes(t, med2)
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	med3 := e.newMediator(t)
	mgr3 := openManager(t, dir, nil)
	info, err = mgr3.Recover(med3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 0 || info.Version != wantVersion+1 {
		t.Fatalf("post-Close recovery info %+v, want replayed=0 version=%d", info, wantVersion+1)
	}
	if got := snapBytes(t, med3); !bytes.Equal(got, want2) {
		t.Fatal("state after clean restart differs")
	}
	mgr3.Kill()
}

// TestManagerTornTailRecovery chops bytes off the live segment — the
// classic mid-append power cut — and recovery must stop cleanly at the
// last complete record.
func TestManagerTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	// Snapshot after every commit: byVersion[v] is the oracle at v.
	byVersion := map[uint64][]byte{med1.StoreVersion(): snapBytes(t, med1)}
	for i := 0; i < 4; i++ {
		e.commit(t, med1)
		byVersion[med1.StoreVersion()] = snapBytes(t, med1)
	}
	final := med1.StoreVersion()
	mgr1.Kill()

	// Tear the tail: drop 7 bytes from the end of the last record.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail || info.Version != final-1 || info.Replayed != 3 {
		t.Fatalf("recovery info %+v, want torn tail at version %d", info, final-1)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, byVersion[final-1]) {
		t.Fatal("recovered state differs from oracle at the torn-tail version")
	}
}

// TestManagerBitFlipStopsReplay flips one byte in the middle of the
// segment: every record before it replays, everything after is
// discarded, and the run is reported torn.
func TestManagerBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	byVersion := map[uint64][]byte{}
	for i := 0; i < 6; i++ {
		e.commit(t, med1)
		byVersion[med1.StoreVersion()] = snapBytes(t, med1)
	}
	mgr1.Kill()

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail {
		t.Fatalf("recovery info %+v, want TornTail", info)
	}
	if info.Replayed == 0 || info.Replayed >= 6 {
		t.Fatalf("replayed %d records, want a proper prefix of 6", info.Replayed)
	}
	want, ok := byVersion[info.Version]
	if !ok {
		t.Fatalf("recovered to version %d, never published", info.Version)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from oracle at the stop version")
	}
}

// TestManagerFsyncFailureAbortsCommit: under SyncCommit a failed fsync
// aborts the transaction (nothing published), the suspect record is
// rolled back (no duplicate on retry), and the retry commits.
func TestManagerFsyncFailureAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	inj := resilience.NewFileInjector()
	mgr1 := openManager(t, dir, func(o *Options) {
		o.WrapFile = func(f File) File { return inj.Wrap(f) }
	})
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	e.commit(t, med1)
	before := med1.StoreVersion()

	inj.FailSyncNext(1)
	e.applyOne(t)
	if _, err := med1.RunUpdateTransaction(); !errors.Is(err, resilience.ErrSyncFailed) {
		t.Fatalf("err = %v, want ErrSyncFailed", err)
	}
	if got := med1.StoreVersion(); got != before {
		t.Fatalf("version advanced to %d despite failed fsync", got)
	}
	if n := med1.QueueLen(); n != 1 {
		t.Fatalf("queue len %d after aborted commit, want 1", n)
	}
	// Retry commits; crash; recovery sees exactly one record per version.
	if ran, err := med1.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("retry: ran=%v err=%v", ran, err)
	}
	want := snapBytes(t, med1)
	mgr1.Kill()

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 || info.Version != before+1 {
		t.Fatalf("recovery info %+v, want 2 records to version %d", info, before+1)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after fsync-failure retry")
	}
}

// TestManagerShortWriteHeals: a torn append (ENOSPC/EINTR-style) rolls
// back in place; the log stays scannable and the retry lands.
func TestManagerShortWriteHeals(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	inj := resilience.NewFileInjector()
	mgr1 := openManager(t, dir, func(o *Options) {
		o.WrapFile = func(f File) File { return inj.Wrap(f) }
	})
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	e.commit(t, med1)

	inj.ShortWriteNext(1, 9) // tear mid-header
	e.applyOne(t)
	if _, err := med1.RunUpdateTransaction(); !errors.Is(err, resilience.ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if ran, err := med1.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("retry: ran=%v err=%v", ran, err)
	}
	e.commit(t, med1)
	want := snapBytes(t, med1)
	wantVersion := med1.StoreVersion()
	mgr1.Kill()

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornTail || info.Version != wantVersion {
		t.Fatalf("recovery info %+v, want clean log to version %d", info, wantVersion)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after healed short write")
	}
}

// TestManagerCheckpointRetiresLog: an explicit checkpoint rotates,
// leaves exactly one checkpoint + one live segment, and recovery
// replays only records logged after it.
func TestManagerCheckpointRetiresLog(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.commit(t, med1)
	}
	if err := mgr1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := countFiles(t, dir, "checkpoint-"); n != 1 {
		t.Fatalf("%d checkpoints after compaction, want 1", n)
	}
	if n := countFiles(t, dir, "wal-"); n != 1 {
		t.Fatalf("%d segments after compaction, want 1", n)
	}
	for i := 0; i < 2; i++ {
		e.commit(t, med1)
	}
	want := snapBytes(t, med1)
	mgr1.Kill()

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 || info.Skipped != 0 {
		t.Fatalf("recovery info %+v, want exactly the 2 post-checkpoint records", info)
	}
	if got := snapBytes(t, med2); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after compaction")
	}
}

// TestManagerPeriodicCompaction: CompactEvery triggers the async
// compaction goroutine, which retires the log without being asked.
func TestManagerPeriodicCompaction(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	base := med1.StoreVersion()
	mgr1 := openManager(t, dir, func(o *Options) { o.CompactEvery = 2 })
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	defer mgr1.Kill()
	for i := 0; i < 6; i++ {
		e.commit(t, med1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mgr1.mu.Lock()
		ckpt := mgr1.ckptVer
		mgr1.mu.Unlock()
		if ckpt >= base+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never advanced the checkpoint past %d", ckpt)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverFallsBackToOlderCheckpoint: a corrupt newest checkpoint is
// skipped and recovery restarts from its predecessor plus the log —
// whether the damage leaves the header readable or not.
func TestRecoverFallsBackToOlderCheckpoint(t *testing.T) {
	for name, bogusData := range map[string][]byte{
		"checksum mismatch": []byte("%SQRLSNAP v3 crc32c=deadbeef len=4\nxxxx"),
		"zero filled":       make([]byte, 4096),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := newWalEnv(t)
			med1 := e.startFresh(t)
			base := med1.StoreVersion()
			mgr1 := openManager(t, dir, nil)
			if err := mgr1.Start(med1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				e.commit(t, med1)
			}
			want := snapBytes(t, med1)
			wantVersion := med1.StoreVersion()
			mgr1.Kill()

			// A corrupt "newer" checkpoint appears (damaged at rest).
			bogus := filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.snap", wantVersion+10))
			if err := os.WriteFile(bogus, bogusData, 0o644); err != nil {
				t.Fatal(err)
			}

			med2 := e.newMediator(t)
			info, err := openManager(t, dir, nil).Recover(med2)
			if err != nil {
				t.Fatal(err)
			}
			if info.CheckpointVersion != base || info.Version != wantVersion || info.Replayed != 3 {
				t.Fatalf("recovery info %+v, want fallback to ckpt %d and full replay", info, base)
			}
			if got := snapBytes(t, med2); !bytes.Equal(got, want) {
				t.Fatal("recovered state differs after checkpoint fallback")
			}
		})
	}
}

// TestRecoverAllCheckpointsCorrupt: when no checkpoint is readable,
// recovery refuses loudly instead of inventing an empty store.
func TestRecoverAllCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	e.commit(t, med1)
	mgr1.Kill()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "checkpoint-") {
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	med2 := e.newMediator(t)
	if _, err := openManager(t, dir, nil).Recover(med2); err == nil {
		t.Fatal("Recover succeeded with every checkpoint corrupt")
	}
}

// TestStartRefusesExistingState: booting fresh over a directory that
// holds a previous life's state must be an explicit error.
func TestStartRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	mgr1.Kill()
	if err := openManager(t, dir, nil).Start(e.newMediator(t)); err == nil {
		t.Fatal("Start succeeded over an existing WAL directory")
	}
	med2 := e.newMediator(t)
	if _, err := openManager(t, t.TempDir(), nil).Recover(med2); err == nil {
		t.Fatal("Recover succeeded on a directory without state")
	}
}

// TestBarrierStopsReplay: a resync publish logs a barrier; recovery
// stops there instead of replaying across the unreplayable publish.
func TestBarrierStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e := newWalEnv(t)
	med1 := e.startFresh(t)
	// Disable compaction entirely so the barrier stays in the log tail
	// (normally a barrier schedules an immediate checkpoint that retires
	// it; killing the manager right after leaves it visible).
	mgr1 := openManager(t, dir, nil)
	if err := mgr1.Start(med1); err != nil {
		t.Fatal(err)
	}
	e.commit(t, med1)
	preBarrier := snapBytes(t, med1)
	preVersion := med1.StoreVersion()

	med1.QuarantineSource("db1", "test")
	e.applyOne(t) // lands while quarantined
	if err := med1.ResyncSource("db1"); err != nil {
		t.Fatal(err)
	}
	mgr1.Kill() // crash before the barrier-triggered checkpoint lands

	med2 := e.newMediator(t)
	info, err := openManager(t, dir, nil).Recover(med2)
	if err != nil {
		t.Fatal(err)
	}
	// Either the barrier stopped replay at the pre-resync version (the
	// barrier-triggered checkpoint lost the race with the crash), or the
	// checkpoint landed and recovery starts at the resync version. Both
	// are consistent; replaying PAST the barrier would not be.
	switch {
	case strings.HasPrefix(info.Stopped, "barrier:resync:db1") && info.Version == preVersion:
		if got := snapBytes(t, med2); !bytes.Equal(got, preBarrier) {
			t.Fatal("recovered state differs from pre-barrier oracle")
		}
	case info.Stopped == "" && info.Version > preVersion && info.Replayed == 0:
		// Checkpoint covered the resync publish.
	default:
		t.Fatalf("recovery info %+v, want barrier stop at %d or checkpoint past it", info, preVersion)
	}
}
