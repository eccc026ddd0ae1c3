package wal

import (
	"fmt"
	"testing"

	"squirrel/internal/core"
)

// benchRecord builds one realistic commit record by running a live
// transaction through a recording commit log.
type recLog struct{ recs []*core.CommitRecord }

func (l *recLog) LogCommit(rec *core.CommitRecord) error {
	cp := *rec
	cp.Reflect = rec.Reflect.Clone()
	cp.NewRef = rec.NewRef.Clone()
	l.recs = append(l.recs, &cp)
	return nil
}
func (l *recLog) LogBarrier(uint64, string) error { return nil }
func (l *recLog) Sync() error                     { return nil }

func captureRecords(b *testing.B, e *walEnv, med *core.Mediator, n int) []*core.CommitRecord {
	b.Helper()
	rec := &recLog{}
	med.SetCommitLog(rec)
	for i := 0; i < n; i++ {
		e.applyOne(b)
		if ran, err := med.RunUpdateTransaction(); err != nil || !ran {
			b.Fatalf("txn %d: ran=%v err=%v", i, ran, err)
		}
	}
	med.SetCommitLog(nil)
	return rec.recs
}

// BenchmarkWALLogCommit measures one logged commit — encode, frame,
// write — under each sync policy. The commit/none gap is the price of
// one fsync; SyncBatch amortizes it (see BenchmarkWALGroupCommit).
func BenchmarkWALLogCommit(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
	}{{"none", SyncNone}, {"fsync-per-commit", SyncCommit}} {
		b.Run(tc.name, func(b *testing.B) {
			e := newWalEnv(b)
			med := e.startFresh(b)
			rec := captureRecords(b, e, med, 1)[0]
			mgr := openManager(b, b.TempDir(), func(o *Options) { o.Policy = tc.policy })
			if err := mgr.Start(med); err != nil {
				b.Fatal(err)
			}
			defer mgr.Kill()
			med.SetCommitLog(nil) // drive the manager directly
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mgr.LogCommit(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALGroupCommit measures the group-commit amortization: a
// batch of appends made durable by ONE Sync, per batch size. ns/op is
// per record; the fsync cost fades as the batch grows.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			e := newWalEnv(b)
			med := e.startFresh(b)
			rec := captureRecords(b, e, med, 1)[0]
			mgr := openManager(b, b.TempDir(), func(o *Options) { o.Policy = SyncBatch })
			if err := mgr.Start(med); err != nil {
				b.Fatal(err)
			}
			defer mgr.Kill()
			med.SetCommitLog(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mgr.LogCommit(rec); err != nil {
					b.Fatal(err)
				}
				if (i+1)%batch == 0 {
					if err := mgr.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkWALReplay measures recovery's replay rate: records re-applied
// per second through the staged kernel, decode included.
func BenchmarkWALReplay(b *testing.B) {
	const records = 64
	e := newWalEnv(b)
	med := e.startFresh(b)
	base, err := med.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	recs := captureRecords(b, e, med, records)
	// Pre-encode: replay reads frames off disk, so decode is on the
	// clock; the encode below is setup, not measured.
	var frames [][]byte
	for _, rec := range recs {
		payload, err := encodeCommit(rec)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, appendRecord(nil, TypeCommit, payload))
	}
	b.ResetTimer()
	replayed := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		med2 := e.newMediator(b)
		if err := med2.Restore(base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, frame := range frames {
			_, payload, _, err := DecodeRecord(frame)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := decodeCommit(payload)
			if err != nil {
				b.Fatal(err)
			}
			if err := med2.ReplayCommitRecord(rec); err != nil {
				b.Fatal(err)
			}
			replayed++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "records/s")
}
