package federate

import (
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
	"squirrel/internal/wire"
)

// TestExporterOverWire runs the two-tier chain with a real TCP hop: the
// downstream mediator's exports are served by wire.NewBackendServer, the
// upstream mediator consumes them through wire.DialWith (which implements
// core.TieredConn), and announcements — commits and barriers — travel the
// wire. This is the deployment shape of the README walkthrough.
func TestExporterOverWire(t *testing.T) {
	clk := &clock.Logical{}
	db1, med, x := buildTier(t, clk)

	srv := wire.NewBackendServer(x)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cli, err := wire.DialWith(addr, wire.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if cli.Name() != "medA" {
		t.Fatalf("hello name = %q, want medA", cli.Name())
	}

	// The upstream plan is assembled from the wire catalog — no shared
	// schema definitions between the tiers.
	schemas, err := cli.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ub := vdp.NewBuilder()
	for _, s := range schemas {
		if err := ub.AddSource("medA", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := ub.AddViewSQL("T", `SELECT r1, r2 FROM VR`); err != nil {
		t.Fatal(err)
	}
	uplan, err := ub.Build()
	if err != nil {
		t.Fatal(err)
	}
	up, err := core.New(core.Config{VDP: uplan,
		Sources: map[string]core.SourceConn{"medA": cli}, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	cli.OnAnnounce(up.OnAnnouncement)
	if err := up.Initialize(); err != nil {
		t.Fatal(err)
	}

	// A leaf commit crosses both hops; the announcement's Reflect vector
	// survives the wire, so the upstream answer carries base coordinates.
	d := delta.New()
	d.Insert("R", relation.T(3, 30, 9))
	ct := db1.MustApply(d)
	if _, err := med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	waitTxn(t, up)
	res, err := up.Query(algebra.SelectFrom("T", nil, nil), core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Len() != 3 {
		t.Fatalf("T has %d rows, want 3:\n%s", res.Answer.Len(), res.Answer)
	}
	if res.BaseReflect["db1"] != ct {
		t.Fatalf("BaseReflect %v, want db1:%d", res.BaseReflect, ct)
	}

	// A downstream resync's barrier crosses the wire and quarantines the
	// tier upstream; an upstream resync (a wire snapshot poll) clears it.
	med.QuarantineSource("db1", "test gap")
	if err := med.ResyncSource("db1"); err != nil {
		t.Fatal(err)
	}
	waitQuarantined(t, up, "medA")
	if err := up.ResyncSource("medA"); err != nil {
		t.Fatal(err)
	}
	if len(up.QuarantinedSources()) != 0 {
		t.Fatalf("quarantine not cleared: %v", up.QuarantinedSources())
	}

	d2 := delta.New()
	d2.Insert("R", relation.T(5, 50, 8))
	db1.MustApply(d2)
	if _, err := med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	waitTxn(t, up)
	if got := up.StoreSnapshot("T").Len(); got != 4 {
		t.Fatalf("post-resync T has %d rows, want 4", got)
	}
}

// waitTxn spins until one update transaction runs (wire announcement
// delivery is asynchronous, so the queue may not be populated yet).
func waitTxn(t testing.TB, up *core.Mediator) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		ran, err := up.RunUpdateTransaction()
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("announcement never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQuarantined spins until src is quarantined at the mediator.
func waitQuarantined(t testing.TB, up *core.Mediator, src string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		for _, q := range up.QuarantinedSources() {
			if q == src {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never quarantined; quarantined=%v", src, up.QuarantinedSources())
		}
		time.Sleep(time.Millisecond)
	}
}
