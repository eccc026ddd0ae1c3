package core_test

// Wire-level fault-boundary tests: a real mediator polling a real
// SourceServer over TCP, with deterministic faults injected at the
// net.Conn layer. This is the package-external twin of failure_test.go
// (core cannot import wire, but core_test can import both).

import (
	"net"
	"strings"
	"testing"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
	"squirrel/internal/wire"
)

// wireEnv is a one-source mediator over TCP: R(a,b)@db1 behind a
// SourceServer, export V = R annotated hybrid (b virtual), so every
// query for b polls db1 through the client connection — which is
// wrapped in net.Conn-level fault injection under the label "link".
type wireEnv struct {
	clk *clock.Logical
	db  *source.DB
	med *core.Mediator
	cli *wire.Client
	inj *resilience.Injector
}

func newWireEnv(t *testing.T, resil core.ResilienceConfig, dialOpts wire.DialOptions) *wireEnv {
	t.Helper()
	clk := &clock.Logical{}
	db := source.NewDB("db1", clk)
	rs := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
	r := relation.NewSet(rs)
	r.Insert(relation.T(1, 10))
	r.Insert(relation.T(2, 20))
	if err := db.LoadRelation(r); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewSourceServer(db)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	inj := resilience.NewInjector(1)
	dialOpts.WrapConn = func(c net.Conn) net.Conn {
		return resilience.WrapNetConn(c, inj, "link")
	}
	cli, err := wire.DialWith(addr, dialOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	b := vdp.NewBuilder()
	if err := b.AddSource("db1", rs); err != nil {
		t.Fatal(err)
	}
	if err := b.AddViewSQL("V", `SELECT a, b FROM R`); err != nil {
		t.Fatal(err)
	}
	b.Annotate("V", vdp.Ann([]string{"a"}, []string{"b"}))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	med, err := core.New(core.Config{
		VDP:        plan,
		Sources:    map[string]core.SourceConn{"db1": cli},
		Clock:      clk,
		Resilience: resil,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.OnAnnounce(med.OnAnnouncement)
	if err := med.Initialize(); err != nil {
		t.Fatal(err)
	}
	// Let the client's read loop re-enter its blocking Read so the next
	// injector decision is consumed by the operation under test, not by a
	// stale loop iteration.
	time.Sleep(20 * time.Millisecond)
	return &wireEnv{clk: clk, db: db, med: med, cli: cli, inj: inj}
}

// TestWireMidPollDisconnectRetries injects a mid-stream disconnect into a
// poll: the write closes the connection, the attempt fails, the client
// redials in the background, and the retry succeeds on the fresh
// connection. Afterwards the announcement subscription must have survived
// the reconnect.
func TestWireMidPollDisconnectRetries(t *testing.T) {
	e := newWireEnv(t,
		core.ResilienceConfig{Retry: resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond}},
		wire.DialOptions{Reconnect: true, RetryBase: 10 * time.Millisecond},
	)
	e.inj.DropNext("link", 1)
	ans, err := queryV(e.med)
	if err != nil {
		t.Fatalf("query across disconnect: %v", err)
	}
	if ans.Card() != 2 || !ans.Contains(relation.T(1, 10)) {
		t.Fatalf("answer after reconnect: %s", ans)
	}
	if c := e.inj.Counts("link").Drops; c != 1 {
		t.Errorf("injected drops = %d, want 1", c)
	}
	if st := e.med.Stats(); st.PollRetries < 1 {
		t.Errorf("PollRetries = %d, want >= 1", st.PollRetries)
	}

	// The server re-subscribes the new connection to the announcement
	// feed: a commit after the reconnect must reach the mediator.
	d := delta.New()
	d.Insert("R", relation.T(3, 30))
	e.db.MustApply(d)
	deadline := time.Now().Add(3 * time.Second)
	for e.med.QueueLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.med.QueueLen() == 0 {
		t.Fatal("announcement lost after reconnect")
	}
	if _, err := e.med.RunUpdateTransaction(); err != nil {
		t.Fatal(err)
	}
	ans2, err := queryV(e.med)
	if err != nil {
		t.Fatal(err)
	}
	if !ans2.Contains(relation.T(3, 30)) {
		t.Fatalf("post-reconnect commit missing from view: %s", ans2)
	}
}

// TestWirePollDeadlineTimeoutThenRetry stalls one poll attempt past the
// per-attempt deadline: the attempt's goroutine is abandoned at the
// deadline, the retry waits out the backoff (by which time the stalled
// write has unwound), and succeeds.
func TestWirePollDeadlineTimeoutThenRetry(t *testing.T) {
	e := newWireEnv(t,
		core.ResilienceConfig{
			PollTimeout: 50 * time.Millisecond,
			Retry:       resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 150 * time.Millisecond},
		},
		wire.DialOptions{Reconnect: true, RetryBase: 10 * time.Millisecond},
	)
	e.inj.HangNext("link", 1, 120*time.Millisecond)
	start := time.Now()
	ans, err := queryV(e.med)
	if err != nil {
		t.Fatalf("query across stalled attempt: %v", err)
	}
	if ans.Card() != 2 {
		t.Fatalf("answer: %s", ans)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Errorf("query returned in %s; a deadline + backoff must have elapsed", el)
	}
	st := e.med.Stats()
	if st.PollFailures < 1 || st.PollRetries < 1 {
		t.Errorf("PollFailures=%d PollRetries=%d, want >= 1 each", st.PollFailures, st.PollRetries)
	}
	if c := e.inj.Counts("link").Hangs; c != 1 {
		t.Errorf("injected hangs = %d, want 1", c)
	}
}

// TestWireBreakerTransitions drives the per-source circuit breaker around
// its full automaton over a real connection: closed → (failures) → open →
// fast-fail → (cooldown) → half-open → (probe succeeds) → closed.
func TestWireBreakerTransitions(t *testing.T) {
	e := newWireEnv(t,
		core.ResilienceConfig{
			Retry:   resilience.RetryPolicy{MaxAttempts: 1},
			Breaker: resilience.BreakerPolicy{Failures: 2, Cooldown: 60 * time.Millisecond},
		},
		wire.DialOptions{},
	)
	health := func() core.SourceHealth { return e.med.Stats().Sources["db1"] }
	if got := health().Breaker; got != "closed" {
		t.Fatalf("initial breaker = %q", got)
	}

	e.inj.SetDown("link", true)
	for i := 0; i < 2; i++ {
		if _, err := queryV(e.med); err == nil {
			t.Fatalf("query %d should fail while link is down", i)
		}
	}
	h := health()
	if h.Breaker != "open" || h.Trips != 1 {
		t.Fatalf("after %d failures: breaker=%q trips=%d, want open/1", 2, h.Breaker, h.Trips)
	}

	// Open: polls fail fast without touching the wire.
	before := e.inj.Counts("link").DownOps
	if _, err := queryV(e.med); err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("open breaker must fast-fail, got %v", err)
	}
	if after := e.inj.Counts("link").DownOps; after != before {
		t.Errorf("fast-fail still hit the wire (%d -> %d down ops)", before, after)
	}
	if st := e.med.Stats(); st.BreakerFastFails < 1 {
		t.Errorf("BreakerFastFails = %d, want >= 1", st.BreakerFastFails)
	}

	// After the cooldown the breaker half-opens and admits one probe.
	time.Sleep(80 * time.Millisecond)
	if got := health().Breaker; got != "half-open" {
		t.Fatalf("after cooldown: breaker = %q, want half-open", got)
	}
	e.inj.SetDown("link", false)
	if _, err := queryV(e.med); err != nil {
		t.Fatalf("probe query: %v", err)
	}
	if got := health().Breaker; got != "closed" {
		t.Fatalf("after successful probe: breaker = %q, want closed", got)
	}
}

// queryV answers the whole of V, the export every test here reads.
func queryV(m *core.Mediator) (*relation.Relation, error) {
	res, err := m.Query(algebra.Scan{Rel: "V"}, core.QueryOptions{})
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}
