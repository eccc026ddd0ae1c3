package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// commitV inserts one fresh A row and runs one update transaction.
func commitV(t testing.TB, db *source.DB, med *core.Mediator, key int64) {
	t.Helper()
	d := delta.New()
	d.Insert("A", relation.T(key, key*10))
	db.MustApply(d)
	if ran, err := med.RunUpdateTransaction(); err != nil || !ran {
		t.Fatalf("commit %d: ran=%v err=%v", key, ran, err)
	}
}

// applyWireFrame folds one decoded frame into the subscriber's replica.
func applyWireFrame(t testing.TB, replica **relation.Relation, f core.SubFrame) {
	t.Helper()
	switch f.Kind {
	case core.SubSnapshot:
		*replica = f.Snapshot.Clone()
	case core.SubDelta:
		if err := f.Delta.ApplyTo(*replica, false); err != nil {
			t.Fatalf("apply frame v%d: %v", f.Version, err)
		}
	}
}

// TestSubscribeStreamOverWire drives the full push pipeline: subscribe
// over TCP, receive the initial snapshot, then per-commit delta frames,
// and verify the replica tracks the mediator's published store exactly.
func TestSubscribeStreamOverWire(t *testing.T) {
	db, med, addr := startMediator(t)
	sc, err := SubscribeView(addr, "V", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	f, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != core.SubSnapshot || f.Export != "V" {
		t.Fatalf("first frame: kind=%v export=%q", f.Kind, f.Export)
	}
	var replica *relation.Relation
	applyWireFrame(t, &replica, f)
	if cur := med.CurrentVersion(); f.Version != cur.Seq() || !replica.Equal(cur.Rel("V")) {
		t.Fatalf("snapshot differs from store v%d", cur.Seq())
	}

	prev := f.Version
	for i := int64(0); i < 5; i++ {
		commitV(t, db, med, 100+i)
		f, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != core.SubDelta || f.First != prev+1 || f.Version != prev+1 {
			t.Fatalf("frame %d: kind=%v first=%d v=%d (prev %d)", i, f.Kind, f.First, f.Version, prev)
		}
		prev = f.Version
		applyWireFrame(t, &replica, f)
		cur := med.CurrentVersion()
		if f.Version != cur.Seq() || f.Stamp != cur.Stamp() || f.Reflect["db"] != cur.RefOf("db") {
			t.Fatalf("frame v%d metadata: stamp=%d reflect=%v", f.Version, f.Stamp, f.Reflect)
		}
		if !replica.Equal(cur.Rel("V")) {
			t.Fatalf("after frame v%d: replica %s != store %s", f.Version, replica, cur.Rel("V"))
		}
	}
	if sc.Delivered() != prev {
		t.Fatalf("Delivered = %d, want %d", sc.Delivered(), prev)
	}

	// Rejections surface as dial errors.
	if _, err := SubscribeView(addr, "NOPE", SubOptions{}); err == nil ||
		!strings.Contains(err.Error(), "subscribe rejected") {
		t.Fatalf("bad export: %v", err)
	}
}

// TestSubscribeResumeOverWire covers both reconnect shapes: an explicit
// re-subscribe with FromVersion (replayed from the server's ring, no
// snapshot), and the client's automatic redial + resume when its
// connection is severed mid-stream.
func TestSubscribeResumeOverWire(t *testing.T) {
	db, med, addr := startMediator(t)
	srv := activeMediatorServer(t, addr)

	sc, err := SubscribeView(addr, "V", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	var replica *relation.Relation
	applyWireFrame(t, &replica, f)
	resumeAt := sc.Delivered()
	sc.Close()

	// Commits during the outage, then an explicit resume: delta frames
	// only, contiguous from the resume point.
	for i := int64(0); i < 3; i++ {
		commitV(t, db, med, 200+i)
	}
	sc2, err := SubscribeView(addr, "V", SubOptions{FromVersion: resumeAt, Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	prev := resumeAt
	for i := 0; i < 3; i++ {
		f, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != core.SubDelta || f.First != prev+1 {
			t.Fatalf("resume frame %d: kind=%v first=%d (prev %d)", i, f.Kind, f.First, prev)
		}
		prev = f.Version
		applyWireFrame(t, &replica, f)
	}
	if cur := med.CurrentVersion(); !replica.Equal(cur.Rel("V")) {
		t.Fatalf("resumed replica diverges at v%d", prev)
	}

	// Sever every server-side connection: the client must redial,
	// resubscribe after its last delivered version, and continue gap-free.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	for i := int64(0); i < 3; i++ {
		commitV(t, db, med, 300+i)
	}
	// Track consumption by the frames Next returns, not Delivered(): the
	// resume cursor may run ahead of the consumer by the hand-off
	// channel's capacity.
	target := prev + 3
	for prev < target {
		f, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != core.SubDelta || f.First != prev+1 {
			t.Fatalf("post-reconnect frame: kind=%v first=%d (prev %d)", f.Kind, f.First, prev)
		}
		prev = f.Version
		applyWireFrame(t, &replica, f)
	}
	if sc2.Resumes() == 0 {
		t.Fatal("client never resumed")
	}
	if cur := med.CurrentVersion(); !replica.Equal(cur.Rel("V")) {
		t.Fatalf("post-reconnect replica diverges")
	}
}

// activeMediatorServer digs the serving MediatorServer out of the test
// fixture via its bound address (startMediator owns the server).
func activeMediatorServer(t *testing.T, addr string) *MediatorServer {
	t.Helper()
	// startMediator registers exactly one server per test; stash it on a
	// package-level map keyed by address.
	srvMu.Lock()
	defer srvMu.Unlock()
	srv := srvByAddr[addr]
	if srv == nil {
		t.Fatalf("no server registered for %s", addr)
	}
	return srv
}

var (
	srvMu     sync.Mutex
	srvByAddr = map[string]*MediatorServer{}
)

// TestFanoutSurvivesStalledReader is the regression test for the
// announcement fan-out bug: one connection whose reader stalls (its
// bounded outbox full, its write loop jammed) must be dropped — the
// commit path and every other connection continue unaffected. Before the
// fix, the db.Subscribe callback blocked on the stalled connection's
// outbox, stalling the committer and every other subscriber behind it.
func TestFanoutSurvivesStalledReader(t *testing.T) {
	clk := &clock.Logical{}
	db := source.NewDB("db1", clk)
	s := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")
	if err := db.CreateRelation(s, relation.Set); err != nil {
		t.Fatal(err)
	}
	srv := NewSourceServer(db)
	srv.Logf = t.Logf
	srv.OutboxCap = 4 // set before Start so every connection gets it
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// A raw connection that never reads: its socket buffers fill, then its
	// outbox, then it is dead weight on the feed.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var stalled *srvConn
	for deadline := time.Now().Add(5 * time.Second); ; {
		srv.mu.Lock()
		for c := range srv.conns {
			stalled = c
		}
		srv.mu.Unlock()
		if stalled != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if stalled == nil {
		t.Fatal("server never registered the stalled connection")
	}

	// A healthy subscriber on its own connection.
	healthy, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	got := make(chan clock.Time, 16)
	healthy.OnAnnounce(func(a source.Announcement) { got <- a.Time })

	// Jam the stalled connection's write loop: large frames fill the
	// un-drained socket buffer, then the bounded outbox.
	noise := Message{Type: "noise", Error: strings.Repeat("x", 1<<20)}
	go func() {
		for i := 0; i < 64; i++ {
			stalled.send(noise) // returns early once the conn is dropped
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); len(stalled.out) < cap(stalled.out); {
		if time.Now().After(deadline) {
			t.Fatal("outbox never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The commit must neither block nor lose the healthy feed.
	applied := make(chan clock.Time, 1)
	go func() {
		d := delta.New()
		d.Insert("R", relation.T(7, 70))
		applied <- db.MustApply(d)
	}()
	var ct clock.Time
	select {
	case ct = <-applied:
	case <-time.After(10 * time.Second):
		t.Fatal("commit blocked behind a stalled reader")
	}
	select {
	case at := <-got:
		if at != ct {
			t.Fatalf("announcement at %d, commit at %d", at, ct)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy connection lost the announcement")
	}
	// The stalled connection is dropped, not the feed.
	select {
	case <-stalled.done:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled connection was never dropped")
	}
}

// TestReconnectGateBlocksRequestsUntilOnReconnect is the regression test
// for the reconnect-ordering bug: after a redial, requests must fail fast
// until OnReconnect has returned. Before the fix, connect() installed the
// new connection before OnReconnect ran, so a round trip could return an
// answer reflecting commits whose announcements were lost in the outage
// BEFORE the mediator quarantined the source — an answer observed ahead
// of its announcement, violating the FIFO contract at the top of
// client.go. The fake server makes the window deterministic: it answers
// instantly on the second connection while OnReconnect is held open.
func TestReconnectGateBlocksRequestsUntilOnReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Fake source: hello, then answer every request immediately. The first
	// connection is killed right after a commit "happens" during the
	// outage (the client never hears its announcement).
	connCount := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connCount <- conn
			go func(conn net.Conn) {
				w := bufio.NewWriter(conn)
				hello, _ := encode(Message{Type: "hello", Name: "fake", Proto: ProtocolVersion})
				w.Write(hello)
				w.Flush()
				scanner := bufio.NewScanner(conn)
				scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
				for scanner.Scan() {
					var m Message
					if json.Unmarshal(scanner.Bytes(), &m) != nil {
						return
					}
					b, _ := encode(Message{Type: "answer", ID: m.ID, AsOf: 99})
					w.Write(b)
					w.Flush()
				}
			}(conn)
		}
	}()

	entered := make(chan struct{})
	release := make(chan struct{})
	c, err := DialWith(ln.Addr().String(), DialOptions{
		Reconnect: true,
		RetryBase: 10 * time.Millisecond,
		OnReconnect: func() {
			close(entered)
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sever the first connection: the commit-during-outage window opens.
	first := <-connCount
	first.Close()

	// The client redials; OnReconnect (the quarantine hook) is now held
	// open. The new connection is live and would answer instantly — but
	// the gate must refuse to issue requests on it.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("client never redialed")
	}
	start := time.Now()
	if _, err := c.Apply(Delta{}); err == nil {
		t.Fatal("request succeeded inside the reconnect window")
	} else if !strings.Contains(err.Error(), "reconnect in progress") {
		t.Fatalf("gate error = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("gated request did not fail fast")
	}

	// Once OnReconnect returns, requests flow again.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ct, err := c.Apply(Delta{})
		if err == nil {
			if ct != 99 {
				t.Fatalf("answer asof = %d", ct)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never unblocked: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
