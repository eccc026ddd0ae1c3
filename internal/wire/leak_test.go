package wire

import (
	"net"
	"testing"
	"time"

	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
)

// Regression tests for the roundTrip waiter leak: every exit path —
// write error, timeout — must unregister the request's reply waiter, or
// the map accumulates dead entries and a later connection teardown closes
// channels nobody is listening on.

// TestWaiterUnregisteredOnWriteError injects a single write failure on a
// LIVE connection (the transport survives; only the one operation fails):
// the failed round trip must leave no waiter behind, and the next request
// on the same connection must succeed.
func TestWaiterUnregisteredOnWriteError(t *testing.T) {
	_, _, addr, _ := startServer(t)
	inj := resilience.NewInjector(1)
	c, err := DialWith(addr, DialOptions{
		WrapConn: func(conn net.Conn) net.Conn {
			return resilience.WrapNetConn(conn, inj, "link")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Let the read loop settle into its blocking Read so the scripted
	// fault is consumed by our write, not a loop iteration.
	time.Sleep(20 * time.Millisecond)

	inj.FailNext("link", 1)
	if _, _, err := c.QueryMulti([]source.QuerySpec{{Rel: "R"}}); err == nil {
		t.Fatal("query should fail on the injected write error")
	}
	if n := c.WaiterCount(); n != 0 {
		t.Fatalf("leaked %d waiters after write error", n)
	}
	// The connection is still good: the next round trip succeeds.
	answers, _, err := c.QueryMulti([]source.QuerySpec{{Rel: "R"}})
	if err != nil {
		t.Fatalf("query after transient write error: %v", err)
	}
	if answers[0].Card() != 2 || !answers[0].Contains(relation.T(1, 10)) {
		t.Errorf("answer: %s", answers[0])
	}
	if n := c.WaiterCount(); n != 0 {
		t.Fatalf("leaked %d waiters after successful round trip", n)
	}
}

// TestWaiterUnregisteredOnTimeout runs a round trip into a server that
// never answers: the timed-out request must unregister its waiter.
func TestWaiterUnregisteredOnTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte(`{"type":"hello","name":"mute","proto":2}` + "\n"))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 30 * time.Millisecond
	for i := 0; i < 3; i++ {
		if _, _, err := c.QueryMulti([]source.QuerySpec{{Rel: "R"}}); err == nil {
			t.Fatal("expected timeout")
		}
	}
	if n := c.WaiterCount(); n != 0 {
		t.Fatalf("leaked %d waiters after %d timeouts", n, 3)
	}
}
