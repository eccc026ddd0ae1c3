package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// TestSubClientRedialResumesAfterHandedOffFrames is the regression test
// for the redial duplicate-frame race: the resume cursor must advance
// atomically with each frame's hand-off into the delivery channel, NOT
// when the consumer finally calls Next. The fake server makes the window
// deterministic — it pushes three frames, waits for the client's cursor
// to cover them WHILE THE CONSUMER HAS READ NONE, then severs the
// connection. A client whose cursor trails consumption would resubscribe
// below version 3 and the replay would hand versions the channel already
// holds to the consumer twice; the fixed client resubscribes after
// exactly the last handed-off frame, and the consumer sees every version
// once, in order.
func TestSubClientRedialResumesAfterHandedOffFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	schema := relation.MustSchema("V", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}}, "a")
	snap := relation.New(schema, relation.Set)
	snap.Insert(relation.T(1))
	deltaFrame := func(v uint64) Message {
		rd := delta.NewRel("V")
		rd.Add(relation.T(int64(v)), 1)
		return EncodeSubFrame(core.SubFrame{
			Export: "V", Kind: core.SubDelta, Delta: rd,
			First: v, Version: v, Stamp: clock.Time(10 * v),
		})
	}

	// Fake mediator: serves the scripted handshake per connection and
	// reports each connection's subscribe FromVersion.
	fromVersions := make(chan uint64, 4)
	serveConn := func(conn net.Conn, frames []Message) {
		w := bufio.NewWriter(conn)
		send := func(m Message) {
			b, err := encode(m)
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			w.Write(b)
			w.Flush()
		}
		send(Message{Type: "hello", Name: "mediator", Proto: ProtocolVersion})
		scanner := bufio.NewScanner(conn)
		if !scanner.Scan() {
			t.Error("no subscribe request")
			return
		}
		var req Message
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil || req.Type != "subscribe" {
			t.Errorf("bad subscribe request: %v %q", err, scanner.Bytes())
			return
		}
		fromVersions <- req.FromVersion
		send(Message{Type: "answer", ID: req.ID, Export: req.Export})
		for _, f := range frames {
			send(f)
		}
	}
	firstDone := make(chan net.Conn, 1)
	go func() {
		// Connection 1: snapshot at v1 plus deltas v2, v3, then hold the
		// connection open (the test severs it once the cursor covers v3).
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		snapMsg := EncodeSubFrame(core.SubFrame{
			Export: "V", Kind: core.SubSnapshot, Snapshot: snap,
			First: 1, Version: 1, Stamp: clock.Time(10),
		})
		serveConn(conn, []Message{snapMsg, deltaFrame(2), deltaFrame(3)})
		firstDone <- conn
		// Connection 2: the resumed stream — one more delta.
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		serveConn(conn2, []Message{deltaFrame(4)})
	}()

	sc, err := SubscribeView(ln.Addr().String(), "V", SubOptions{
		Reconnect: true, RetryBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if from := <-fromVersions; from != 0 {
		t.Fatalf("initial subscribe FromVersion = %d, want 0", from)
	}

	// Do NOT consume: wait until the read loop has handed all three
	// frames to the channel (the cursor covers them), then cut the
	// connection. This is exactly the window where a consumer-side cursor
	// would still read 0.
	for deadline := time.Now().Add(10 * time.Second); sc.Delivered() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("cursor stuck at %d", sc.Delivered())
		}
		time.Sleep(time.Millisecond)
	}
	(<-firstDone).Close()

	// The redial must resume after the last handed-off frame — the
	// regression: a lagging cursor resubscribes at 0 here, and the replay
	// duplicates versions 1–3 behind the copies still in the channel.
	select {
	case from := <-fromVersions:
		if from != 3 {
			t.Fatalf("resumed subscribe FromVersion = %d, want 3", from)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never resubscribed")
	}

	// The consumer drains everything: each version exactly once, in order.
	for want := uint64(1); want <= 4; want++ {
		f, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.Version != want {
			t.Fatalf("got version %d, want %d (duplicate or gap)", f.Version, want)
		}
	}
	if sc.Resumes() != 1 {
		t.Fatalf("Resumes = %d, want 1", sc.Resumes())
	}
}
