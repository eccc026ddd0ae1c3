package wire

import (
	"encoding/json"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// intRelation is a bag over n int attributes c0..c(n-1).
func intRelation(name string, n int) *relation.Relation {
	attrs := make([]relation.Attribute, n)
	for i := range attrs {
		attrs[i] = relation.Attribute{Name: "c" + string(rune('0'+i)), Type: relation.KindInt}
	}
	return relation.NewBag(relation.MustSchema(name, attrs))
}

// announceFixture is an 8-atom ΔR on a 4-int schema: four insertions and
// four deletions of small-integer tuples.
func announceFixture() Message {
	d := delta.New()
	for i := 0; i < 8; i++ {
		n := 1
		if i%2 == 1 {
			n = -1
		}
		d.Add("R", relation.T(i+1, 20+i, 7*i, 50), n)
	}
	wd := EncodeDelta(d)
	return Message{Type: "announce", Source: "db1", Time: 4242, Seq: 17, FirstSeq: 17, Delta: &wd}
}

// pollFixture is a 330-row answer over 3 int attributes of up to three
// digits.
func pollFixture() Message {
	r := intRelation("R", 3)
	for i := 0; i < 330; i++ {
		r.Add(relation.T(i+1, (i*37)%1000, 50), 1)
	}
	return Message{Type: "answer", ID: 9, AsOf: 4243, Answers: []Relation{EncodeRelation(r)}}
}

// TestWireFrameBytes pins the encoded size of two representative frames:
// a regression in the relation or delta encoding shows up here as bytes
// on the wire, before any benchmark runs. Each budget is the measured
// size plus under 10 % slack.
func TestWireFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		msg    Message
		budget int
	}{
		{"announce 8-atom ΔR, 4 int columns", announceFixture(), 330},
		{"poll answer 330 rows, 3 int columns", pollFixture(), 4650},
	} {
		b, err := encode(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d B (budget %d)", tc.name, len(b), tc.budget)
		if len(b) > tc.budget {
			t.Errorf("%s: %d B on the wire, budget %d", tc.name, len(b), tc.budget)
		}
	}
}

// TestWireClientsRefuseOldHello: a hello without this side's ProtocolVersion
// (here, a version-1 peer, which sent none) is refused by every client
// with both versions named — its answers would otherwise decode as
// silently empty relations. A refused Client does not start redialing.
func TestWireClientsRefuseOldHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conn.Write([]byte(`{"type":"hello","name":"old"}` + "\n"))
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().String()
	dials := map[string]func() error{
		"Client": func() error {
			c, err := DialWith(addr, DialOptions{Reconnect: true, RetryBase: time.Millisecond})
			if err == nil {
				c.Close()
			}
			return err
		},
		"MediatorClient": func() error {
			c, err := DialMediator(addr)
			if err == nil {
				c.Close()
			}
			return err
		},
		"SubClient": func() error {
			c, err := SubscribeView(addr, "V", SubOptions{})
			if err == nil {
				c.Close()
			}
			return err
		},
	}
	for name, dial := range dials {
		err := dial()
		if err == nil || !strings.Contains(err.Error(), "protocol version 0") ||
			!strings.Contains(err.Error(), "speaks 2") {
			t.Errorf("%s: dial with a version-less hello = %v, want a refusal naming versions 0 and 2", name, err)
		}
	}
	time.Sleep(50 * time.Millisecond) // a leaked redial loop would dial every few ms
	if n := accepted.Load(); n != int64(len(dials)) {
		t.Errorf("%d connections for %d refused dials: a refused client redialed", n, len(dials))
	}
}

// FuzzWireMessageDecode feeds arbitrary bytes to the message envelope and
// decodes every relation and delta payload it carries. Nothing may panic,
// and a payload that decodes must survive encode∘decode unchanged.
func FuzzWireMessageDecode(f *testing.F) {
	r := intRelation("R", 2)
	r.Add(relation.T(1, 10), 2)
	set := relation.NewSet(relation.MustSchema("S", []relation.Attribute{
		{Name: "s", Type: relation.KindString}, {Name: "m", Type: relation.KindNull}}, "s"))
	set.Insert(relation.T("x", true))
	set.Insert(relation.T("y", 2.5))
	rd := delta.NewRel("R")
	rd.Add(relation.T(3, 30), -1)
	wr, wd := EncodeRelation(r), EncodeRelDelta(rd)
	snap := EncodeSubFrame(core.SubFrame{Export: "V", Kind: core.SubSnapshot, Snapshot: set, Version: 1})
	deltaFrame := EncodeSubFrame(core.SubFrame{Export: "V", Kind: core.SubDelta, Delta: rd, First: 2, Version: 2})
	for _, m := range []Message{
		{Type: "hello", Name: "db1", Proto: ProtocolVersion},
		{Type: "query", ID: 1, Specs: []QuerySpec{{Rel: "R", Attrs: []string{"a"}}}},
		{Type: "answer", ID: 1, AsOf: 5, Answers: []Relation{wr, EncodeRelation(set)}},
		announceFixture(),
		{Type: "apply", ID: 2, Delta: &Delta{Rels: []RelDeltaCols{wd}}},
		{Type: "catalog", ID: 3},
		{Type: "error", ID: 3, Error: "boom"},
		{Type: "medquery", ID: 4, Specs: []QuerySpec{{Rel: "V"}}, Degrade: "stale", MaxStale: 3},
		{Type: "medversion", ID: 5},
		{Type: "subscribe", ID: 6, Export: "V", FromVersion: 1},
		snap,
		deltaFrame,
	} {
		b, err := encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A version-1 row-form answer whose one row is shorter than the schema.
	f.Add([]byte(`{"type":"answer","id":1,"answers":[{"schema":{"name":"R","attrs":[{"name":"a","type":"int"},{"name":"b","type":"int"}]},"sem":"bag","rows":[{"t":[{"k":"int","i":1}],"n":1}]}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var m Message
		if json.Unmarshal(b, &m) != nil {
			return
		}
		rels := append([]Relation(nil), m.Answers...)
		if m.Snapshot != nil {
			rels = append(rels, *m.Snapshot)
		}
		for _, w := range rels {
			got, err := w.Decode()
			if err != nil {
				continue
			}
			again, err := EncodeRelation(got).Decode()
			if err != nil {
				t.Fatalf("re-decode of %s: %v", got, err)
			}
			if !again.Equal(got) || again.Semantics() != got.Semantics() ||
				again.Schema().String() != got.Schema().String() {
				t.Fatalf("relation round trip: %s -> %s", got, again)
			}
		}
		if m.Delta != nil {
			if got, err := m.Delta.Decode(); err == nil {
				again, err := EncodeDelta(got).Decode()
				if err != nil || !again.Equal(got) {
					t.Fatalf("delta round trip: %s -> %v (%v)", got, again, err)
				}
			}
		}
		if m.FrameDelta != nil {
			if got, err := m.FrameDelta.Decode(); err == nil {
				again, err := EncodeRelDelta(got).Decode()
				if err != nil || again.Rel() != got.Rel() || !again.Equal(got) {
					t.Fatalf("frame delta round trip: %s -> %v (%v)", got, again, err)
				}
			}
		}
	})
}
