package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// TestServerRejectsGarbage: both servers answer a line that is not a
// message, and a message of an unknown type, with an error reply, and
// keep the connection serving.
func TestServerRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name, valid string
		start       func(t *testing.T) string
	}{
		{"SourceServer", `{"type":"query","id":1,"specs":[{"rel":"R"}]}`,
			func(t *testing.T) string { _, _, addr, _ := startServer(t); return addr }},
		{"MediatorServer", `{"type":"medversion","id":1}`,
			func(t *testing.T) string { _, _, addr := startMediator(t); return addr }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", tc.start(t))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewScanner(conn)
			if !r.Scan() { // hello
				t.Fatal("no hello")
			}
			if _, err := conn.Write([]byte("this is not json\n")); err != nil {
				t.Fatal(err)
			}
			if !r.Scan() {
				t.Fatal("no error reply")
			}
			if !strings.Contains(r.Text(), "error") {
				t.Fatalf("expected error reply, got %q", r.Text())
			}
			// The connection survives: a valid request still works.
			if _, err := conn.Write([]byte(tc.valid + "\n")); err != nil {
				t.Fatal(err)
			}
			if !r.Scan() || !strings.Contains(r.Text(), "answer") {
				t.Fatalf("valid request after garbage failed: %q", r.Text())
			}
			// Unknown message types get error replies too.
			if _, err := conn.Write([]byte(`{"type":"zzz","id":2}` + "\n")); err != nil {
				t.Fatal(err)
			}
			if !r.Scan() || !strings.Contains(r.Text(), "unknown message type") {
				t.Fatalf("unknown type reply: %q", r.Text())
			}
		})
	}
}

// fakePeer is a scripted server end of one connection for client tests.
type fakePeer struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Scanner
}

func acceptPeer(t *testing.T, ln net.Listener) *fakePeer {
	conn, err := ln.Accept()
	if err != nil {
		return nil
	}
	return &fakePeer{t: t, conn: conn, r: bufio.NewScanner(conn)}
}

// send writes each message as one line; a string is written as is.
func (p *fakePeer) send(msgs ...any) {
	for _, m := range msgs {
		line, ok := m.(string)
		if !ok {
			b, err := json.Marshal(m)
			if err != nil {
				p.t.Errorf("marshal: %v", err)
				return
			}
			line = string(b)
		}
		if _, err := p.conn.Write([]byte(line + "\n")); err != nil {
			return
		}
	}
}

// recv reads the next request line.
func (p *fakePeer) recv() (Message, bool) {
	var m Message
	if !p.r.Scan() || json.Unmarshal(p.r.Bytes(), &m) != nil {
		return Message{}, false
	}
	return m, true
}

func subDeltaFrame(v uint64) Message {
	rd := delta.NewRel("V")
	rd.Add(relation.T(int64(v)), 1)
	return EncodeSubFrame(core.SubFrame{Export: "V", Kind: core.SubDelta, Delta: rd,
		First: v, Version: v, Stamp: clock.Time(10 * v)})
}

func subSnapshotFrame() Message {
	snap := relation.New(relation.MustSchema("V", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}}, "a"), relation.Set)
	snap.Insert(relation.T(1))
	return EncodeSubFrame(core.SubFrame{Export: "V", Kind: core.SubSnapshot, Snapshot: snap,
		First: 1, Version: 1, Stamp: clock.Time(10)})
}

// TestClientSkipsGarbageLine: a Client skips a line that is not a message
// and keeps the connection; the announcement and the answer that follow
// still arrive, in order.
func TestClientSkipsGarbageLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := delta.New()
	d.Insert("R", relation.T(1, 10))
	ann := Message{Type: "announce", Source: "fake", Time: 5, Seq: 1, Delta: &Delta{}}
	*ann.Delta = EncodeDelta(d)
	answer := EncodeRelation(relation.NewSet(relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}}, "a")))
	go func() {
		p := acceptPeer(t, ln)
		if p == nil {
			return
		}
		defer p.conn.Close()
		p.send(Message{Type: "hello", Name: "fake", Proto: ProtocolVersion}, "not json")
		req, ok := p.recv()
		if !ok {
			return
		}
		p.send(ann, "{garbage", Message{Type: "answer", ID: req.ID, AsOf: 6, Answers: []Relation{answer}})
		p.recv() // hold the connection until the client closes it
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var anns []source.Announcement
	c.OnAnnounce(func(a source.Announcement) { anns = append(anns, a) })
	_, asOf, err := c.QueryMulti([]source.QuerySpec{{Rel: "R"}})
	if err != nil {
		t.Fatal(err)
	}
	if asOf != 6 {
		t.Fatalf("asOf = %d, want 6", asOf)
	}
	if len(anns) != 1 || anns[0].Time != 5 || anns[0].Seq != 1 {
		t.Fatalf("announcement must arrive before the answer: %+v", anns)
	}
}

// TestSubClientResumesAfterGarbageLine: a SubClient treats a line that is
// not a message as a broken stream; with Reconnect it drops the
// connection, resubscribes after its last handed-off version, and the
// consumer sees every version once.
func TestSubClientResumesAfterGarbageLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	from := make(chan uint64, 2)
	serve := func(frames ...any) {
		p := acceptPeer(t, ln)
		if p == nil {
			return
		}
		defer p.conn.Close()
		p.send(Message{Type: "hello", Name: "mediator", Proto: ProtocolVersion})
		req, ok := p.recv()
		if !ok || req.Type != "subscribe" {
			t.Errorf("bad subscribe request: %+v", req)
			return
		}
		from <- req.FromVersion
		p.send(Message{Type: "answer", ID: req.ID, Export: req.Export})
		p.send(frames...)
		p.recv() // hold the connection until the client drops it
	}
	go func() {
		serve(subSnapshotFrame(), subDeltaFrame(2), "{garbage")
		serve(subDeltaFrame(3))
	}()
	sc, err := SubscribeView(ln.Addr().String(), "V", SubOptions{Reconnect: true, RetryBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for want := uint64(1); want <= 3; want++ {
		f, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.Version != want {
			t.Fatalf("got version %d, want %d (duplicate or gap)", f.Version, want)
		}
	}
	if first, second := <-from, <-from; first != 0 || second != 2 {
		t.Fatalf("subscribe FromVersion = %d then %d, want 0 then 2", first, second)
	}
	if sc.Resumes() != 1 {
		t.Fatalf("Resumes = %d, want 1", sc.Resumes())
	}
}

// TestSubClientCloseInterruptsRedial: Close reaches a connection the
// client is still redialing. The fake mediator serves one frame, drops
// the connection, then accepts the redial and never says hello; after
// Close, the peer must see the connection end, not sit open until its
// deadline.
func TestSubClientCloseInterruptsRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	redialed := make(chan net.Conn, 1)
	go func() {
		p := acceptPeer(t, ln)
		if p == nil {
			return
		}
		p.send(Message{Type: "hello", Name: "mediator", Proto: ProtocolVersion})
		if req, ok := p.recv(); ok {
			p.send(Message{Type: "answer", ID: req.ID, Export: req.Export}, subSnapshotFrame())
		}
		p.conn.Close()
		if conn, err := ln.Accept(); err == nil {
			redialed <- conn
		}
	}()
	sc, err := SubscribeView(ln.Addr().String(), "V", SubOptions{Reconnect: true, RetryBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if f, err := sc.Next(); err != nil || f.Version != 1 {
		t.Fatalf("first frame: v%d %v", f.Version, err)
	}
	var silent net.Conn
	select {
	case silent = <-redialed:
	case <-time.After(10 * time.Second):
		t.Fatal("client never redialed")
	}
	defer silent.Close()
	sc.Close()
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err = silent.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("Close left the redialed connection open")
	}
	if _, err := sc.Next(); err == nil {
		t.Fatal("Next after Close must fail")
	}
}

// TestWireFramingInOneFile: the framing — line reader, buffered writer,
// JSON codec calls — and the dial live in conn.go alone, so a change of
// frame format is a change to one file.
func TestWireFramingInOneFile(t *testing.T) {
	banned := map[string]map[string]bool{
		"bufio":         {"NewScanner": true, "NewWriter": true},
		"encoding/json": {"Marshal": true, "Unmarshal": true},
		"net":           {"Dial": true},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "conn.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && banned[imports[pkg.Name]][sel.Sel.Name] {
				t.Errorf("%s: %s.%s outside conn.go", fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
	if _, err := os.Stat("conn.go"); err != nil {
		t.Errorf("the connection layer file is missing: %v", err)
	}
}
