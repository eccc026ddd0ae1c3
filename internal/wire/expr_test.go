package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"testing"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

// malformedExprs are predicates a decoder must refuse: each names an
// operator without an operand it needs. Accepted, every one of them
// panics in the σπ kernel.
var malformedExprs = []string{
	`{"op":"cmp","sub":"=","l":{"op":"attr","name":"a"}}`,
	`{"op":"cmp","sub":"<","r":{"op":"const","value":{"k":"int","i":1}}}`,
	`{"op":"arith","sub":"+","l":{"op":"attr","name":"a"}}`,
	`{"op":"cmp","sub":"=","l":{"op":"arith","sub":"*","r":{"op":"attr","name":"b"}},"r":{"op":"attr","name":"a"}}`,
	`{"op":"not"}`,
	`{"op":"and","terms":[{"op":"cmp","sub":"=","l":{"op":"attr","name":"a"},"r":{"op":"attr","name":"b"}},null]}`,
	`{"op":"or","terms":[null]}`,
	`{"op":"in","name":"a","values":[{"k":"zzz"}]}`,
}

// TestWireRejectsMalformedExpr sends each malformed predicate to a source
// server over TCP: the server must answer it with an error message and
// then serve a good query on the same connection.
func TestWireRejectsMalformedExpr(t *testing.T) {
	for _, raw := range malformedExprs {
		var w Expr
		if err := json.Unmarshal([]byte(raw), &w); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if e, err := w.Decode(); err == nil {
			t.Errorf("Decode(%s) = %v, want an error", raw, e)
		}
	}
	_, _, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewScanner(conn)
	if !r.Scan() { // hello
		t.Fatal("no hello")
	}
	reply := func(req string) Message {
		t.Helper()
		if _, err := conn.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		if !r.Scan() {
			t.Fatalf("no reply to %s (server gone?): %v", req, r.Err())
		}
		var m Message
		if err := json.Unmarshal(r.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for i, raw := range malformedExprs {
		id := uint64(2*i + 1)
		bad := reply(fmt.Sprintf(`{"type":"query","id":%d,"specs":[{"rel":"R","cond":%s}]}`, id, raw))
		if bad.Type != "error" || bad.ID != id {
			t.Fatalf("malformed %s: reply %+v, want an error for id %d", raw, bad, id)
		}
		good := reply(fmt.Sprintf(`{"type":"query","id":%d,"specs":[{"rel":"R","cond":{"op":"in","name":"a","values":[{"k":"int","i":2},{"k":"float","f":7}]}}]}`, id+1))
		if good.Type != "answer" || good.ID != id+1 || len(good.Answers) != 1 {
			t.Fatalf("good query after %s: reply %+v", raw, good)
		}
		ans, err := good.Answers[0].Decode()
		if err != nil || ans.Len() != 1 || !ans.Contains(relation.T(2, 20)) {
			t.Fatalf("good query after %s: answer %v, %v; want {(2, 20)}", raw, ans, err)
		}
	}
}

// FuzzExprDecode feeds arbitrary JSON to the expression decoder. What it
// accepts must compile and evaluate on a fixed tuple without panicking,
// and must survive EncodeExpr∘Decode unchanged.
func FuzzExprDecode(f *testing.F) {
	for _, raw := range malformedExprs {
		f.Add([]byte(raw))
	}
	f.Add([]byte(`{"op":"and","terms":[{"op":"cmp","sub":"<=","l":{"op":"attr","name":"a"},"r":{"op":"const","value":{"k":"float","f":2.5}}},{"op":"not","l":{"op":"attr","name":"c"}}]}`))
	f.Add([]byte(`{"op":"in","name":"b","values":[{"k":"int","i":10},{"k":"null"},{"k":"string","s":"x"}]}`))
	f.Add([]byte(`{"op":"or","terms":[{"op":"in","name":"zz"},{"op":"arith","sub":"/","l":{"op":"attr","name":"a"},"r":{"op":"const","value":{"k":"int"}}}]}`))
	schema := relation.MustSchema("R", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindInt}, {Name: "c", Type: relation.KindBool}})
	tuple := relation.Tuple{relation.Int(2), relation.Int(10), relation.Bool(true)}
	rel := relation.NewBag(schema)
	rel.Add(tuple, 1)
	f.Fuzz(func(t *testing.T, b []byte) {
		var w *Expr
		if json.Unmarshal(b, &w) != nil {
			return
		}
		e, err := w.Decode()
		if err != nil {
			return
		}
		_, _ = algebra.Compile(e, schema).Eval(tuple)
		_, _ = algebra.SelectProject(rel, "R", nil, e)
		w2, err := EncodeExpr(e)
		if err != nil {
			t.Fatalf("EncodeExpr of decoded %s: %v", b, err)
		}
		e2, err := w2.Decode()
		if err != nil {
			t.Fatalf("re-decode of %s: %v", b, err)
		}
		if !reflect.DeepEqual(e, e2) && fmt.Sprintf("%#v", e) != fmt.Sprintf("%#v", e2) {
			t.Fatalf("round trip of %s: %#v -> %#v", b, e, e2)
		}
	})
}
