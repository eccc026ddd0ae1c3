package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseDoc(t *testing.T, src string) *node {
	t.Helper()
	n, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parseYAML: %v", err)
	}
	return n
}

func TestYAMLBlockAndFlowEquivalence(t *testing.T) {
	block := parseDoc(t, "a:\n  - 1\n  - 2\nb:\n  c: x\n  d: y\n")
	flow := parseDoc(t, "a: [1, 2]\nb: {c: x, d: y}\n")
	for _, n := range []*node{block, flow} {
		if n.kind != kindMap || len(n.keys) != 2 {
			t.Fatalf("top level = %s", n.kindName())
		}
		a := n.vals["a"]
		if a.kind != kindList || len(a.list) != 2 || a.list[1].scalar != "2" {
			t.Errorf("a = %s", a.kindName())
		}
		b := n.vals["b"]
		if b.kind != kindMap || b.vals["d"].scalar != "y" {
			t.Errorf("b = %s", b.kindName())
		}
	}
}

func TestYAMLMapOrderPreserved(t *testing.T) {
	n := parseDoc(t, "z: 1\nm: 2\na: 3\n")
	want := []string{"z", "m", "a"}
	for i, k := range n.keys {
		if k != want[i] {
			t.Fatalf("keys = %v, want %v", n.keys, want)
		}
	}
}

func TestYAMLScalars(t *testing.T) {
	n := parseDoc(t, `
plain: hello world
trail: ends, with delims] here}   # comment stripped
quoted: "a # not a comment, and a: colon"
single: 'also: quoted'
num: -42
`)
	cases := map[string]struct {
		text   string
		quoted bool
	}{
		"plain":  {"hello world", false},
		"trail":  {"ends, with delims] here}", false},
		"quoted": {"a # not a comment, and a: colon", true},
		"single": {"also: quoted", true},
		"num":    {"-42", false},
	}
	for k, want := range cases {
		got := n.vals[k]
		if got == nil || got.kind != kindScalar {
			t.Errorf("%s: not a scalar", k)
			continue
		}
		if got.scalar != want.text || got.quoted != want.quoted {
			t.Errorf("%s = %q (quoted=%v), want %q (quoted=%v)",
				k, got.scalar, got.quoted, want.text, want.quoted)
		}
	}
}

func TestYAMLListOfMaps(t *testing.T) {
	n := parseDoc(t, `
steps:
  - advance: 5
  - query:
      export: V
  - flush
`)
	steps := n.vals["steps"]
	if steps.kind != kindList || len(steps.list) != 3 {
		t.Fatalf("steps = %s", steps.kindName())
	}
	if steps.list[0].kind != kindMap || steps.list[0].vals["advance"].scalar != "5" {
		t.Errorf("step 0 = %s", steps.list[0].kindName())
	}
	q := steps.list[1].vals["query"]
	if q == nil || q.kind != kindMap || q.vals["export"].scalar != "V" {
		t.Errorf("step 1 nested map missing")
	}
	if steps.list[2].kind != kindScalar || steps.list[2].scalar != "flush" {
		t.Errorf("step 2 = %s", steps.list[2].kindName())
	}
}

func TestYAMLNestedFlow(t *testing.T) {
	n := parseDoc(t, "m: {a: [1, [2, 3]], b: {c: 4}}\n")
	m := n.vals["m"]
	inner := m.vals["a"].list[1]
	if inner.kind != kindList || inner.list[0].scalar != "2" || inner.list[1].scalar != "3" {
		t.Errorf("nested flow list = %s", inner.kindName())
	}
	if m.vals["b"].vals["c"].scalar != "4" {
		t.Errorf("nested flow map missing")
	}
}

// TestYAMLQuotedKeys: a single- or double-quoted key names what a plain
// scalar cannot, such as a primed node, in block and flow maps alike.
func TestYAMLQuotedKeys(t *testing.T) {
	block := parseDoc(t, "store:\n  \"R'\": 5\n  'V: w': 6\n  T: 7\n")
	flow := parseDoc(t, "store: {\"R'\": 5, 'V: w': 6, T: 7}\n")
	for name, n := range map[string]*node{"block": block, "flow": flow} {
		st := n.vals["store"]
		if st == nil || st.kind != kindMap {
			t.Fatalf("%s: store is not a mapping", name)
		}
		if got := strings.Join(st.keys, "|"); got != "R'|V: w|T" {
			t.Errorf("%s: keys %q, want %q", name, got, "R'|V: w|T")
		}
		if v := st.vals["R'"]; v == nil || v.scalar != "5" {
			t.Errorf("%s: store[R'] missing", name)
		}
	}
}

func TestYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab", "a:\n\tb: 1\n", "tab"},
		{"dup key", "a: 1\na: 2\n", "duplicate key"},
		{"dup flow key", "a: {b: 1, b: 2}\n", "duplicate key"},
		{"unclosed list", "a: [1, 2\n", "expected ',' or ']'"},
		{"unclosed map", "a: {b: 1\n", "expected ',' or '}'"},
		{"unclosed quote", `a: "oops` + "\n", "unterminated"},
		{"mixed siblings", "a: 1\n- b\n", "unexpected content"},
		{"trailing flow junk", "a: [1] x\n", "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "line ") {
				t.Errorf("error %q has no line prefix", err)
			}
		})
	}
}

func TestYAMLErrorLineNumbers(t *testing.T) {
	src := "a: 1\nb: 2\nc:\n  - ok\n  - {bad: 1, bad: 2}\n"
	_, err := parseYAML([]byte(src))
	if err == nil {
		t.Fatal("accepted duplicate flow key")
	}
	if !strings.HasPrefix(err.Error(), "line 5:") {
		t.Errorf("error %q, want line 5", err)
	}
}

// FuzzScenarioSpec drives arbitrary bytes through the full parse+bind
// pipeline. Any input may be rejected, but the parser must never panic;
// parse errors must carry their line prefix.
func FuzzScenarioSpec(f *testing.F) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(minimalSpec))
	f.Add([]byte("a: [1, {b: 'c'}]\n"))
	f.Add([]byte("\t"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "line ") {
				t.Errorf("parse error without line prefix: %v", err)
			}
			return
		}
		if spec.Name == "" {
			t.Error("accepted spec has empty name")
		}
	})
}
