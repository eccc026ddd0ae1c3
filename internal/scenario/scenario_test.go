package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"squirrel/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden transcripts")

const corpusDir = "../../testdata/scenarios"

// TestScenarioCorpus is the tier-1 gate for the scenario harness: every
// spec in testdata/scenarios must parse, pass its own assertions, be
// bit-for-bit deterministic (two executions, byte-identical transcripts),
// and match its committed golden transcript. Run with -update to accept
// transcript changes.
func TestScenarioCorpus(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".yaml") {
			continue
		}
		n++
		path := filepath.Join(corpusDir, e.Name())
		t.Run(strings.TrimSuffix(e.Name(), ".yaml"), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			first, err := Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if first.Err != nil {
				t.Fatalf("scenario failed:\n%s", first.Transcript)
			}
			// Determinism: a fresh parse and run must reproduce the
			// transcript exactly.
			spec2, err := ParseSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(spec2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Transcript, second.Transcript) {
				t.Fatalf("transcripts diverged between two runs of the same spec:\n--- first\n%s--- second\n%s",
					first.Transcript, second.Transcript)
			}
			golden := path + ".golden"
			if *update {
				if err := os.WriteFile(golden, first.Transcript, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(first.Transcript, want) {
				t.Errorf("transcript differs from golden (re-run with -update to accept):\n--- got\n%s--- want\n%s",
					first.Transcript, want)
			}
		})
	}
	if n < 20 {
		t.Errorf("scenario corpus has %d specs; the harness contract requires at least 20", n)
	}
}

// minimalSpec is a tiny valid scenario other tests mutate.
const minimalSpec = `
name: mini
horizon: 1000
delays:
  u_hold: 0
  u_proc: 1
  q_proc_med: 1
  sources:
    db1: {ann: 1, comm: 1, q_proc: 1}
sources:
  - name: db1
    relations:
      - name: R
        attrs: [r1:int, r2:int]
        key: [r1]
        rows:
          - [1, 10]
views:
  - name: V
    sql: SELECT r1, r2 FROM R
timeline:
  - query:
      export: V
      expect:
        count: 1
`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunMinimal(t *testing.T) {
	res, err := Run(mustParse(t, minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("scenario failed:\n%s", res.Transcript)
	}
	if !strings.Contains(string(res.Transcript), "result: PASS") {
		t.Errorf("transcript does not end in PASS:\n%s", res.Transcript)
	}
}

// TestHorizonTruncationFailsLoudly is the regression test for silently
// dropped timeline events: a burst extending past the horizon must fail
// the scenario with the dropped-event count, not truncate quietly.
func TestHorizonTruncationFailsLoudly(t *testing.T) {
	src := strings.Replace(minimalSpec, "horizon: 1000", "horizon: 40", 1)
	src = strings.Replace(src, `timeline:
  - query:
      export: V
      expect:
        count: 1
`, `timeline:
  - burst:
      source: db1
      relation: R
      count: 10
      every: 10
      insert:
        - ["100 + i", "i"]
`, 1)
	res, err := Run(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatalf("truncated timeline passed silently:\n%s", res.Transcript)
	}
	if !strings.Contains(res.Err.Error(), "dropped past horizon") {
		t.Errorf("failure does not name the horizon drop: %v", res.Err)
	}
	// The same burst under a sufficient horizon passes.
	ok := strings.Replace(src, "horizon: 40", "horizon: 1000", 1)
	res, err = Run(mustParse(t, ok))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("burst within horizon failed:\n%s", res.Transcript)
	}
}

// TestFailureTranscript: a failing expectation must produce a FAIL line
// and a complete transcript, not an abort.
func TestFailureTranscript(t *testing.T) {
	src := strings.Replace(minimalSpec, "count: 1", "count: 7", 1)
	res, err := Run(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Passed() {
		t.Fatal("wrong expected count passed")
	}
	tr := string(res.Transcript)
	if !strings.Contains(tr, "FAIL") || !strings.Contains(tr, "result: FAIL") {
		t.Errorf("failure not recorded in transcript:\n%s", tr)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(string) string
		want string
	}{
		{"unknown top-level key", func(s string) string {
			return s + "\nbogus: 1\n"
		}, `unknown key "bogus"`},
		{"unknown step", func(s string) string {
			return strings.Replace(s, "- query:", "- quary:", 1)
		}, "unknown step"},
		{"unknown export", func(s string) string {
			return strings.Replace(s, "export: V", "export: W", 1)
		}, "not an export"},
		{"bad attr kind", func(s string) string {
			return strings.Replace(s, "r2:int", "r2:quux", 1)
		}, "unknown attribute kind"},
		{"row arity", func(s string) string {
			return strings.Replace(s, "- [1, 10]", "- [1, 10, 3]", 1)
		}, "3 cells"},
		{"bad name", func(s string) string {
			return strings.Replace(s, "name: mini", "name: Mini Spec", 1)
		}, "lowercase"},
		{"duplicate key", func(s string) string {
			return strings.Replace(s, "horizon: 1000", "horizon: 1000\nhorizon: 2000", 1)
		}, "duplicate key"},
		{"tab indentation", func(s string) string {
			return strings.Replace(s, "  u_hold: 0", "\tu_hold: 0", 1)
		}, "tab"},
		{"max_staleness without stale", func(s string) string {
			return strings.Replace(s, "expect:", "max_staleness: 5\n      expect:", 1)
		}, "requires stale"},
		{"empty timeline", func(s string) string {
			i := strings.Index(s, "timeline:")
			return s[:i] + "timeline: []\n"
		}, "timeline is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.mut(minimalSpec)))
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// All parse errors must carry a line number (the "line N:" prefix), so
// spec authors can find the offending construct.
func TestParseErrorsCarryLines(t *testing.T) {
	bad := strings.Replace(minimalSpec, "r2:int", "r2:quux", 1)
	_, err := ParseSpec([]byte(bad))
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if !strings.HasPrefix(err.Error(), "line ") {
		t.Errorf("error has no line prefix: %v", err)
	}
}

// TestStatFieldsCoverStats keeps the assert.stats vocabulary closed over
// core.Stats: every integer counter field must be readable by some name.
// Fields that hold state rather than counts are exempt.
func TestStatFieldsCoverStats(t *testing.T) {
	exempt := map[string]bool{"ResyncsStuck": true}
	typ := reflect.TypeOf(core.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64:
		default:
			continue
		}
		if exempt[f.Name] {
			continue
		}
		var st core.Stats
		const mark = 7919
		fv := reflect.ValueOf(&st).Elem().Field(i)
		if fv.CanInt() {
			fv.SetInt(mark)
		} else {
			fv.SetUint(mark)
		}
		named := false
		for _, read := range statFields {
			if read(st) == mark {
				named = true
				break
			}
		}
		if !named {
			t.Errorf("core.Stats.%s has no assert.stats name in statFields", f.Name)
		}
	}
}
