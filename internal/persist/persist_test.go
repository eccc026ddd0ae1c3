package persist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
)

func sampleSnapshot(t testing.TB) *core.StateSnapshot {
	t.Helper()
	schema := relation.MustSchema("T", []relation.Attribute{
		{Name: "a", Type: relation.KindInt}, {Name: "b", Type: relation.KindString}})
	rel := relation.NewBag(schema)
	rel.Add(relation.T(1, "x"), 2)
	rel.Add(relation.T(2, "y"), 1)
	set := relation.NewSet(schema.Rename("G"))
	set.Insert(relation.T(3, "z"))
	return &core.StateSnapshot{
		Store:         map[string]*relation.Relation{"T": rel, "G": set},
		LastProcessed: clock.Vector{"db1": 17, "db2": 23},
		ViewInit:      5,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewInit != snap.ViewInit {
		t.Errorf("viewInit = %d", got.ViewInit)
	}
	if got.LastProcessed["db1"] != 17 || got.LastProcessed["db2"] != 23 {
		t.Errorf("lastProcessed = %v", got.LastProcessed)
	}
	if len(got.Store) != 2 {
		t.Fatalf("stores = %d", len(got.Store))
	}
	if !got.Store["T"].Equal(snap.Store["T"]) {
		t.Errorf("T:\n%svs\n%s", got.Store["T"], snap.Store["T"])
	}
	if got.Store["G"].Semantics() != relation.Set {
		t.Errorf("set semantics lost")
	}
}

// The envelope must not alias the caller's snapshot: what Save wrote is
// fixed at the call, regardless of what the caller does to the snapshot
// afterwards (the regression was the envelope sharing snap.LastProcessed,
// so a concurrent mutation mid-encode could corrupt the written ref′).
func TestSaveIsolatedFromLaterMutation(t *testing.T) {
	snap := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	snap.LastProcessed["db1"] = 999999
	snap.LastProcessed["db3"] = 1
	snap.Store["T"].Clear()

	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastProcessed["db1"] != 17 || got.LastProcessed["db2"] != 23 {
		t.Errorf("saved ref′ corrupted by later mutation: %v", got.LastProcessed)
	}
	if _, leaked := got.LastProcessed["db3"]; leaked {
		t.Errorf("later vector insert leaked into the saved envelope")
	}
	if got.Store["T"].Len() != 2 {
		t.Errorf("saved store corrupted by later mutation: %d rows", got.Store["T"].Len())
	}
}

// Load hands back freshly decoded state: mutating one loaded snapshot
// must not affect a second load of the same bytes.
func TestLoadReturnsIndependentCopies(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	first, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	first.Store["T"].Clear()
	first.LastProcessed["db1"] = 0
	second, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if second.Store["T"].Len() != 2 || second.LastProcessed["db1"] != 17 {
		t.Errorf("loads share state: %d rows, ref′ %v", second.Store["T"].Len(), second.LastProcessed)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader(frame("not json"))); err == nil {
		t.Errorf("garbage must fail")
	}
	// Only the current payload version loads; v1/v2 layouts are retired.
	for _, v := range []int{1, 2, 99} {
		in := frame(fmt.Sprintf(`{"version": %d, "store": {}}`, v))
		if _, err := Load(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("payload version %d: err = %v, want unsupported", v, err)
		}
	}
	if _, err := Load(strings.NewReader(frame(`{"version": 3, "store": {"T": {"schema": {"name":"T","attrs":[{"name":"a","type":"zzz"}]}, "sem":"bag"}}}`))); err == nil ||
		!strings.Contains(err.Error(), "zzz") {
		t.Errorf("bad attr type must fail: %v", err)
	}
	if err := Save(&bytes.Buffer{}, nil); err == nil {
		t.Errorf("nil snapshot must fail")
	}
}

// schemaViolations are checkpoint payloads that decode column by column
// but break their own schema; testdata/fuzz/FuzzCheckpointLoad seeds
// the fuzzer with the same inputs.
var schemaViolations = []struct{ name, payload, attr string }{
	{"string in an int attribute",
		`{"version": 3, "store": {"T": {"schema": {"name": "T", "attrs": [{"name": "a", "type": "int"}, {"name": "b", "type": "string"}]}, "sem": "bag", "cols": [{"kind": "string", "s": ["q"]}, {"kind": "string", "s": ["x"]}], "counts": [1]}}}`,
		`"a"`},
	{"key repeated across set rows",
		`{"version": 3, "store": {"T": {"schema": {"name": "T", "attrs": [{"name": "a", "type": "int"}], "key": ["a"]}, "sem": "set", "cols": [{"kind": "int", "i": [1, 1]}], "counts": [1, 1]}}}`,
		`[a]`},
	{"key with count two",
		`{"version": 3, "store": {"T": {"schema": {"name": "T", "attrs": [{"name": "a", "type": "int"}], "key": ["a"]}, "sem": "bag", "cols": [{"kind": "int", "i": [1]}], "counts": [2]}}}`,
		`[a]`},
	{"key shared by two tuples",
		`{"version": 3, "store": {"T": {"schema": {"name": "T", "attrs": [{"name": "a", "type": "int"}, {"name": "b", "type": "string"}], "key": ["a"]}, "sem": "set", "cols": [{"kind": "int", "i": [1, 1]}, {"kind": "string", "s": ["x", "y"]}], "counts": [1, 1]}}}`,
		`[a]`},
}

func TestLoadRejectsSchemaViolations(t *testing.T) {
	for _, c := range schemaViolations {
		_, err := Load(strings.NewReader(frame(c.payload)))
		if err == nil || !strings.Contains(err.Error(), `store "T"`) || !strings.Contains(err.Error(), c.attr) {
			t.Errorf("%s: err = %v, want one naming store \"T\" and %s", c.name, err, c.attr)
		}
	}
}

func TestEmptyVectorDefaults(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, &core.StateSnapshot{Store: map[string]*relation.Relation{}}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastProcessed == nil {
		t.Errorf("lastProcessed must default to an empty vector")
	}
}

func TestAnnotationsRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	snap.Annotations = map[string]vdp.Annotation{
		"T": vdp.Ann([]string{"a"}, []string{"b"}),
		"G": vdp.Ann([]string{"a", "b"}, nil),
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// The envelope carries the stable "m"/"v" form, not Mat's numbers.
	if s := buf.String(); !strings.Contains(s, `"annotations"`) || !strings.Contains(s, `"v"`) {
		t.Fatalf("envelope missing string-form annotations:\n%s", s)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !vdp.AnnotationsEqual(got.Annotations, snap.Annotations) {
		t.Errorf("annotations = %v, want %v", got.Annotations, snap.Annotations)
	}

	// Absent annotations stay nil (pre-adaptive envelopes).
	plain := sampleSnapshot(t)
	buf.Reset()
	if err := Save(&buf, plain); err != nil {
		t.Fatal(err)
	}
	plainEnv := buf.String() // Load drains the buffer; keep the text
	if strings.Contains(plainEnv, "annotations") {
		t.Fatal("nil annotations must be omitted from the envelope")
	}
	got, err = Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Annotations != nil {
		t.Errorf("annotations = %v, want nil", got.Annotations)
	}

	// Unknown materialization strings are rejected. Edit the JSON payload
	// and frame it again, so the checksum matches and the decoder runs.
	payload := plainEnv[strings.IndexByte(plainEnv, '\n')+1:]
	verField := fmt.Sprintf(`"version": %d`, Version)
	bad := strings.Replace(payload, verField,
		verField+`, "annotations": {"T": {"a": "x"}}`, 1)
	if bad == payload {
		t.Fatalf("version field not found in envelope:\n%s", payload)
	}
	if _, err := Load(strings.NewReader(frame(bad))); err == nil ||
		!strings.Contains(err.Error(), "unknown materialization") {
		t.Errorf("bad materialization accepted: %v", err)
	}
}
