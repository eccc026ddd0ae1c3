package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Each experiment must run to completion and self-validate (every runner
// returns an error if its correctness column fails). These are the shape
// checks for the reproduction tables.
func TestExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Registry[id](&buf); err != nil {
				t.Fatalf("%s: %v\n%s", id, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"—") && !strings.Contains(out, id+" —") {
				t.Errorf("%s: output lacks experiment header:\n%s", id, out)
			}
		})
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() incomplete: %v", ids)
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E22" {
		t.Errorf("ordering: %v", ids)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Notes:  []string{"a note"},
	}
	tab.Add("x", 3.14159)
	tab.Add(42, "y")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"## demo", "long-column", "3.14", "42", "note: a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRunAllSmoke checks RunAll's contract on a stub registry (the real
// runners are exercised by TestExperimentsRun): experiments run in IDs()
// order, and the first failure stops the run, wrapped as "<id>: ".
func TestRunAllSmoke(t *testing.T) {
	saved := Registry
	t.Cleanup(func() { Registry = saved })
	var ran []string
	stub := func(id string, err error) func(io.Writer) error {
		return func(w io.Writer) error {
			ran = append(ran, id)
			fmt.Fprintf(w, "%s ", id)
			return err
		}
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		reg     map[string]func(io.Writer) error
		ran     string
		wantErr string
	}{
		{map[string]func(io.Writer) error{"E10": stub("E10", nil), "E2": stub("E2", nil), "E1": stub("E1", nil)},
			"E1 E2 E10", ""},
		{map[string]func(io.Writer) error{"E10": stub("E10", nil), "E2": stub("E2", boom), "E1": stub("E1", nil), "E3": stub("E3", errors.New("later"))},
			"E1 E2", "E2: boom"},
	} {
		Registry, ran = tc.reg, nil
		var buf bytes.Buffer
		err := RunAll(&buf)
		if got := strings.Join(ran, " "); got != tc.ran || buf.String() != got+" " {
			t.Errorf("ran %q, wrote %q; want %q in order", got, buf.String(), tc.ran)
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("clean run: %v", err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr || !errors.Is(err, boom)):
			t.Errorf("error %v, want %q wrapping the runner's error", err, tc.wantErr)
		}
	}
}
