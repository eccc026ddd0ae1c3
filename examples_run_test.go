package squirrel_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs it: each
// must exit 0 and end with the line it prints last when it works.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five programs")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for name, last := range map[string]string{
		"analytics":   "consistency check (incl. multi-export answers): OK",
		"hybridview":  "consistency check: OK",
		"netmediator": "mediator stats: polls=",
		"quickstart":  "consistency check (Theorem 7.1): OK",
		"retail":      "keeps the resident footprint between the two extremes.",
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if got := lines[len(lines)-1]; !strings.Contains(got, last) {
				t.Fatalf("%s ends with %q, want %q", name, got, last)
			}
		})
	}
}
