package squirrel_test

import (
	"regexp"
	"testing"
)

var (
	invariantItemRe = regexp.MustCompile(`(?m)^\d+\. `)
	invariantTestRe = regexp.MustCompile("`((?:Test|Fuzz)[A-Za-z0-9_]+)`")
)

// TestDesignInvariantsNameTests holds DESIGN.md §8 to the tests that
// enforce it: every numbered invariant names at least one backquoted
// Test* or Fuzz* func, and every func it names exists in some _test.go
// file.
func TestDesignInvariantsNameTests(t *testing.T) {
	funcs := testFuncs(t)
	items := invariantItemRe.Split(section(t, readDoc(t, "DESIGN.md"), "## 8. Invariants enforced by tests", "\n## "), -1)[1:]
	if len(items) == 0 {
		t.Fatal("DESIGN.md §8 lists no invariants")
	}
	for i, item := range items {
		names := invariantTestRe.FindAllStringSubmatch(item, -1)
		if len(names) == 0 {
			t.Errorf("DESIGN.md §8 item %d names no Test* or Fuzz* func", i+1)
		}
		for _, m := range names {
			if !funcs[m[1]] {
				t.Errorf("DESIGN.md §8 item %d names %s, which is no func in any _test.go", i+1, m[1])
			}
		}
	}
}
