package squirrel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	artifactRe  = regexp.MustCompile(`(Example|Theorem|Remark) \d\.\d|Fig\. \d`)
	specPathRe  = regexp.MustCompile("`(testdata/scenarios/[A-Za-z0-9_.-]+\\.yaml)`")
	testNameRe  = regexp.MustCompile("`((?:Test|Benchmark)[A-Za-z0-9_]+)`")
	testFuncsRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]+)\(`)
)

// TestExperimentsIndex keeps EXPERIMENTS.md in step with the paper and the
// tree: every artifact DESIGN.md lists has a row in the index's paper
// artifacts table, every spec path the index names exists with its golden
// transcript, and every Test*/Benchmark* it names is a func in some
// _test.go file.
func TestExperimentsIndex(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	artifacts := artifactRe.FindAllString(section(t, design, "<!-- paper-artifacts", "<!-- /paper-artifacts -->"), -1)
	if len(artifacts) == 0 {
		t.Fatal("DESIGN.md lists no paper artifacts")
	}
	index := readDoc(t, "EXPERIMENTS.md")
	rows := map[string]bool{}
	for _, line := range strings.Split(section(t, index, "## Paper artifacts", "\n## "), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| ") {
			rows[strings.TrimSpace(cells[1])] = true
		}
	}
	for _, a := range artifacts {
		if !rows[a] {
			t.Errorf("EXPERIMENTS.md has no row for %s", a)
		}
	}

	for _, m := range specPathRe.FindAllStringSubmatch(index, -1) {
		for _, p := range []string{m[1], m[1] + ".golden"} {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("EXPERIMENTS.md names %s: %v", p, err)
			}
		}
	}

	funcs := testFuncs(t)
	for _, m := range testNameRe.FindAllStringSubmatch(index, -1) {
		if !funcs[m[1]] {
			t.Errorf("EXPERIMENTS.md names %s, which is no func in any _test.go", m[1])
		}
	}
}

// testFuncs collects the Test*, Benchmark* and Fuzz* funcs declared in
// the repository's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncsRe.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// section returns the text after the first start marker up to the next
// end marker (or the end of the document).
func section(t *testing.T, doc, start, end string) string {
	t.Helper()
	i := strings.Index(doc, start)
	if i < 0 {
		t.Fatalf("no %q section", start)
	}
	doc = doc[i+len(start):]
	if j := strings.Index(doc, end); j >= 0 {
		doc = doc[:j]
	}
	return doc
}
