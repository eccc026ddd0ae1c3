package squirrel_test

import (
	"os"
	"strings"
	"testing"
)

// TestPackageMapsMatchTree keeps the two package maps — DESIGN.md §2's
// repository layout and README's Architecture block — in step with the
// tree: every internal/ directory has a row in each map, every row
// names a directory that exists, and every root-level .go file a map
// names exists.
func TestPackageMapsMatchTree(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	tree := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			tree[e.Name()] = true
		}
	}
	for _, doc := range []struct{ file, heading string }{
		{"DESIGN.md", "## 2. Repository layout"},
		{"README.md", "## Architecture"},
	} {
		block := section(t, section(t, readDoc(t, doc.file), doc.heading, "\n## "), "```", "```")
		rows := packageRows(block)
		if len(rows) == 0 {
			t.Fatalf("%s: no internal/ package map under %q", doc.file, doc.heading)
		}
		for name := range rows {
			if !tree[name] {
				t.Errorf("%s maps internal/%s, which does not exist", doc.file, name)
			}
		}
		for name := range tree {
			if !rows[name] {
				t.Errorf("%s's package map has no row for internal/%s", doc.file, name)
			}
		}
		for _, name := range rootGoFiles(block) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s maps root file %s, which does not exist", doc.file, name)
			}
		}
	}
}

// packageRows returns the directories a layout block lists one level
// under its "internal/" line: lines indented two columns deeper whose
// first word ends in "/".
func packageRows(block string) map[string]bool {
	rows := map[string]bool{}
	at := -1
	for _, line := range strings.Split(block, "\n") {
		text := strings.TrimLeft(line, " ")
		indent := len(line) - len(text)
		switch {
		case at < 0:
			if text == "internal/" {
				at = indent
			}
		case text == "":
		case indent <= at:
			return rows
		case indent == at+2:
			if word, _, _ := strings.Cut(text, " "); strings.HasSuffix(word, "/") {
				rows[strings.TrimSuffix(word, "/")] = true
			}
		}
	}
	return rows
}

// rootGoFiles returns the .go files a layout block names on its
// root-level rows: lines indented like its "internal/" line.
func rootGoFiles(block string) []string {
	lines := strings.Split(block, "\n")
	at := -1
	for _, line := range lines {
		if text := strings.TrimLeft(line, " "); text == "internal/" {
			at = len(line) - len(text)
		}
	}
	var files []string
	for _, line := range lines {
		text := strings.TrimLeft(line, " ")
		if len(line)-len(text) != at {
			continue
		}
		for _, word := range strings.Fields(text) {
			if word = strings.TrimRight(word, ","); strings.HasSuffix(word, ".go") {
				files = append(files, word)
			}
		}
	}
	return files
}
