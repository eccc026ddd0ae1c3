package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignStepListMatchesDecoder holds DESIGN.md §9's timeline item to
// the step decoder: every kind bindStep's switch accepts is named there in
// backquotes, and every backquoted name there is a kind it accepts.
func TestDesignStepListMatchesDecoder(t *testing.T) {
	code := stepKindsInDecoder(t)
	doc := stepKindsInDesign(t)
	for k := range code {
		if !doc[k] {
			t.Errorf("DESIGN.md §9 does not name the step %q", k)
		}
	}
	for k := range doc {
		if !code[k] {
			t.Errorf("DESIGN.md §9 names %q, which the step decoder rejects", k)
		}
	}
}

// stepKindsInDecoder collects the case labels of the switch on kind in
// steps.go's bindStep.
func stepKindsInDecoder(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "steps.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "bindStep" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if id, ok := sw.Tag.(*ast.Ident); !ok || id.Name != "kind" {
				return true
			}
			for _, stmt := range sw.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					if lit, ok := e.(*ast.BasicLit); ok {
						s, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out[s] = true
					}
				}
			}
			return false
		})
	}
	if len(out) == 0 {
		t.Fatal("found no step kinds in bindStep")
	}
	return out
}

// stepKindsInDesign collects the backquoted bare names of §9's
// "**`timeline`**" item (field syntax such as `stale: true` does not
// match).
func stepKindsInDesign(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "\n## 9.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §9")
	}
	sec := text[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	item := regexp.MustCompile("(?s)\n\\d+\\. \\*\\*`timeline`\\*\\* —(.*?)\n(\n|\\d+\\. )").FindStringSubmatch(sec)
	if item == nil {
		t.Fatal("DESIGN.md §9 has no **`timeline`** item")
	}
	out := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(item[1], -1) {
		out[m[1]] = true
	}
	return out
}
