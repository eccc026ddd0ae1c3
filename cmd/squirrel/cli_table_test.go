package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCLITableMatchesFlags holds README's CLI table to the flag sets the
// commands define: every flag has a row under its command, and every row
// names a flag its command defines.
func TestCLITableMatchesFlags(t *testing.T) {
	code := flagsInCode(t)
	table := flagsInREADME(t)
	for cmd, flags := range code {
		for f := range flags {
			if !table[cmd][f] {
				t.Errorf("README's CLI table has no row for %s -%s", cmd, f)
			}
		}
	}
	for cmd, flags := range table {
		if _, ok := code[cmd]; !ok {
			t.Errorf("README's CLI table lists %q, which has no flag set", cmd)
		}
		for f := range flags {
			if !code[cmd][f] {
				t.Errorf("README's CLI table lists %s -%s, which the command does not define", cmd, f)
			}
		}
	}
}

// flagsInCode maps each flag.NewFlagSet name to the flags defined on it
// (fs.String, fs.Int, …, and fs.Var) in this package's non-test files.
func flagsInCode(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sets := map[string]string{} // flag-set variable -> command
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isCall(n.Rhs[0], "flag", "NewFlagSet") {
						if v, ok := n.Lhs[0].(*ast.Ident); ok {
							cmd := stringArg(t, n.Rhs[0].(*ast.CallExpr), 0)
							sets[v.Name] = cmd
							if out[cmd] == nil {
								out[cmd] = map[string]bool{}
							}
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					recv, ok := sel.X.(*ast.Ident)
					if !ok || sets[recv.Name] == "" || sel.Sel.Name == "Parse" || len(n.Args) < 2 {
						return true
					}
					arg := 0
					if sel.Sel.Name == "Var" {
						arg = 1
					}
					out[sets[recv.Name]][stringArg(t, n, arg)] = true
				}
				return true
			})
		}
	}
	return out
}

func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && sel.Sel.Name == fn
}

func stringArg(t *testing.T, call *ast.CallExpr, i int) string {
	t.Helper()
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		t.Fatalf("flag name is a %T, not a string literal", call.Args[i])
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flagsInREADME reads README's `| Command | Flag | Meaning |` table. A row
// with an empty command cell continues the command above it; a row with
// an empty flag cell names a command without flags.
func flagsInREADME(t *testing.T) map[string]map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "| Command | Flag | Meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README has no | Command | Flag | Meaning | table")
	}
	out := map[string]map[string]bool{}
	cmd := ""
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed CLI table row %q", line)
		}
		if c := strings.Trim(strings.TrimSpace(cells[1]), "`"); c != "" {
			cmd = c
			if out[cmd] == nil {
				out[cmd] = map[string]bool{}
			}
		}
		if f := strings.Trim(strings.TrimSpace(cells[2]), "`"); f != "" {
			out[cmd][strings.TrimPrefix(f, "-")] = true
		}
	}
	return out
}
