package squirrel_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite api.txt")

// TestAPI holds package squirrel's exported surface to the committed
// api.txt: every exported const, var, type, func and method of the root
// package's non-test files, one per line, sorted. Run with -update to
// accept a change. It also checks that an importer can name every type
// the surface hands out: each type in an exported func or method
// signature, or in an exported field of an exported struct, must be
// predeclared, from the standard library, or declared (or aliased) in
// package squirrel — never a bare internal type.
func TestAPI(t *testing.T) {
	fset := token.NewFileSet()
	files := rootFiles(t, fset)

	got := strings.Join(apiLines(fset, files), "\n") + "\n"
	if *update {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile("api.txt"); err != nil {
		t.Fatalf("missing api.txt (run with -update): %v", err)
	} else if got != string(want) {
		t.Errorf("exported API differs from api.txt (re-run with -update to accept):\n%s",
			lineDiff(string(want), got))
	}

	for _, bad := range unnameable(files) {
		t.Errorf("%s: type %s cannot be named by an importer", bad.where, bad.typ)
	}
}

// rootFiles parses the root package's non-test Go files.
func rootFiles(t *testing.T, fset *token.FileSet) []*ast.File {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// apiLines renders the exported surface: "const X = v", "var X = v",
// "type X = T", "type X struct" plus one "type X struct, F T" line per
// exported field, "func F(sig)" and "method (R) M(sig)".
func apiLines(fset *token.FileSet, files []*ast.File) []string {
	str := func(n ast.Node) string {
		var buf bytes.Buffer
		printer.Fprint(&buf, fset, n)
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	var lines []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := strings.TrimPrefix(str(d.Type), "func")
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name+sig)
				} else if recv := d.Recv.List[0].Type; ast.IsExported(recvName(recv)) {
					lines = append(lines, fmt.Sprintf("method (%s) %s%s", str(recv), d.Name.Name, sig))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + name.Name
							if s.Type != nil {
								line += " " + str(s.Type)
							}
							if i < len(s.Values) {
								line += " = " + str(s.Values[i])
							}
							lines = append(lines, line)
						}
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						head := "type " + s.Name.Name
						if s.Assign.IsValid() {
							lines = append(lines, head+" = "+str(s.Type))
							continue
						}
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							lines = append(lines, head+" "+str(s.Type))
							continue
						}
						lines = append(lines, head+" struct")
						for _, field := range st.Fields.List {
							for _, name := range fieldNames(field) {
								if ast.IsExported(name) {
									lines = append(lines, head+" struct, "+name+" "+str(field.Type))
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// recvName is the type name of a method receiver (T or *T).
func recvName(recv ast.Expr) string {
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// fieldNames lists a struct field's names; an embedded field is named by
// its type.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		return []string{recvName(field.Type)}
	}
	var names []string
	for _, n := range field.Names {
		names = append(names, n.Name)
	}
	return names
}

type unnamed struct{ where, typ string }

// unnameable returns every type reference in an exported signature or
// exported struct field that an importer of package squirrel cannot
// spell: a type from a non-standard-library import (an internal
// package), or an identifier that is neither predeclared nor declared in
// the package.
func unnameable(files []*ast.File) []unnamed {
	declared := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.TYPE {
				for _, spec := range d.Specs {
					declared[spec.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
	}
	var bad []unnamed
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		var check func(where string, typ ast.Expr)
		fields := func(where string, list *ast.FieldList) {
			if list != nil {
				for _, field := range list.List {
					check(where, field.Type)
				}
			}
		}
		check = func(where string, typ ast.Expr) {
			switch x := typ.(type) {
			case *ast.Ident:
				if _, ok := types.Universe.Lookup(x.Name).(*types.TypeName); !ok && !declared[x.Name] {
					bad = append(bad, unnamed{where, x.Name})
				}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && !stdlib(imports[pkg.Name]) {
					bad = append(bad, unnamed{where, pkg.Name + "." + x.Sel.Name})
				}
			case *ast.StarExpr:
				check(where, x.X)
			case *ast.ParenExpr:
				check(where, x.X)
			case *ast.Ellipsis:
				check(where, x.Elt)
			case *ast.ArrayType:
				check(where, x.Elt)
			case *ast.ChanType:
				check(where, x.Value)
			case *ast.MapType:
				check(where, x.Key)
				check(where, x.Value)
			case *ast.FuncType:
				fields(where, x.Params)
				fields(where, x.Results)
			case *ast.StructType:
				fields(where, x.Fields)
			case *ast.InterfaceType:
				fields(where, x.Methods)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				where := d.Name.Name
				if d.Recv != nil {
					recv := recvName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					where = recv + "." + where
				}
				check(where, d.Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.TypeSpec)
					if !ok || !s.Name.IsExported() || s.Assign.IsValid() {
						continue
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, name := range fieldNames(field) {
								if ast.IsExported(name) {
									check(s.Name.Name+"."+name, field.Type)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad
}

// stdlib reports whether an import path belongs to the standard library:
// its first element has no dot and it is not this module's.
func stdlib(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return path != "" && first != "squirrel" && !strings.Contains(first, ".")
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
