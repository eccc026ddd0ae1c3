package sqlview

import (
	"reflect"
	"sort"
	"testing"

	"squirrel/internal/algebra"
)

// FuzzQuerySQL feeds arbitrary query text to the path every SQL query
// takes, Parse then ToRelExpr. Neither may panic, and an expression that
// compiles must read exactly the relations its FROM clauses name.
func FuzzQuerySQL(f *testing.F) {
	for _, seed := range []string{
		`SELECT r1, s1 FROM T WHERE s1 = 10`,
		`SELECT r1 FROM T JOIN X ON a = b`,
		`SELECT r1 FROM T WHERE s1 = 10 UNION SELECT r1 FROM T`,
		`SELECT s1, s2 FROM T WHERE r1 = 1 UNION SELECT r1, r2 FROM RV`,
		`SELECT r1 FROM R`,
		`SELECT r1 FROM NOPE`,
		`garbage`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		expr, err := stmt.ToRelExpr("answer")
		if err != nil {
			return
		}
		want := map[string]bool{}
		for _, sel := range []*SelectStmt{stmt.Left, stmt.Right} {
			if sel == nil {
				continue
			}
			for _, tr := range sel.Tables {
				want[tr.Rel] = true
			}
		}
		var names []string
		for n := range want {
			names = append(names, n)
		}
		sort.Strings(names)
		if got := algebra.BaseRelationsOf(expr); !reflect.DeepEqual(got, names) {
			t.Fatalf("%q reads %v, want %v", sql, got, names)
		}
	})
}
