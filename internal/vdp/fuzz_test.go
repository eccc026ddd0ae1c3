package vdp

import "testing"

// FuzzViewSQL feeds arbitrary view definitions to the builder over the
// fixed R@db1 / S@db2 catalog. Every input must either be rejected with an
// error or build a plan; a plan that builds must satisfy the stage
// invariants the staged kernel relies on.
func FuzzViewSQL(f *testing.F) {
	for _, seed := range []string{
		`SELECT r1, r3, s1, s2 FROM R JOIN S ON r2 = s1 WHERE r4 = 100 AND s3 < 50`,
		`SELECT r1, r2 FROM R WHERE r4 = 100`,
		`SELECT * FROM R WHERE r4 = 100`,
		`SELECT r1, s1 FROM R CROSS JOIN S`,
		`SELECT r1 FROM R WHERE r4 = 100 UNION SELECT s1 FROM S WHERE s3 < 50`,
		`SELECT r1 FROM R WHERE r4 = 100 EXCEPT SELECT s1 FROM S WHERE s3 < 50`,
		`SELECT r1, r3 FROM R JOIN R ON r2 = r3`,
		`SELECT r1 FROM R AS a JOIN R AS b ON r2 = r3`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		b := NewBuilder()
		builderSources(t, b)
		if err := b.AddViewSQL("V", sql); err != nil {
			return
		}
		v, err := b.Build()
		if err != nil {
			return
		}
		checkStageInvariants(t, v)
	})
}
