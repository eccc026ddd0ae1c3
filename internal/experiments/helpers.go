package experiments

import (
	"math/rand"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// projectTruth applies π_attrs σ_cond to a ground-truth relation,
// mirroring the QP's answer construction (bag projection).
func projectTruth(truth *relation.Relation, attrs []string, cond algebra.Expr) (*relation.Relation, error) {
	return algebra.SelectProject(truth, truth.Schema().Name(), attrs, cond)
}
