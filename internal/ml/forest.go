package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// RandomForest bags randomized decision trees and averages their leaf
// distributions. The paper's Exp 2 uses forests of 5/10/15/20 trees as a
// same-algorithm function family whose cost scales with tree count while
// quality improves — the canonical cost/quality tradeoff.
type RandomForest struct {
	Trees    int
	MaxDepth int
	Seed     int64

	classes int
	forest  []*DecisionTree
}

// NewRandomForest returns a forest with n trees (default 10 when
// non-positive) and the given per-tree depth limit.
func NewRandomForest(n, maxDepth int, seed int64) *RandomForest {
	if n <= 0 {
		n = 10
	}
	return &RandomForest{Trees: n, MaxDepth: maxDepth, Seed: seed}
}

// Name identifies the model including its tree count.
func (f *RandomForest) Name() string { return fmt.Sprintf("rf%d", f.Trees) }

// Fit trains each tree on a bootstrap sample with sqrt(dim) feature
// subsampling.
func (f *RandomForest) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	f.classes = classes
	dim := len(X[0])
	maxFeatures := int(math.Sqrt(float64(dim)))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	r := rand.New(rand.NewSource(f.Seed))
	f.forest = make([]*DecisionTree, f.Trees)
	n := len(X)
	for t := 0; t < f.Trees; t++ {
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			p := r.Intn(n)
			bx[i] = X[p]
			by[i] = y[p]
		}
		tree := NewDecisionTree(f.MaxDepth)
		tree.MaxFeatures = maxFeatures
		tree.Seed = f.Seed + int64(t)*7919
		if err := tree.Fit(bx, by, classes); err != nil {
			return err
		}
		f.forest[t] = tree
	}
	return nil
}

// PredictProba averages the trees' distributions.
func (f *RandomForest) PredictProba(x []float64) []float64 {
	sum := make([]float64, f.classes)
	for _, t := range f.forest {
		for c, p := range t.PredictProba(x) {
			sum[c] += p
		}
	}
	return Normalize(sum)
}
