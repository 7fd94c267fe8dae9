package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// DecisionTree is a CART-style classification tree with Gini impurity
// splits. MaxFeatures < dim turns it into the randomized base learner of a
// Random Forest.
type DecisionTree struct {
	MaxDepth    int // 0 means unlimited
	MinSamples  int // minimum samples to attempt a split (default 2)
	MaxFeatures int // features sampled per split; 0 means all
	Seed        int64

	classes int
	root    *treeNode
	rng     *rand.Rand
}

type treeNode struct {
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
	proba   []float64 // leaf distribution; nil for internal nodes
}

// NewDecisionTree returns a tree with the given depth limit (0 = unlimited).
func NewDecisionTree(maxDepth int) *DecisionTree {
	return &DecisionTree{MaxDepth: maxDepth, MinSamples: 2}
}

// Name identifies the model including its depth limit.
func (t *DecisionTree) Name() string {
	if t.MaxDepth == 0 {
		return "dt"
	}
	return fmt.Sprintf("dt%d", t.MaxDepth)
}

// Fit grows the tree greedily.
func (t *DecisionTree) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	t.classes = classes
	if t.MinSamples < 2 {
		t.MinSamples = 2
	}
	t.rng = rand.New(rand.NewSource(t.Seed + 1))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(X, y, idx, 0)
	return nil
}

func (t *DecisionTree) leaf(y []int, idx []int) *treeNode {
	p := make([]float64, t.classes)
	for _, i := range idx {
		p[y[i]]++
	}
	return &treeNode{proba: Normalize(p)}
}

func (t *DecisionTree) grow(X [][]float64, y []int, idx []int, depth int) *treeNode {
	if len(idx) < t.MinSamples || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pure(y, idx) {
		return t.leaf(y, idx)
	}
	dim := len(X[0])
	features := t.candidateFeatures(dim)

	bestGain := 0.0
	bestF, bestT := -1, 0.0
	base := gini(y, idx, t.classes)
	for _, f := range features {
		gain, thresh, ok := bestSplit(X, y, idx, f, t.classes, base)
		if ok && gain > bestGain {
			bestGain, bestF, bestT = gain, f, thresh
		}
	}
	if bestF < 0 || bestGain <= 1e-12 {
		return t.leaf(y, idx)
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestF] <= bestT {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return t.leaf(y, idx)
	}
	return &treeNode{
		feature: bestF,
		thresh:  bestT,
		left:    t.grow(X, y, li, depth+1),
		right:   t.grow(X, y, ri, depth+1),
	}
}

func (t *DecisionTree) candidateFeatures(dim int) []int {
	if t.MaxFeatures <= 0 || t.MaxFeatures >= dim {
		out := make([]int, dim)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return t.rng.Perm(dim)[:t.MaxFeatures]
}

// PredictProba walks the tree to the leaf distribution.
func (t *DecisionTree) PredictProba(x []float64) []float64 {
	n := t.root
	for n.proba == nil {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

// Depth returns the height of the fitted tree (a leaf-only tree has depth 0).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.proba != nil {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func pure(y []int, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}

func gini(y []int, idx []int, classes int) float64 {
	counts := make([]float64, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	n := float64(len(idx))
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// bestSplit finds the threshold on feature f with the best Gini gain using a
// single sorted sweep with incremental class counts.
func bestSplit(X [][]float64, y []int, idx []int, f, classes int, baseGini float64) (gain, thresh float64, ok bool) {
	type fv struct {
		v float64
		c int
	}
	vals := make([]fv, len(idx))
	for i, id := range idx {
		vals[i] = fv{X[id][f], y[id]}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

	n := float64(len(vals))
	leftCounts := make([]float64, classes)
	rightCounts := make([]float64, classes)
	for _, v := range vals {
		rightCounts[v.c]++
	}
	leftN, rightN := 0.0, n
	var leftSq, rightSq float64
	for _, c := range rightCounts {
		rightSq += c * c
	}

	best := -1.0
	bestThresh := 0.0
	for i := 0; i < len(vals)-1; i++ {
		c := vals[i].c
		// Move one sample left, maintaining Σcount² incrementally.
		leftSq += 2*leftCounts[c] + 1
		leftCounts[c]++
		rightSq += -2*rightCounts[c] + 1
		rightCounts[c]--
		leftN++
		rightN--
		if vals[i].v == vals[i+1].v {
			continue // can't split between equal values
		}
		gl := 1 - leftSq/(leftN*leftN)
		gr := 1 - rightSq/(rightN*rightN)
		g := baseGini - (leftN/n)*gl - (rightN/n)*gr
		if g > best {
			best = g
			bestThresh = (vals[i].v + vals[i+1].v) / 2
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return best, bestThresh, true
}
