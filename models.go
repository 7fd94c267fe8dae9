package enrichdb

import (
	"enrichdb/internal/ml"
)

// The classifier zoo: every model the paper uses as an enrichment function,
// implemented in pure Go. All are deterministic for a fixed seed and return
// calibrated (or naturally probabilistic) distributions.

// NewGNB returns a Gaussian Naive Bayes classifier calibrated with isotonic
// regression (the paper's GNB setup). The cheapest function in the zoo.
func NewGNB() Classifier {
	return &ml.CalibratedClassifier{Base: ml.NewGNB(), Method: "isotonic"}
}

// NewKNN returns a k-nearest-neighbors classifier (default k=5). Inference
// scans the training set — the costliest function in the zoo.
func NewKNN(k int) Classifier { return ml.NewKNN(k) }

// NewDecisionTree returns a CART decision tree with the given depth limit
// (0 = unlimited).
func NewDecisionTree(maxDepth int) Classifier { return ml.NewDecisionTree(maxDepth) }

// NewRandomForest returns a bagged forest of n randomized trees; cost grows
// linearly and quality typically monotonically with n — the same-algorithm
// cost/quality family of the paper's Exp 2.
func NewRandomForest(trees, maxDepth int, seed int64) Classifier {
	return ml.NewRandomForest(trees, maxDepth, seed)
}

// NewLogisticRegression returns a multinomial logistic regression trained by
// SGD.
func NewLogisticRegression(seed int64) Classifier {
	m := ml.NewLogisticRegression()
	m.Seed = seed
	return m
}

// NewMLP returns a one-hidden-layer perceptron with the given width.
func NewMLP(hidden int, seed int64) Classifier {
	m := ml.NewMLP(hidden)
	m.Seed = seed
	return m
}

// Accuracy measures a classifier's argmax accuracy on a labelled set; use
// it to fill Function.Quality.
func Accuracy(c Classifier, X [][]float64, y []int) float64 {
	return ml.Accuracy(c, X, y)
}
