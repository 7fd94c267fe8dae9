// Package ml implements the probabilistic classifiers the paper uses as
// enrichment functions — Gaussian Naive Bayes, Decision Tree, Random Forest,
// K-Nearest Neighbors, linear SVM, Multi-Layer Perceptron, Linear
// Discriminant Analysis and Logistic Regression — together with Platt sigmoid
// and isotonic calibration. Everything is pure Go over float64 slices.
//
// Classifiers deliberately span the cost/quality spectrum the paper's
// progressive processing exploits: GNB is nearly free and weak, KNN pays a
// full training-set scan per prediction, a Random Forest's cost grows
// linearly with its tree count, and the MLP sits in between. Training is
// deterministic given the seed passed at construction.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Classifier is a trainable probabilistic classifier over dense feature
// vectors with integer class labels 0..k-1.
type Classifier interface {
	// Name identifies the algorithm (and variant) for registries and reports.
	Name() string
	// Fit trains on the dataset. y values must lie in [0, classes).
	Fit(X [][]float64, y []int, classes int) error
	// PredictProba returns a probability distribution over the classes.
	PredictProba(x []float64) []float64
	// Classes returns the number of classes the model was fit for (0 before Fit).
	Classes() int
}

// Predict returns the argmax class of the classifier's distribution.
func Predict(c Classifier, x []float64) int {
	return Argmax(c.PredictProba(x))
}

// Argmax returns the index of the largest element (first on ties, -1 for
// empty input).
func Argmax(p []float64) int {
	if len(p) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i] > p[best] {
			best = i
		}
	}
	return best
}

// Softmax converts scores to a probability distribution, stably.
func Softmax(scores []float64) []float64 {
	out := make([]float64, len(scores))
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	sum := 0.0
	for i, s := range scores {
		out[i] = math.Exp(s - maxS)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Normalize scales non-negative weights into a distribution; a zero vector
// becomes uniform.
func Normalize(p []float64) []float64 {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	out := make([]float64, len(p))
	if sum <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(p))
		}
		return out
	}
	for i, v := range p {
		out[i] = v / sum
	}
	return out
}

// Accuracy computes the fraction of correct argmax predictions on a labelled
// set.
func Accuracy(c Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if Predict(c, x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// validateFit checks the common Fit preconditions.
func validateFit(X [][]float64, y []int, classes int) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d samples but %d labels", len(X), len(y))
	}
	if classes < 2 {
		return fmt.Errorf("ml: need at least 2 classes, got %d", classes)
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("ml: sample %d has dim %d, want %d", i, len(x), dim)
		}
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("ml: label %d of sample %d out of range [0,%d)", label, i, classes)
		}
	}
	return nil
}

func sqDist(a, b []float64) float64 {
	// A placement fix, not a speed-up: one bounds check per call makes the
	// loop 28 bytes, one 64-byte line in the benchmark binary's default
	// layout (the 37-byte loop crossed a line: cold_loose +17-24%); the ml
	// test binary places it across a line. Real fix: ROADMAP's flat KNN set.
	b = b[:len(a)]
	s := 0.0
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return s
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TrainTestSplit deterministically shuffles and splits a dataset.
func TrainTestSplit(X [][]float64, y []int, testFrac float64, seed int64) (trX [][]float64, trY []int, teX [][]float64, teY []int) {
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(X))
	nTest := int(float64(len(X)) * testFrac)
	for i, p := range idx {
		if i < nTest {
			teX = append(teX, X[p])
			teY = append(teY, y[p])
		} else {
			trX = append(trX, X[p])
			trY = append(trY, y[p])
		}
	}
	return
}
