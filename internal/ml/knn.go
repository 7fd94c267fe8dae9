package ml

import "fmt"

// KNN is a k-nearest-neighbors classifier. Prediction measures the distance to
// every training point, the costliest per-object enrichment function. It keeps
// no per-call state, so concurrent PredictProba calls on one model are safe.
type KNN struct {
	K       int
	classes int
	X       [][]float64
	y       []int
}

// NewKNN returns a k-NN model; k defaults to 5 when non-positive.
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k}
}

// Name identifies the model including its k.
func (k *KNN) Name() string { return fmt.Sprintf("knn%d", k.K) }

// Fit memorizes the training set.
func (k *KNN) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	k.X, k.y, k.classes = X, y, classes
	return nil
}

// PredictProba returns the vote fractions of the K training points nearest to
// x in (distance, training index) order: one pass keeps the nearest so far in
// an ascending buffer, with no sort. K beyond the training size votes over
// every point; K ≤ 0 votes over none and answers the uniform distribution.
func (k *KNN) PredictProba(x []float64) []float64 {
	votes := make([]float64, k.classes)
	n := min(k.K, len(k.X))
	if n <= 0 {
		return Normalize(votes)
	}
	d, c, m := make([]float64, n), make([]int, n), 0 // d[:m] ascending, c its classes
	for i, t := range k.X {
		di := sqDist(x, t)
		if m == n && di >= d[n-1] {
			continue
		}
		j := min(m, n-1)
		m = min(m+1, n)
		for ; j > 0 && d[j-1] > di; j-- {
			d[j], c[j] = d[j-1], c[j-1]
		}
		d[j], c[j] = di, k.y[i]
	}
	for _, ci := range c {
		votes[ci]++
	}
	return Normalize(votes)
}
