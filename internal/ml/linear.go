package ml

import (
	"math/rand"
)

// LogisticRegression is a multinomial (softmax) logistic regression trained
// with mini-batch SGD and L2 regularization.
type LogisticRegression struct {
	Epochs int
	LR     float64
	L2     float64
	Seed   int64

	classes int
	w       [][]float64 // [class][feature]
	b       []float64
}

// NewLogisticRegression returns a model with sensible defaults
// (50 epochs, lr 0.1, l2 1e-4).
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{Epochs: 50, LR: 0.1, L2: 1e-4}
}

// Name identifies the model.
func (m *LogisticRegression) Name() string { return "lr" }

// Fit trains with SGD over shuffled epochs.
func (m *LogisticRegression) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	dim := len(X[0])
	m.classes = classes
	m.w = make([][]float64, classes)
	for c := range m.w {
		m.w[c] = make([]float64, dim)
	}
	m.b = make([]float64, classes)
	r := rand.New(rand.NewSource(m.Seed + 3))
	for e := 0; e < m.Epochs; e++ {
		lr := m.LR / (1 + 0.05*float64(e))
		for _, i := range r.Perm(len(X)) {
			p := m.PredictProba(X[i])
			for c := 0; c < classes; c++ {
				grad := p[c]
				if c == y[i] {
					grad -= 1
				}
				wc := m.w[c]
				for f, v := range X[i] {
					wc[f] -= lr * (grad*v + m.L2*wc[f])
				}
				m.b[c] -= lr * grad
			}
		}
	}
	return nil
}

// PredictProba returns softmax class probabilities.
func (m *LogisticRegression) PredictProba(x []float64) []float64 {
	scores := make([]float64, m.classes)
	for c := 0; c < m.classes; c++ {
		scores[c] = dot(m.w[c], x) + m.b[c]
	}
	return Softmax(scores)
}

// LinearSVM is a one-vs-rest linear SVM trained with hinge-loss SGD
// (Pegasos-style). Raw margins are mapped to probabilities with Platt
// sigmoids fit on held-out data during Fit — the calibration the paper
// applies to its SVM enrichment functions.
type LinearSVM struct {
	Epochs int
	Lambda float64
	Seed   int64

	classes int
	w       [][]float64
	b       []float64
	platt   []PlattScaler
}

// NewLinearSVM returns an SVM with defaults (40 epochs, lambda 1e-3).
func NewLinearSVM() *LinearSVM {
	return &LinearSVM{Epochs: 40, Lambda: 1e-3}
}

// Name identifies the model.
func (m *LinearSVM) Name() string { return "svm" }

// Fit trains one binary hinge-loss classifier per class and calibrates each
// with a Platt sigmoid on a held-out fifth of the data.
func (m *LinearSVM) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	trX, trY, calX, calY := TrainTestSplit(X, y, 0.2, m.Seed+17)
	if len(calX) == 0 { // tiny datasets: calibrate on the training data
		calX, calY = trX, trY
	}
	dim := len(X[0])
	m.classes = classes
	m.w = make([][]float64, classes)
	m.b = make([]float64, classes)
	m.platt = make([]PlattScaler, classes)
	r := rand.New(rand.NewSource(m.Seed + 29))
	for c := 0; c < classes; c++ {
		m.w[c] = make([]float64, dim)
		t := 0
		for e := 0; e < m.Epochs; e++ {
			for _, i := range r.Perm(len(trX)) {
				t++
				lr := 1 / (m.Lambda * float64(t))
				label := -1.0
				if trY[i] == c {
					label = 1
				}
				margin := label * (dot(m.w[c], trX[i]) + m.b[c])
				wc := m.w[c]
				for f := range wc {
					wc[f] -= lr * m.Lambda * wc[f]
				}
				if margin < 1 {
					for f, v := range trX[i] {
						wc[f] += lr * label * v
					}
					m.b[c] += lr * label
				}
			}
		}
		// Calibrate raw margins to probabilities.
		scores := make([]float64, len(calX))
		labels := make([]bool, len(calX))
		for i, x := range calX {
			scores[i] = dot(m.w[c], x) + m.b[c]
			labels[i] = calY[i] == c
		}
		m.platt[c] = FitPlatt(scores, labels)
	}
	return nil
}

// PredictProba returns the Platt-calibrated one-vs-rest probabilities,
// renormalized across classes.
func (m *LinearSVM) PredictProba(x []float64) []float64 {
	p := make([]float64, m.classes)
	for c := 0; c < m.classes; c++ {
		p[c] = m.platt[c].Prob(dot(m.w[c], x) + m.b[c])
	}
	return Normalize(p)
}
