package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a one-hidden-layer perceptron with tanh activations and a softmax
// output, trained by SGD on cross-entropy. The paper uses MLPs as its most
// accurate (and expensive) enrichment functions for sentiment and gender.
type MLP struct {
	Hidden int
	Epochs int
	LR     float64
	Seed   int64

	classes int
	dim     int
	w1      [][]float64 // [hidden][dim]
	b1      []float64
	w2      [][]float64 // [class][hidden]
	b2      []float64
}

// NewMLP returns an MLP with the given hidden width (default 16) and
// defaults of 60 epochs, lr 0.05.
func NewMLP(hidden int) *MLP {
	if hidden <= 0 {
		hidden = 16
	}
	return &MLP{Hidden: hidden, Epochs: 60, LR: 0.05}
}

// Name identifies the model including its hidden width.
func (m *MLP) Name() string { return fmt.Sprintf("mlp%d", m.Hidden) }

// Fit trains by SGD with backpropagation.
func (m *MLP) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	m.dim = len(X[0])
	m.classes = classes
	r := rand.New(rand.NewSource(m.Seed + 101))
	scale := 1 / math.Sqrt(float64(m.dim))
	m.w1 = make([][]float64, m.Hidden)
	m.b1 = make([]float64, m.Hidden)
	for h := range m.w1 {
		m.w1[h] = make([]float64, m.dim)
		for f := range m.w1[h] {
			m.w1[h][f] = (r.Float64()*2 - 1) * scale
		}
	}
	hscale := 1 / math.Sqrt(float64(m.Hidden))
	m.w2 = make([][]float64, classes)
	m.b2 = make([]float64, classes)
	for c := range m.w2 {
		m.w2[c] = make([]float64, m.Hidden)
		for h := range m.w2[c] {
			m.w2[c][h] = (r.Float64()*2 - 1) * hscale
		}
	}

	hidden := make([]float64, m.Hidden)
	dHidden := make([]float64, m.Hidden)
	for e := 0; e < m.Epochs; e++ {
		lr := m.LR / (1 + 0.02*float64(e))
		for _, i := range r.Perm(len(X)) {
			x := X[i]
			// Forward.
			for h := 0; h < m.Hidden; h++ {
				hidden[h] = math.Tanh(dot(m.w1[h], x) + m.b1[h])
			}
			scores := make([]float64, classes)
			for c := 0; c < classes; c++ {
				scores[c] = dot(m.w2[c], hidden) + m.b2[c]
			}
			p := Softmax(scores)
			// Backward: output layer.
			for h := range dHidden {
				dHidden[h] = 0
			}
			for c := 0; c < classes; c++ {
				grad := p[c]
				if c == y[i] {
					grad -= 1
				}
				wc := m.w2[c]
				for h := 0; h < m.Hidden; h++ {
					dHidden[h] += grad * wc[h]
					wc[h] -= lr * grad * hidden[h]
				}
				m.b2[c] -= lr * grad
			}
			// Hidden layer.
			for h := 0; h < m.Hidden; h++ {
				dh := dHidden[h] * (1 - hidden[h]*hidden[h])
				wh := m.w1[h]
				for f, v := range x {
					wh[f] -= lr * dh * v
				}
				m.b1[h] -= lr * dh
			}
		}
	}
	return nil
}

// PredictProba runs the forward pass.
func (m *MLP) PredictProba(x []float64) []float64 {
	hidden := make([]float64, m.Hidden)
	for h := 0; h < m.Hidden; h++ {
		hidden[h] = math.Tanh(dot(m.w1[h], x) + m.b1[h])
	}
	scores := make([]float64, m.classes)
	for c := 0; c < m.classes; c++ {
		scores[c] = dot(m.w2[c], hidden) + m.b2[c]
	}
	return Softmax(scores)
}
