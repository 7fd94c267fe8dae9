package ml

import (
	"fmt"
	"math"
)

// LDA is Linear Discriminant Analysis: Gaussian class conditionals with a
// shared, shrinkage-regularized covariance matrix. The discriminant scores
// are softmaxed into a distribution.
type LDA struct {
	Shrinkage float64 // added to the covariance diagonal; default 1e-3

	classes int
	means   [][]float64
	prior   []float64   // log priors
	sigInv  [][]float64 // inverse pooled covariance
}

// NewLDA returns a model with default shrinkage.
func NewLDA() *LDA { return &LDA{Shrinkage: 1e-3} }

// Name identifies the model.
func (m *LDA) Name() string { return "lda" }

// Fit estimates class means and the pooled covariance, and inverts it.
func (m *LDA) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	dim := len(X[0])
	m.classes = classes
	m.means = make([][]float64, classes)
	m.prior = make([]float64, classes)
	counts := make([]float64, classes)
	for c := range m.means {
		m.means[c] = make([]float64, dim)
	}
	for i, x := range X {
		counts[y[i]]++
		for f, v := range x {
			m.means[y[i]][f] += v
		}
	}
	for c := 0; c < classes; c++ {
		m.prior[c] = math.Log((counts[c] + 1) / (float64(len(X)) + float64(classes)))
		if counts[c] == 0 {
			continue
		}
		for f := range m.means[c] {
			m.means[c][f] /= counts[c]
		}
	}
	// Pooled within-class covariance.
	cov := make([][]float64, dim)
	for i := range cov {
		cov[i] = make([]float64, dim)
	}
	for i, x := range X {
		mu := m.means[y[i]]
		for a := 0; a < dim; a++ {
			da := x[a] - mu[a]
			for b := a; b < dim; b++ {
				cov[a][b] += da * (x[b] - mu[b])
			}
		}
	}
	n := float64(len(X) - classes)
	if n < 1 {
		n = 1
	}
	sh := m.Shrinkage
	if sh <= 0 {
		sh = 1e-3
	}
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			cov[a][b] /= n
			cov[b][a] = cov[a][b]
		}
		cov[a][a] += sh
	}
	inv, err := invert(cov)
	if err != nil {
		return fmt.Errorf("ml: lda: %w", err)
	}
	m.sigInv = inv
	return nil
}

// PredictProba softmaxes the linear discriminant scores.
func (m *LDA) PredictProba(x []float64) []float64 {
	scores := make([]float64, m.classes)
	dim := len(x)
	tmp := make([]float64, dim)
	for c := 0; c < m.classes; c++ {
		mu := m.means[c]
		// tmp = Σ⁻¹ μ_c
		for a := 0; a < dim; a++ {
			s := 0.0
			for b := 0; b < dim; b++ {
				s += m.sigInv[a][b] * mu[b]
			}
			tmp[a] = s
		}
		scores[c] = dot(x, tmp) - 0.5*dot(mu, tmp) + m.prior[c]
	}
	return Softmax(scores)
}

// invert computes the inverse of a square matrix by Gauss-Jordan elimination
// with partial pivoting.
func invert(a [][]float64) ([][]float64, error) {
	n := len(a)
	// Augmented [A | I].
	aug := make([][]float64, n)
	for i := range aug {
		aug[i] = make([]float64, 2*n)
		copy(aug[i], a[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular matrix at column %d", col)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		pv := aug[col][col]
		for j := 0; j < 2*n; j++ {
			aug[col][j] /= pv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := aug[r][col]
			if factor == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				aug[r][j] -= factor * aug[col][j]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = aug[i][n:]
	}
	return inv, nil
}
