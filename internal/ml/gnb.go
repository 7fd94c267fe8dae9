package ml

import "math"

// GNB is a Gaussian Naive Bayes classifier: per class and feature it fits an
// independent normal distribution and combines log-likelihoods with the class
// prior. It is the cheapest enrichment function in the suite.
type GNB struct {
	classes int
	prior   []float64   // log prior per class
	mean    [][]float64 // [class][feature]
	vari    [][]float64 // [class][feature], floored for stability
}

// NewGNB returns an untrained Gaussian Naive Bayes model.
func NewGNB() *GNB { return &GNB{} }

// Name identifies the model.
func (g *GNB) Name() string { return "gnb" }

// Fit estimates per-class feature means and variances.
func (g *GNB) Fit(X [][]float64, y []int, classes int) error {
	if err := validateFit(X, y, classes); err != nil {
		return err
	}
	dim := len(X[0])
	g.classes = classes
	g.prior = make([]float64, classes)
	g.mean = make([][]float64, classes)
	g.vari = make([][]float64, classes)
	counts := make([]float64, classes)
	for c := 0; c < classes; c++ {
		g.mean[c] = make([]float64, dim)
		g.vari[c] = make([]float64, dim)
	}
	for i, x := range X {
		c := y[i]
		counts[c]++
		for f, v := range x {
			g.mean[c][f] += v
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for f := range g.mean[c] {
			g.mean[c][f] /= counts[c]
		}
	}
	for i, x := range X {
		c := y[i]
		for f, v := range x {
			d := v - g.mean[c][f]
			g.vari[c][f] += d * d
		}
	}
	const varFloor = 1e-6
	for c := 0; c < classes; c++ {
		// Laplace-smoothed prior keeps unseen classes representable.
		g.prior[c] = math.Log((counts[c] + 1) / (float64(len(X)) + float64(classes)))
		for f := range g.vari[c] {
			if counts[c] > 0 {
				g.vari[c][f] /= counts[c]
			}
			if g.vari[c][f] < varFloor {
				g.vari[c][f] = varFloor
			}
		}
	}
	return nil
}

// PredictProba returns the posterior distribution over classes.
func (g *GNB) PredictProba(x []float64) []float64 {
	scores := make([]float64, g.classes)
	for c := 0; c < g.classes; c++ {
		ll := g.prior[c]
		for f, v := range x {
			m, s2 := g.mean[c][f], g.vari[c][f]
			d := v - m
			ll += -0.5*math.Log(2*math.Pi*s2) - d*d/(2*s2)
		}
		scores[c] = ll
	}
	return Softmax(scores)
}
