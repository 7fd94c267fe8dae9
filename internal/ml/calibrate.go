package ml

import (
	"math"
	"sort"
)

// PlattScaler maps a raw classifier score to a probability with the sigmoid
// p = 1/(1+exp(A·s+B)), fit by regularized maximum likelihood (Platt 1999,
// with the Lin-Weng-Keerthi target smoothing). The paper calibrates its SVM,
// MLP, DT and other non-probabilistic outputs this way.
type PlattScaler struct {
	A, B float64
}

// Prob applies the fitted sigmoid.
func (p PlattScaler) Prob(score float64) float64 {
	v := p.A*score + p.B
	// Numerically stable logistic.
	if v >= 0 {
		return math.Exp(-v) / (1 + math.Exp(-v))
	}
	return 1 / (1 + math.Exp(v))
}

// FitPlatt fits the sigmoid on (score, isPositive) pairs by Newton descent
// on the cross-entropy with smoothed targets.
func FitPlatt(scores []float64, positive []bool) PlattScaler {
	nPos, nNeg := 0.0, 0.0
	for _, p := range positive {
		if p {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		// Degenerate calibration set: fall back to a fixed gentle sigmoid
		// oriented so larger scores mean more positive.
		return PlattScaler{A: -1, B: 0}
	}
	tPos := (nPos + 1) / (nPos + 2)
	tNeg := 1 / (nNeg + 2)

	a, b := 0.0, math.Log((nNeg+1)/(nPos+1))
	for iter := 0; iter < 100; iter++ {
		var g1, g2, h11, h12, h22 float64
		for i, s := range scores {
			t := tNeg
			if positive[i] {
				t = tPos
			}
			v := a*s + b
			var p float64
			if v >= 0 {
				p = math.Exp(-v) / (1 + math.Exp(-v))
			} else {
				p = 1 / (1 + math.Exp(v))
			}
			d := t - p // gradient of the cross-entropy wrt v = A·s+B
			g1 += s * d
			g2 += d
			w := p * (1 - p)
			h11 += s * s * w
			h12 += s * w
			h22 += w
		}
		h11 += 1e-9
		h22 += 1e-9
		det := h11*h22 - h12*h12
		if math.Abs(det) < 1e-18 {
			break
		}
		da := (h22*g1 - h12*g2) / det
		db := (h11*g2 - h12*g1) / det
		a -= da
		b -= db
		if math.Abs(da) < 1e-9 && math.Abs(db) < 1e-9 {
			break
		}
	}
	return PlattScaler{A: a, B: b}
}

// IsotonicScaler maps scores to probabilities with a monotone step function
// fit by the pool-adjacent-violators algorithm. The paper calibrates its GNB
// outputs with isotonic regression.
type IsotonicScaler struct {
	thresholds []float64 // sorted score breakpoints
	values     []float64 // calibrated probability per segment
}

// FitIsotonic fits an increasing step function from scores to the empirical
// positive rate using PAV.
func FitIsotonic(scores []float64, positive []bool) IsotonicScaler {
	n := len(scores)
	if n == 0 {
		return IsotonicScaler{thresholds: []float64{0}, values: []float64{0.5}}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Blocks for PAV: weight and mean per block.
	type block struct {
		sum, weight float64
		maxScore    float64
	}
	var blocks []block
	for _, i := range idx {
		v := 0.0
		if positive[i] {
			v = 1
		}
		blocks = append(blocks, block{sum: v, weight: 1, maxScore: scores[i]})
		// Pool while decreasing.
		for len(blocks) >= 2 {
			a := blocks[len(blocks)-2]
			b := blocks[len(blocks)-1]
			if a.sum/a.weight <= b.sum/b.weight {
				break
			}
			merged := block{
				sum:      a.sum + b.sum,
				weight:   a.weight + b.weight,
				maxScore: b.maxScore,
			}
			blocks = blocks[:len(blocks)-2]
			blocks = append(blocks, merged)
		}
	}
	sc := IsotonicScaler{
		thresholds: make([]float64, len(blocks)),
		values:     make([]float64, len(blocks)),
	}
	for i, b := range blocks {
		sc.thresholds[i] = b.maxScore
		sc.values[i] = b.sum / b.weight
	}
	return sc
}

// Prob returns the calibrated probability for a score (constant
// extrapolation outside the fitted range).
func (s IsotonicScaler) Prob(score float64) float64 {
	if len(s.values) == 0 {
		return 0.5
	}
	i := sort.SearchFloat64s(s.thresholds, score)
	if i >= len(s.values) {
		i = len(s.values) - 1
	}
	return s.values[i]
}

// CalibratedClassifier wraps a base classifier with per-class one-vs-rest
// calibration of its probability outputs, renormalized.
type CalibratedClassifier struct {
	Base Classifier
	// Method is "platt" or "isotonic".
	Method string

	platt    []PlattScaler
	isotonic []IsotonicScaler
}

// Name identifies the wrapped model.
func (cc *CalibratedClassifier) Name() string { return cc.Base.Name() + "+" + cc.Method }

// Fit trains the base classifier on 80% of the data and fits the calibration
// maps on the held-out 20% (cross-validation-style calibration as in the
// paper's setup).
func (cc *CalibratedClassifier) Fit(X [][]float64, y []int, classes int) error {
	trX, trY, calX, calY := TrainTestSplit(X, y, 0.2, 12345)
	if len(calX) < classes*2 {
		trX, trY, calX, calY = X, y, X, y
	}
	if err := cc.Base.Fit(trX, trY, classes); err != nil {
		return err
	}
	scores := make([][]float64, classes) // per class: base probability as score
	labels := make([][]bool, classes)
	for i, x := range calX {
		p := cc.Base.PredictProba(x)
		for c := 0; c < classes; c++ {
			scores[c] = append(scores[c], p[c])
			labels[c] = append(labels[c], calY[i] == c)
		}
	}
	if cc.Method == "isotonic" {
		cc.isotonic = make([]IsotonicScaler, classes)
		for c := 0; c < classes; c++ {
			cc.isotonic[c] = FitIsotonic(scores[c], labels[c])
		}
	} else {
		cc.Method = "platt"
		cc.platt = make([]PlattScaler, classes)
		for c := 0; c < classes; c++ {
			sc := FitPlatt(scores[c], labels[c])
			// FitPlatt's sigmoid treats *smaller* A·s+B as more positive;
			// orientation is handled inside Prob via the fitted sign of A.
			cc.platt[c] = sc
		}
	}
	return nil
}

// PredictProba returns the calibrated, renormalized distribution.
func (cc *CalibratedClassifier) PredictProba(x []float64) []float64 {
	base := cc.Base.PredictProba(x)
	out := make([]float64, len(base))
	for c, s := range base {
		if cc.isotonic != nil {
			out[c] = cc.isotonic[c].Prob(s)
		} else {
			out[c] = cc.platt[c].Prob(s)
		}
	}
	return Normalize(out)
}
