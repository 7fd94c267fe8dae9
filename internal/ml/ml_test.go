package ml

import (
	"math"
	"math/rand"
	"testing"
)

// blobs generates a k-class Gaussian-blob dataset with the given noise.
func blobs(n, dim, k int, noise float64, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for f := range centers[c] {
			centers[c][f] = r.NormFloat64() * 3
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := r.Intn(k)
		y[i] = c
		X[i] = make([]float64, dim)
		for f := range X[i] {
			X[i][f] = centers[c][f] + r.NormFloat64()*noise
		}
	}
	return X, y
}

func allClassifiers() []Classifier {
	return []Classifier{
		NewGNB(),
		NewKNN(5),
		NewDecisionTree(8),
		NewRandomForest(10, 8, 1),
		NewLogisticRegression(),
		NewLinearSVM(),
		NewLDA(),
		NewMLP(12),
	}
}

func TestAllClassifiersLearnSeparableBlobs(t *testing.T) {
	X, y := blobs(600, 6, 3, 0.8, 42)
	trX, trY, teX, teY := TrainTestSplit(X, y, 0.25, 7)
	for _, c := range allClassifiers() {
		if err := c.Fit(trX, trY, 3); err != nil {
			t.Fatalf("%s: Fit: %v", c.Name(), err)
		}
		acc := Accuracy(c, teX, teY)
		if acc < 0.85 {
			t.Errorf("%s: accuracy %.3f on well-separated blobs (want ≥ 0.85)", c.Name(), acc)
		}
	}
}

func TestProbabilitiesAreDistributions(t *testing.T) {
	X, y := blobs(300, 4, 4, 1.5, 3)
	for _, c := range allClassifiers() {
		if err := c.Fit(X, y, 4); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := 0; i < 50; i++ {
			p := c.PredictProba(X[i])
			if len(p) != 4 {
				t.Fatalf("%s: %d probs", c.Name(), len(p))
			}
			sum := 0.0
			for _, v := range p {
				if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
					t.Fatalf("%s: prob out of range: %v", c.Name(), p)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s: probs sum to %v", c.Name(), sum)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	X, y := blobs(200, 4, 3, 1.0, 9)
	for trial := 0; trial < 2; trial++ {
		a := NewRandomForest(5, 6, 77)
		b := NewRandomForest(5, 6, 77)
		a.Fit(X, y, 3)
		b.Fit(X, y, 3)
		for i := 0; i < 20; i++ {
			pa, pb := a.PredictProba(X[i]), b.PredictProba(X[i])
			for c := range pa {
				if pa[c] != pb[c] {
					t.Fatalf("same seed, different predictions at sample %d", i)
				}
			}
		}
	}
}

func TestFitValidation(t *testing.T) {
	c := NewGNB()
	if err := c.Fit(nil, nil, 2); err == nil {
		t.Error("empty training set must fail")
	}
	if err := c.Fit([][]float64{{1}}, []int{0, 1}, 2); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := c.Fit([][]float64{{1}, {2}}, []int{0, 1}, 1); err == nil {
		t.Error("single class must fail")
	}
	if err := c.Fit([][]float64{{1}, {2, 3}}, []int{0, 1}, 2); err == nil {
		t.Error("ragged features must fail")
	}
	if err := c.Fit([][]float64{{1}, {2}}, []int{0, 5}, 2); err == nil {
		t.Error("out-of-range label must fail")
	}
}

// TestCostQualityTradeoffRF: the Exp 2 premise — more trees cost more and
// (on noisy data) predict at least as well.
func TestCostQualityTradeoffRF(t *testing.T) {
	X, y := blobs(800, 8, 4, 3.5, 21)
	trX, trY, teX, teY := TrainTestSplit(X, y, 0.3, 5)
	small := NewRandomForest(2, 4, 11)
	big := NewRandomForest(20, 8, 11)
	small.Fit(trX, trY, 4)
	big.Fit(trX, trY, 4)
	accSmall := Accuracy(small, teX, teY)
	accBig := Accuracy(big, teX, teY)
	if accBig+0.02 < accSmall {
		t.Errorf("rf20 (%.3f) should not be clearly worse than rf2 (%.3f)", accBig, accSmall)
	}
}

func TestDecisionTreeRespectsDepthLimit(t *testing.T) {
	X, y := blobs(400, 5, 3, 2.0, 13)
	tr := NewDecisionTree(3)
	if err := tr.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 3 {
		t.Errorf("depth %d exceeds limit 3", d)
	}
	unlimited := NewDecisionTree(0)
	unlimited.Fit(X, y, 3)
	if unlimited.Depth() <= 3 {
		t.Logf("note: unlimited tree only reached depth %d", unlimited.Depth())
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	// One class only in a region: tree must emit confident leaves.
	X := [][]float64{{0}, {0.1}, {0.2}, {5}, {5.1}, {5.2}}
	y := []int{0, 0, 0, 1, 1, 1}
	tr := NewDecisionTree(0)
	if err := tr.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	p := tr.PredictProba([]float64{0})
	if p[0] < 0.99 {
		t.Errorf("pure region proba: %v", p)
	}
	p = tr.PredictProba([]float64{5})
	if p[1] < 0.99 {
		t.Errorf("pure region proba: %v", p)
	}
}

func TestKNNExactNeighbors(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}, {11}, {12}}
	y := []int{0, 0, 1, 1, 1}
	k := NewKNN(3)
	k.Fit(X, y, 2)
	p := k.PredictProba([]float64{0.5})
	// Neighbors: 0, 1, 10 → votes 2/3 vs 1/3.
	if math.Abs(p[0]-2.0/3) > 1e-9 {
		t.Errorf("knn votes: %v", p)
	}
	if NewKNN(0).K != 5 {
		t.Error("default k must be 5")
	}
}

func TestPlattMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var scores []float64
	var labels []bool
	for i := 0; i < 500; i++ {
		s := r.NormFloat64() * 2
		scores = append(scores, s)
		labels = append(labels, r.Float64() < 1/(1+math.Exp(-s)))
	}
	sc := FitPlatt(scores, labels)
	prev := -1.0
	for s := -4.0; s <= 4.0; s += 0.5 {
		p := sc.Prob(s)
		if p < 0 || p > 1 {
			t.Fatalf("Platt prob out of range: %v", p)
		}
		if p < prev-1e-9 {
			t.Fatalf("Platt must be monotone increasing in score: p(%v)=%v < %v", s, p, prev)
		}
		prev = p
	}
	// Calibration should roughly recover the generating sigmoid.
	if p := sc.Prob(3); p < 0.8 {
		t.Errorf("Prob(3) = %v, want ≥ 0.8", p)
	}
	if p := sc.Prob(-3); p > 0.2 {
		t.Errorf("Prob(-3) = %v, want ≤ 0.2", p)
	}
}

func TestPlattDegenerate(t *testing.T) {
	sc := FitPlatt([]float64{1, 2, 3}, []bool{true, true, true})
	if p := sc.Prob(0); p < 0 || p > 1 {
		t.Errorf("degenerate Platt: %v", p)
	}
}

func TestIsotonicMonotoneAndCalibrated(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var scores []float64
	var labels []bool
	for i := 0; i < 1000; i++ {
		s := r.Float64()
		scores = append(scores, s)
		labels = append(labels, r.Float64() < s) // perfectly calibrated by construction
	}
	sc := FitIsotonic(scores, labels)
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		p := sc.Prob(s)
		if p < prev-1e-12 {
			t.Fatalf("isotonic must be monotone: p(%v)=%v < %v", s, p, prev)
		}
		prev = p
	}
	if p := sc.Prob(0.9); math.Abs(p-0.9) > 0.15 {
		t.Errorf("isotonic Prob(0.9) = %v", p)
	}
	if p := sc.Prob(0.1); math.Abs(p-0.1) > 0.15 {
		t.Errorf("isotonic Prob(0.1) = %v", p)
	}
	empty := FitIsotonic(nil, nil)
	if empty.Prob(1) != 0.5 {
		t.Error("empty isotonic should return 0.5")
	}
}

func TestCalibratedClassifier(t *testing.T) {
	X, y := blobs(600, 5, 3, 2.0, 31)
	for _, method := range []string{"platt", "isotonic"} {
		cc := &CalibratedClassifier{Base: NewGNB(), Method: method}
		if err := cc.Fit(X, y, 3); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if acc := Accuracy(cc, X, y); acc < 0.6 {
			t.Errorf("%s calibrated GNB accuracy %.3f", method, acc)
		}
		p := cc.PredictProba(X[0])
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: calibrated probs sum %v", method, sum)
		}
		if cc.Name() != "gnb+"+method {
			t.Errorf("name: %s", cc.Name())
		}
	}
}

func TestInvert(t *testing.T) {
	a := [][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	}
	inv, err := invert(a)
	if err != nil {
		t.Fatal(err)
	}
	// A · A⁻¹ = I.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a[i][k] * inv[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, s)
			}
		}
	}
	if _, err := invert([][]float64{{1, 1}, {1, 1}}); err == nil {
		t.Error("singular matrix must fail")
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1001, 999})
	sum := 0.0
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sum %v", sum)
	}
	if Argmax(p) != 1 {
		t.Errorf("argmax: %v", p)
	}
}

func TestArgmaxEdges(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Error("Argmax(nil) must be -1")
	}
	if Argmax([]float64{0.5, 0.5}) != 0 {
		t.Error("ties break to first")
	}
}

func TestNormalizeZero(t *testing.T) {
	p := Normalize([]float64{0, 0, 0, 0})
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("zero vector should normalize uniform: %v", p)
		}
	}
}

func TestTrainTestSplit(t *testing.T) {
	X, y := blobs(100, 2, 2, 1, 1)
	trX, trY, teX, teY := TrainTestSplit(X, y, 0.2, 42)
	if len(teX) != 20 || len(trX) != 80 || len(trY) != 80 || len(teY) != 20 {
		t.Errorf("split sizes: %d/%d", len(trX), len(teX))
	}
	// Determinism.
	trX2, _, _, _ := TrainTestSplit(X, y, 0.2, 42)
	for i := range trX {
		if &trX[i][0] != &trX2[i][0] {
			t.Fatal("split must be deterministic for a fixed seed")
		}
	}
}

// TestAccuracyOrderingByModelComplexity verifies the broad cost/quality
// premise on hard data: the strong models (MLP, RF) beat GNB.
func TestAccuracyOrderingByModelComplexity(t *testing.T) {
	// Nonlinear structure (XOR-like) that defeats naive Bayes.
	r := rand.New(rand.NewSource(55))
	var X [][]float64
	var y []int
	for i := 0; i < 900; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		X = append(X, []float64{a, b})
		y = append(y, label)
	}
	trX, trY, teX, teY := TrainTestSplit(X, y, 0.3, 2)
	gnb := NewGNB()
	gnb.Fit(trX, trY, 2)
	rf := NewRandomForest(15, 8, 4)
	rf.Fit(trX, trY, 2)
	mlp := NewMLP(16)
	mlp.Fit(trX, trY, 2)
	accGNB := Accuracy(gnb, teX, teY)
	accRF := Accuracy(rf, teX, teY)
	accMLP := Accuracy(mlp, teX, teY)
	if accRF < accGNB+0.15 {
		t.Errorf("RF (%.3f) should clearly beat GNB (%.3f) on XOR data", accRF, accGNB)
	}
	if accMLP < accGNB+0.15 {
		t.Errorf("MLP (%.3f) should clearly beat GNB (%.3f) on XOR data", accMLP, accGNB)
	}
}
