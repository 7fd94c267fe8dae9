package ml

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// sortedKNNProba is the sort-based k-NN prediction PredictProba replaced: it
// sorts every training point by distance and votes over the first K. Its
// sort is unstable, so it only defines the answer where no exact distance
// tie straddles the K-th place.
func sortedKNNProba(k *KNN, x []float64) []float64 {
	type nd struct {
		d float64
		c int
	}
	ds := make([]nd, len(k.X))
	for i, t := range k.X {
		ds[i] = nd{sqDist(x, t), k.y[i]}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
	n := k.K
	if n > len(ds) {
		n = len(ds)
	}
	votes := make([]float64, k.classes)
	for i := 0; i < n; i++ {
		votes[ds[i].c]++
	}
	return Normalize(votes)
}

// Property: on continuous data (no exact distance ties) the bounded
// insertion votes over exactly the points the full sort ranks first, so the
// probabilities are bit-identical.
func TestKNNMatchesSortedReference(t *testing.T) {
	for _, n := range []int{3, 64, 2048} {
		X, y := blobs(n, 8, 4, 1.5, int64(n))
		queries, _ := blobs(512, 8, 4, 2.5, int64(n)+1)
		for _, kk := range []int{1, 5, 15} {
			m := &KNN{K: kk}
			if err := m.Fit(X, y, 4); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				if got, want := m.PredictProba(q), sortedKNNProba(m, q); !slices.Equal(got, want) {
					t.Fatalf("n=%d K=%d query %d: got %v, reference %v", n, kk, qi, got, want)
				}
			}
		}
	}
}

// An exact distance tie at the K-th place goes to the lower training index,
// wherever the tied points arrive relative to the buffer filling up.
func TestKNNTieBreaksByTrainingIndex(t *testing.T) {
	cases := []struct {
		name string
		X    [][]float64
		y    []int
		k    int
		want []float64
	}{
		{"k=1 first of two", [][]float64{{1}, {-1}}, []int{0, 1}, 1, []float64{1, 0, 0}},
		{"k=1 class order irrelevant", [][]float64{{-1}, {1}}, []int{1, 0}, 1, []float64{0, 1, 0}},
		{"three-way tie, k=2", [][]float64{{2}, {-2}, {2}}, []int{0, 1, 2}, 2, []float64{0.5, 0.5, 0}},
		{"tie after a nearer point", [][]float64{{2}, {1}, {-2}}, []int{0, 1, 2}, 2, []float64{0.5, 0.5, 0}},
		{"tie straddling the k-th place", [][]float64{{1}, {2}, {-1}, {-2}}, []int{0, 1, 2, 0}, 3,
			[]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}},
	}
	for _, c := range cases {
		m := &KNN{K: c.k}
		if err := m.Fit(c.X, c.y, 3); err != nil {
			t.Fatal(err)
		}
		if got := m.PredictProba([]float64{0}); !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// K ≤ 0 set through the exported field after Fit votes over nothing and
// answers the uniform distribution, as the sort-based prediction did.
func TestKNNNonPositiveKIsUniform(t *testing.T) {
	X, y := blobs(64, 4, 3, 1, 3)
	for _, kk := range []int{0, -1} {
		m := &KNN{}
		if err := m.Fit(X, y, 3); err != nil {
			t.Fatal(err)
		}
		m.K = kk
		q := X[7]
		got := m.PredictProba(q)
		if want := sortedKNNProba(m, q); !slices.Equal(got, want) || !slices.Equal(got, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}) {
			t.Errorf("K=%d: got %v, reference %v", kk, got, want)
		}
	}
}

// KNN-5 over 2,048 points allocates only its answer and a K-sized buffer;
// the full sort allocated 7 times, 33 KB per call.
func TestKNNPredictAllocs(t *testing.T) {
	X, y := blobs(2048, 8, 4, 1.5, 5)
	m := NewKNN(5)
	if err := m.Fit(X, y, 4); err != nil {
		t.Fatal(err)
	}
	q := X[0]
	if allocs := testing.AllocsPerRun(50, func() { m.PredictProba(q) }); allocs > 4 {
		t.Errorf("PredictProba allocates %.0f times per call, want ≤ 4", allocs)
	}
}

// Enrichment workers share one fitted model: concurrent predictions must
// match the serial ones.
func TestKNNConcurrentPredictMatchesSerial(t *testing.T) {
	X, y := blobs(512, 8, 4, 1.5, 9)
	queries, _ := blobs(128, 8, 4, 2.5, 10)
	m := NewKNN(5)
	if err := m.Fit(X, y, 4); err != nil {
		t.Fatal(err)
	}
	serial := make([][]float64, len(queries))
	for i, q := range queries {
		serial[i] = m.PredictProba(q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + g*16) % len(queries)
				if got := m.PredictProba(queries[qi]); !slices.Equal(got, serial[qi]) {
					errs <- fmt.Errorf("goroutine %d query %d: got %v, serial %v", g, qi, got, serial[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

var knnSink []float64

func BenchmarkKNNPredictProba(b *testing.B) {
	X, y := blobs(2048, 8, 4, 1.5, 5)
	m := NewKNN(5)
	if err := m.Fit(X, y, 4); err != nil {
		b.Fatal(err)
	}
	q := X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knnSink = m.PredictProba(q)
	}
}
