package bench

// Adaptive-optimization benchmarks backing BENCH_adaptive.json (`make
// bench-adaptive`): BenchmarkAdaptiveTTQ runs the SAME skewed-cost
// progressive workload under the static SB(RO)/SB(FO) orders and the
// Adaptive strategy, and measures time-to-quality (ns/op = wall time until
// the answer first reaches the F1 target).

import (
	"testing"

	"enrichdb/internal/progressive"
)

func benchmarkTTQ(b *testing.B, strategy progressive.Strategy) {
	s := Small()
	query := s.AdaptiveQuery()
	var totalNs int64
	for i := 0; i < b.N; i++ {
		wall, _, err := timeToQuality(s, strategy, query, AdaptiveQualityTarget)
		if err != nil {
			b.Fatal(err)
		}
		totalNs += wall.Nanoseconds()
	}
	// Override the default ns/op (which would include env construction —
	// dataset generation and model training) with the measured time from
	// query start to the quality target.
	b.ReportMetric(float64(totalNs)/float64(b.N), "ns/op")
}

func BenchmarkAdaptiveTTQ(b *testing.B) {
	b.Run("SBRO", func(b *testing.B) { benchmarkTTQ(b, progressive.SBRO) })
	b.Run("SBFO", func(b *testing.B) { benchmarkTTQ(b, progressive.SBFO) })
	b.Run("adaptive", func(b *testing.B) { benchmarkTTQ(b, progressive.Adaptive) })
}

// TestExpAdaptiveShape smoke-runs the benchrunner experiment at a reduced
// scale and checks its shape: one time-to-quality row per strategy. Guard
// test so `make check` exercises the adaptive bench path.
func TestExpAdaptiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive experiment is seconds-long; skipped under -short")
	}
	s := Small()
	s.Tweets = 600
	tbl, err := ExpAdaptive(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 rows (one per strategy), got %d:\n%s", len(tbl.Rows), tbl)
	}
}
