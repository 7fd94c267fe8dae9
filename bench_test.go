// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one Benchmark per artifact, plus micro-benchmarks of the substrate
// hot paths. Run:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the full harness once per iteration and
// reports the headline quantities as custom metrics, so a -bench run leaves
// a paper-shaped record; cmd/benchrunner prints the full tables.
package enrichdb

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"enrichdb/internal/bench"
	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"

	"enrichdb/internal/ivm"
	"enrichdb/internal/loose"
	"enrichdb/internal/metrics"
	"enrichdb/internal/ml"
	"enrichdb/internal/progressive"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/types"
)

func benchScale() bench.Scale {
	return bench.Scale{Name: "bench", Tweets: 1000, Images: 500, TopicDomain: 6, TimeRange: 10000, Seed: 1}
}

// BenchmarkExp1NumEnrichments regenerates Table 7.
func BenchmarkExp1NumEnrichments(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp1aNumEnrichments(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	reportRatio(b, last, 1, "Q2_tight_over_loose") // row Q2, ratio column
	b.Log("\n" + last.String())
}

// BenchmarkExp1Selectivity regenerates Table 8.
func BenchmarkExp1Selectivity(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp1bSelectivity(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	reportRatio(b, last, 0, "sel1pct_tight_over_loose")
	b.Log("\n" + last.String())
}

// BenchmarkExp1Cumulative regenerates Figure 5.
func BenchmarkExp1Cumulative(b *testing.B) {
	var points []bench.CumulativePoint
	for i := 0; i < b.N; i++ {
		_, p, err := bench.Exp1cCumulative(benchScale(), 12)
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	final := points[len(points)-1]
	if final.EagerCost > 0 {
		b.ReportMetric(float64(final.CumulativeCost)/float64(final.EagerCost), "cumulative/eager")
	}
}

// BenchmarkExp1Latency regenerates Table 9.
func BenchmarkExp1Latency(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp1dLatency(benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkExp1TimeSplit regenerates Table 11.
func BenchmarkExp1TimeSplit(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp1eTimeSplit(benchScale(), time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkExp1Workers regenerates Exp 1f: epoch wall-clock vs the Workers
// knob for both designs. The reported metric is the tight design's speedup
// at the highest worker count over its Workers:1 baseline — the headline the
// parallel epoch executor must deliver (>1 means wall-clock improved).
func BenchmarkExp1Workers(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp1fWorkers(benchScale(), []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	// Last row = tight design at the highest worker count; its final column
	// is the speedup over tight Workers:1.
	tightBest := last.Rows[len(last.Rows)-1]
	var speedup float64
	if _, err := fmt.Sscanf(tightBest[len(tightBest)-1], "%fx", &speedup); err == nil {
		b.ReportMetric(speedup, "tight_speedup_w8")
	}
	b.Log("\n" + last.String())
}

// BenchmarkExp2Progressiveness regenerates Figures 6 and 7.
func BenchmarkExp2Progressiveness(b *testing.B) {
	var fig7, fig6 *bench.Table
	for i := 0; i < b.N; i++ {
		f7, f6, err := bench.Exp2Progressiveness(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		fig7, fig6 = f7, f6
	}
	b.Log("\n" + fig7.String())
	b.Log("\n" + fig6.String())
}

// BenchmarkExp3PlanStrategies regenerates Figure 8.
func BenchmarkExp3PlanStrategies(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp3PlanStrategies(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkExp4Overhead regenerates the time-overhead experiment.
func BenchmarkExp4Overhead(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.Exp4Overhead(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkExp5Storage regenerates the storage-overhead experiment and
// Table 10.
func BenchmarkExp5Storage(b *testing.B) {
	var sizes, cutoff *bench.Table
	for i := 0; i < b.N; i++ {
		s, c, err := bench.Exp5Storage(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		sizes, cutoff = s, c
	}
	b.Log("\n" + sizes.String())
	b.Log("\n" + cutoff.String())
}

// BenchmarkAblationProbe quantifies the probe minimality strategies.
func BenchmarkAblationProbe(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationProbe(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkAblationOptimizer quantifies the optimizer behaviours the tight
// design depends on.
func BenchmarkAblationOptimizer(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationOptimizer(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkAblationBatching compares batched, parallel and per-row
// enrichment execution.
func BenchmarkAblationBatching(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.AblationBatching(benchScale(), 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkDeterminizerComparison quantifies the determinization choice the
// paper treats as a black box.
func BenchmarkDeterminizerComparison(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.DeterminizerComparison(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

// BenchmarkIngestionRate measures lazy vs eager ingestion throughput (the
// paper's introduction claim).
func BenchmarkIngestionRate(b *testing.B) {
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := bench.IngestionRate(500, []time.Duration{100 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.Log("\n" + last.String())
}

func reportRatio(b *testing.B, t *bench.Table, row int, name string) {
	b.Helper()
	if row >= len(t.Rows) {
		return
	}
	cells := t.Rows[row]
	v, err := strconv.ParseFloat(cells[len(cells)-1], 64)
	if err == nil {
		b.ReportMetric(v, name)
	}
}

// ---- substrate micro-benchmarks ----

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(benchScale(), dataset.SingleFunctionSpecs())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkEngineSelection measures a full selection scan+filter.
func BenchmarkEngineSelection(b *testing.B) {
	env := benchEnv(b)
	q := "SELECT * FROM TweetData WHERE TweetTime BETWEEN 1000 AND 3000"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ExecutePlain(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineHashJoin measures the hash-join path.
func BenchmarkEngineHashJoin(b *testing.B) {
	env := benchEnv(b)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ExecutePlain(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAggregation measures grouped aggregation.
func BenchmarkEngineAggregation(b *testing.B) {
	env := benchEnv(b)
	q := "SELECT location, count(*), avg(TweetTime) FROM TweetData GROUP BY location"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.ExecutePlain(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIVMApply measures maintaining a selection view under one update.
func BenchmarkIVMApply(b *testing.B) {
	env := benchEnv(b)
	stmt := sqlparser.MustParse("SELECT * FROM TweetData WHERE sentiment = 1")
	a, err := engine.Analyze(stmt, env.Data.DB.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	view, err := ivm.New(a, env.Data.DB, nil)
	if err != nil {
		b.Fatal(err)
	}
	tbl := env.Data.DB.MustTable("TweetData")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := int64(i%1000 + 1)
		old := tbl.Get(tid).Clone()
		tbl.Update(tid, "sentiment", types.NewInt(int64(i%3)))
		if _, err := view.Apply(nil, []ivm.TupleDelta{{Relation: "TweetData", Old: old, New: tbl.Get(tid)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeGeneration measures probe-query generation for a join query.
func BenchmarkProbeGeneration(b *testing.B) {
	env := benchEnv(b)
	drv := env.LooseDriver()
	_ = drv
	q := benchScale().Queries()[6] // Q7
	stmt := sqlparser.MustParse(q)
	a, err := engine.Analyze(stmt, env.Data.DB.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probeGen(a, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierInference compares per-object costs across the zoo —
// the cost/quality spread the progressive planner exploits.
func BenchmarkClassifierInference(b *testing.B) {
	X, y := blobsFor(b, 600, 8, 3)
	models := []ml.Classifier{
		ml.NewGNB(), ml.NewKNN(5), ml.NewDecisionTree(8),
		ml.NewRandomForest(10, 8, 1), ml.NewMLP(16),
	}
	for _, m := range models {
		if err := m.Fit(X, y, 3); err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PredictProba(X[i%len(X)])
			}
		})
	}
}

// BenchmarkProgressiveEpoch measures one full progressive epoch (plan +
// enrich + IVM maintenance).
func BenchmarkProgressiveEpoch(b *testing.B) {
	env := benchEnv(b)
	quality := func([]float64) float64 { return 0 }
	_ = quality
	res, err := progressive.Run(progressive.Config{
		Design: progressive.Loose,
		Query:  benchScale().Queries()[2],
		DB:     env.Data.DB, Mgr: env.Mgr,
		EpochBudget: time.Millisecond, MaxEpochs: b.N, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Epochs) > 0 {
		var wall time.Duration
		for _, ep := range res.Epochs {
			wall += ep.Wall
		}
		b.ReportMetric(float64(wall.Nanoseconds())/float64(len(res.Epochs)), "ns/epoch")
	}
	_ = metrics.Normalize
}

func blobsFor(b *testing.B, n, dim, k int) ([][]float64, []int) {
	b.Helper()
	env, err := bench.NewEnv(bench.Scale{Tweets: 10, Images: 10, TopicDomain: k, TimeRange: 100, Seed: 9}, dataset.SingleFunctionSpecs())
	if err != nil {
		b.Fatal(err)
	}
	X, y, _, err := env.Data.TrainingData("TweetData", "topic")
	if err != nil {
		b.Fatal(err)
	}
	if len(X) > n {
		X, y = X[:n], y[:n]
	}
	return X, y
}

func probeGen(a *engine.Analysis, env *bench.Env) (int, error) {
	probes, err := loose.GenerateProbes(a, env.Data.DB, env.Mgr, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range probes {
		n += len(p.TIDs)
	}
	return n, nil
}
