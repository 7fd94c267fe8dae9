package bench

// The adaptive-optimization workload (DESIGN §14): a skewed-cost progressive
// enrichment where the Adaptive strategy's observed impact-per-cost ranking
// reaches answer quality sooner than static orders. ExpAdaptive prints the
// comparison for the benchrunner; BenchmarkAdaptiveTTQ in
// adaptive_bench_test.go measures the same workload for BENCH_adaptive.json.

import (
	"fmt"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/loose"
	"enrichdb/internal/progressive"
)

// AdaptiveSkewSpecs registers two functions per tweet attribute: a cheap one
// and one carrying a 300µs artificial inference cost — the skew the Adaptive
// strategy's impact-per-cost ranking exploits.
func AdaptiveSkewSpecs() map[[2]string][]dataset.ModelSpec {
	return map[[2]string][]dataset.ModelSpec{
		{"TweetData", "sentiment"}: {
			{Kind: "gnb"},
			{Kind: "mlp", Param: 16, ExtraCost: 300 * time.Microsecond},
		},
		{"TweetData", "topic"}: {
			{Kind: "gnb"},
			{Kind: "knn", Param: 5, ExtraCost: 300 * time.Microsecond},
		},
	}
}

// timeToQuality runs one progressive query on a fresh env and returns the
// wall time until the answer first reaches the quality target (and the time
// of the full run if it never does, with reached=false).
func timeToQuality(s Scale, strategy progressive.Strategy, query string, target float64) (time.Duration, bool, error) {
	env, err := NewEnv(s, AdaptiveSkewSpecs())
	if err != nil {
		return 0, false, err
	}
	quality, err := env.QualityFn(query)
	if err != nil {
		return 0, false, err
	}
	a, err := engine.AnalyzeSQL(query, env.Data.DB.Catalog())
	if err != nil {
		return 0, false, err
	}
	cancel := make(chan struct{})
	var hit time.Duration
	reached := false
	start := time.Now()
	cfg := progressive.Config{
		Design:      progressive.Tight,
		Analysis:    a,
		DB:          env.Data.DB,
		Mgr:         env.Mgr,
		Enricher:    &loose.LocalEnricher{Mgr: env.Mgr},
		Strategy:    strategy,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   4000,
		Seed:        s.Seed,
		Quality:     quality,
		Stats:       env.Stats,
		Cancel:      cancel,
		OnEpoch: func(ep progressive.EpochReport) {
			if !reached && ep.Quality >= target {
				reached = true
				hit = time.Since(start)
				close(cancel)
			}
		},
	}
	if _, err := progressive.Run(cfg); err != nil {
		return 0, false, err
	}
	if !reached {
		hit = time.Since(start)
	}
	return hit, reached, nil
}

// AdaptiveQuery is the skewed-workload query ExpAdaptive and
// BenchmarkAdaptiveTTQ run: a two-derived-predicate selection over a time
// window, so both skewed families are on the query path.
func (s Scale) AdaptiveQuery() string {
	t1, t2 := s.TimeRange/4, s.TimeRange/4+s.TimeRange/10
	return fmt.Sprintf("SELECT * FROM TweetData WHERE topic <= %d AND sentiment = 1 AND TweetTime BETWEEN %d AND %d",
		int64(s.TopicDomain/2), t1, t2)
}

// AdaptiveQualityTarget is the F1 both time-to-quality runs race to.
const AdaptiveQualityTarget = 0.70

// ExpAdaptive compares static against adaptive execution on the skewed-cost
// workload: time-to-quality of a progressive run under the random,
// function-ordered and Adaptive strategies.
func ExpAdaptive(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Adaptive optimization — static vs runtime-stats-driven execution",
		Header: []string{"workload", "variant", "wall", "speedup"},
	}

	query := s.AdaptiveQuery()
	var randomWall time.Duration
	for _, v := range []struct {
		name     string
		strategy progressive.Strategy
	}{
		{"SB(RO)", progressive.SBRO},
		{"SB(FO)", progressive.SBFO},
		{"Adaptive", progressive.Adaptive},
	} {
		wall, reached, err := timeToQuality(s, v.strategy, query, AdaptiveQualityTarget)
		if err != nil {
			return nil, err
		}
		if v.strategy == progressive.SBRO {
			randomWall = wall
		}
		note := ""
		if !reached {
			note = " (target not reached)"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("time-to-F1>=%.2f", AdaptiveQualityTarget), v.name,
			dur(wall) + note,
			fmt.Sprintf("%.2fx", float64(randomWall)/float64(wall)),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: Adaptive strategy reaches the F1 target ahead of SB(RO) on skewed function costs")
	return t, nil
}
