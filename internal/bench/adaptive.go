package bench

// The adaptive-optimization workloads (DESIGN §14): a skewed filter where
// cheapest-rejection-first conjunct reordering pays, and a skewed-cost
// progressive enrichment where the Adaptive strategy's observed
// impact-per-cost ranking reaches answer quality sooner than static orders.
// ExpAdaptive prints the comparison for the benchrunner; the Benchmark*
// functions in adaptive_bench_test.go measure the same workloads for
// BENCH_adaptive.json.

import (
	"fmt"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/progressive"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// skewFilterTable builds n rows (x1, x2, x3, r) where every xi passes its
// benchmark conjunct and r = i%100 rejects 99%. The static conjunct order
// puts the rejector last — the pessimal order an oblivious optimizer might
// pick — so every row pays all four evaluations; cheapest-rejection-first
// moves r to the front after the first re-rank boundary.
func skewFilterTable(tb interface {
	Helper()
	Fatal(...any)
}, n int) *storage.Table {
	tb.Helper()
	schema := catalog.MustSchema("W", []catalog.Column{
		{Name: "x1", Kind: types.KindInt},
		{Name: "x2", Kind: types.KindInt},
		{Name: "x3", Kind: types.KindInt},
		{Name: "r", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(i) * 2),
			types.NewInt(int64(i) * 3),
			types.NewInt(int64(i) % 100),
		}})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// skewFilterPred is the pessimal static order: three always-true conjuncts,
// then the 1%-pass rejector.
func skewFilterPred(tb interface {
	Helper()
	Fatal(...any)
}, rs *expr.RowSchema, n int) expr.Expr {
	tb.Helper()
	pred := expr.NewAnd(
		expr.NewAnd(
			expr.NewAnd(
				expr.NewCmp(expr.LT, expr.NewCol("W", "x1"), expr.NewConst(types.NewInt(int64(n)))),
				expr.NewCmp(expr.LT, expr.NewCol("W", "x2"), expr.NewConst(types.NewInt(int64(n)*2))),
			),
			expr.NewCmp(expr.LT, expr.NewCol("W", "x3"), expr.NewConst(types.NewInt(int64(n)*3))),
		),
		expr.NewCmp(expr.EQ, expr.NewCol("W", "r"), expr.NewConst(types.NewInt(1))),
	)
	if err := pred.Resolve(rs); err != nil {
		tb.Fatal(err)
	}
	return pred
}

// runSkewFilter executes the skewed filter once on the row path; a nil store
// is the static order, a non-nil store enables adaptive reordering.
func runSkewFilter(tbl *storage.Table, pred expr.Expr, st *stats.Store) (int, error) {
	ctx := engine.NewExecCtx()
	ctx.NoVector = true // compare row path against row path: reordering is the variable
	ctx.Adapt = st
	rows, err := engine.NewFilter(engine.NewScan(tbl, "W"), pred).Execute(ctx)
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

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

// AdaptiveQuery is the skewed-workload query both adaptive benchmarks run: a
// two-derived-predicate selection over a time window, so both skewed
// families are on the query path.
func (s Scale) AdaptiveQuery() string {
	t1, t2 := s.TimeRange/4, s.TimeRange/4+s.TimeRange/10
	return fmt.Sprintf("SELECT * FROM TweetData WHERE topic <= %d AND sentiment = 1 AND TweetTime BETWEEN %d AND %d",
		int64(s.TopicDomain/2), t1, t2)
}

// AdaptiveQualityTarget is the F1 both time-to-quality runs race to.
const AdaptiveQualityTarget = 0.70

// ExpAdaptive compares static against adaptive execution on the two skewed
// workloads: wall time of the pessimally-ordered filter with and without
// cheapest-rejection-first reordering, and time-to-quality of a progressive
// run under the random, function-ordered and Adaptive strategies.
func ExpAdaptive(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Adaptive optimization — static vs runtime-stats-driven execution",
		Header: []string{"workload", "variant", "wall", "speedup"},
	}

	const filterRows = 400_000
	tbl := skewFilterTable(panicHelper{}, filterRows)
	pred := func() expr.Expr { return skewFilterPred(panicHelper{}, engine.NewScan(tbl, "W").Schema(), filterRows) }
	measure := func(st *stats.Store) (time.Duration, error) {
		// Two passes, keep the second: warms the table on both variants and
		// gives the adaptive run one scan of observations, mirroring the
		// steady state a long scan reaches after its first re-rank boundary.
		if _, err := runSkewFilter(tbl, pred(), st); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := runSkewFilter(tbl, pred(), st); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	staticWall, err := measure(nil)
	if err != nil {
		return nil, err
	}
	adaptiveWall, err := measure(stats.NewStore())
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"filter(pessimal order)", "static", dur(staticWall), "1.00x"},
		[]string{"filter(pessimal order)", "adaptive", dur(adaptiveWall),
			fmt.Sprintf("%.2fx", float64(staticWall)/float64(adaptiveWall))})

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
		"expected shape: adaptive filter >=1.5x over the pessimal static order; Adaptive strategy reaches the F1 target ahead of SB(RO) on skewed function costs")
	return t, nil
}

// panicHelper satisfies the testing-like helper interface for non-test
// callers of the workload builders.
type panicHelper struct{}

func (panicHelper) Helper()           {}
func (panicHelper) Fatal(args ...any) { panic(fmt.Sprint(args...)) }
