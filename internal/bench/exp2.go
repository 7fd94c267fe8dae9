package bench

import (
	"fmt"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/progressive"
	"enrichdb/internal/quality"
)

// QualityFn builds a per-epoch answer-quality scorer for a query: F1 against
// the ground-truth answer set for SPJ queries, and 1/(1+RMSE) for
// aggregations (monotone in the paper's RMSE measure, bounded to [0,1] so it
// composes with the progressive score).
func (e *Env) QualityFn(query string) (func([]*expr.Row) float64, error) {
	tdb, err := e.Data.TruthDB()
	if err != nil {
		return nil, err
	}
	a, err := engine.AnalyzeSQL(query, tdb.Catalog())
	if err != nil {
		return nil, err
	}
	plan, err := engine.Build(a, tdb)
	if err != nil {
		return nil, err
	}
	want, err := plan.Execute(engine.NewExecCtx())
	if err != nil {
		return nil, err
	}
	agg := a.Stmt.HasAggregate()
	return func(got []*expr.Row) float64 {
		if agg {
			rmse, ok := quality.GroupRMSE(got, want)
			if !ok {
				return 0 // no groups on either side: no quality signal yet
			}
			return 1 / (1 + rmse)
		}
		_, _, f1 := quality.SetF1(got, want)
		return f1
	}, nil
}

// runProgressive executes one progressive run on a fresh env.
func runProgressive(s Scale, specs map[[2]string][]dataset.ModelSpec, design progressive.Design, query string, strategy progressive.Strategy, budget time.Duration, maxEpochs int) (*progressive.Result, error) {
	env, err := NewEnv(s, specs)
	if err != nil {
		return nil, err
	}
	qualityFn, err := env.QualityFn(query)
	if err != nil {
		return nil, err
	}
	a, err := engine.AnalyzeSQL(query, env.Data.DB.Catalog())
	if err != nil {
		return nil, err
	}
	return progressive.Run(progressive.Config{
		Design:      design,
		Analysis:    a,
		DB:          env.Data.DB,
		Mgr:         env.Mgr,
		Enricher:    &loose.LocalEnricher{Mgr: env.Mgr},
		Strategy:    strategy,
		EpochBudget: budget,
		MaxEpochs:   maxEpochs,
		Seed:        s.Seed,
		Quality:     qualityFn,
		Tracer:      env.Tracer,
	})
}

// sampleSeries reduces a quality series to n evenly spaced points
// (normalized to its maximum, as the paper plots F1/F1_max).
func sampleSeries(q []float64, n int) []float64 {
	norm := quality.Normalize(q)
	if len(norm) <= n {
		return norm
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(norm) - 1) / (n - 1)
		out[i] = norm[idx]
	}
	return out
}

const (
	progressiveBudget = 2 * time.Millisecond
	progressiveEpochs = 120
)

// Exp2Progressiveness reproduces Figure 7 (progressive quality over epochs
// for Q2, Q3, Q4 and the same-algorithm RF family) and Figure 6 (progressive
// scores for Q1–Q9), for both designs. Expected shape: both designs reach
// most of their final quality within the first few epochs; the tight design
// scores at least as high as the loose design.
func Exp2Progressiveness(s Scale) (*Table, *Table, error) {
	queries := s.Queries()

	// Figure 7: normalized quality series for Q2, Q3, Q4 with the full
	// Table 5 function families, plus Q3 with the RF-complexity family
	// (Figure 7(b)).
	fig7 := &Table{
		Title:  "Figure 7 — normalized answer quality over epochs (10 sampled points)",
		Header: []string{"query", "design", "quality@0%..100%"},
	}
	type figRun struct {
		label string
		specs map[[2]string][]dataset.ModelSpec
		query string
	}
	runs := []figRun{
		{"Q2", dataset.PaperFamilySpecs(), queries[1]},
		{"Q3", dataset.PaperFamilySpecs(), queries[2]},
		{"Q4", dataset.PaperFamilySpecs(), queries[3]},
		{"Q3/rf-family", rfPlusPaper(), queries[2]},
	}
	for _, fr := range runs {
		for _, design := range []progressive.Design{progressive.Loose, progressive.Tight} {
			res, err := runProgressive(s, fr.specs, design, fr.query, progressive.SBFO, progressiveBudget, progressiveEpochs)
			if err != nil {
				return nil, nil, fmt.Errorf("fig7 %s %s: %w", fr.label, design, err)
			}
			fig7.Rows = append(fig7.Rows, []string{
				fr.label, design.String(), seriesString(sampleSeries(res.Quality, 10)),
			})
		}
	}
	fig7.Notes = append(fig7.Notes,
		"paper shape: quality rises steeply in the first epochs for both designs, then flattens")

	// Figure 6: progressive scores for all nine queries.
	fig6 := &Table{
		Title:  "Figure 6 — progressive scores (slope 0.05)",
		Header: []string{"query", "loose PS", "tight PS"},
	}
	for qi, q := range queries {
		var ps [2]float64
		for di, design := range []progressive.Design{progressive.Loose, progressive.Tight} {
			res, err := runProgressive(s, dataset.PaperFamilySpecs(), design, q, progressive.SBFO, progressiveBudget, progressiveEpochs)
			if err != nil {
				return nil, nil, fmt.Errorf("fig6 Q%d %s: %w", qi+1, design, err)
			}
			ps[di] = quality.ProgressiveScore(quality.Normalize(res.Quality), 0.05)
		}
		fig6.Rows = append(fig6.Rows, []string{
			fmt.Sprintf("Q%d", qi+1),
			fmt.Sprintf("%.3f", ps[0]),
			fmt.Sprintf("%.3f", ps[1]),
		})
	}
	fig6.Notes = append(fig6.Notes,
		"paper shape: similar scores for both designs at slope 0.05, tight >= loose")
	return fig7, fig6, nil
}

// rfPlusPaper equips TweetData's attributes with the RF-complexity family
// (5/10/15/20 trees) for topic and sentiment — the Exp 2 same-algorithm
// cost/quality study.
func rfPlusPaper() map[[2]string][]dataset.ModelSpec {
	specs := map[[2]string][]dataset.ModelSpec{}
	for k, v := range dataset.RFComplexitySpecs("sentiment") {
		specs[k] = v
	}
	for k, v := range dataset.RFComplexitySpecs("topic") {
		specs[k] = v
	}
	// MultiPie families unchanged (not referenced by the Q3 run but
	// registration keeps the env uniform).
	paper := dataset.PaperFamilySpecs()
	specs[[2]string{"MultiPie", "gender"}] = paper[[2]string{"MultiPie", "gender"}]
	specs[[2]string{"MultiPie", "expression"}] = paper[[2]string{"MultiPie", "expression"}]
	return specs
}

func seriesString(q []float64) string {
	out := ""
	for i, v := range q {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", v)
	}
	return out
}

// Exp3PlanStrategies reproduces Figure 8: the effect of the three plan
// generation strategies on progressiveness for Q2, Q3 and Q4. Expected
// shape: SB(FO) best, SB(OO) worst, SB(RO) in between.
func Exp3PlanStrategies(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 8 — plan strategies SB(OO)/SB(RO)/SB(FO): progressive score and quality curve",
		Header: []string{"query", "strategy", "PS", "quality@0%..100%"},
	}
	queries := s.Queries()
	for _, qi := range []int{1, 2, 3} { // Q2, Q3, Q4
		// The paper's three strategies plus this library's benefit-based
		// extension (§3.1's cited alternative to sampling).
		for _, strategy := range []progressive.Strategy{progressive.SBOO, progressive.SBRO, progressive.SBFO, progressive.Benefit} {
			res, err := runProgressive(s, dataset.PaperFamilySpecs(), progressive.Loose,
				queries[qi], strategy, progressiveBudget, progressiveEpochs)
			if err != nil {
				return nil, fmt.Errorf("Q%d %s: %w", qi+1, strategy, err)
			}
			ps := quality.ProgressiveScore(quality.Normalize(res.Quality), 0.05)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("Q%d", qi+1),
				strategy.String(),
				fmt.Sprintf("%.3f", ps),
				seriesString(sampleSeries(res.Quality, 8)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: SB(FO) > SB(RO) > SB(OO) — picking the best quality/cost function first wins",
		"Benefit is an extension: uncertainty-ranked tuples with SB(FO) function choice")
	return t, nil
}
