package bench

import (
	"fmt"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/loose"
	"enrichdb/internal/progressive"
	"enrichdb/internal/quality"
)

// Exp4Overhead reproduces the time-overhead experiment: the share of a
// progressive run spent on non-enrichment tasks — query setup, plan
// selection, delta-answer computation, state updates and UDF invocation —
// against the time spent executing enrichment functions, plus the
// IVM-vs-recomputation comparison on Q7. Expected shape: overheads are a
// small fraction of enrichment, and IVM beats per-epoch re-execution
// clearly.
func Exp4Overhead(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Exp 4 — time overhead of non-enrichment tasks (progressive runs)",
		Header: []string{"query", "design", "setup", "plan", "delta", "state", "udf", "enrich", "overhead%"},
	}
	// Inflate function cost so the overhead ratio is meaningful at bench
	// scale (the paper's functions cost 100ms+/object).
	sc := s
	sc.ExtraCost = 100 * time.Microsecond

	queries := sc.Queries()
	for _, qi := range []int{0, 2, 6} { // Q1, Q3, Q7
		for _, design := range []progressive.Design{progressive.Loose, progressive.Tight} {
			res, err := runProgressive(sc, dataset.SingleFunctionSpecs(), design,
				queries[qi], progressive.SBFO, 4*time.Millisecond, 200)
			if err != nil {
				return nil, fmt.Errorf("Q%d %s: %w", qi+1, design, err)
			}
			o := res.Overhead
			// The loose design's enrichment happens at the server; count
			// the per-epoch server compute recorded in the reports.
			enrich := o.Enrich
			if design == progressive.Loose {
				enrich = 0
				for _, ep := range res.Epochs {
					enrich += ep.EnrichTime
				}
			}
			overhead := o.Plan + o.Delta + o.State + o.UDF
			pct := 0.0
			if enrich > 0 {
				pct = 100 * float64(overhead) / float64(enrich)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("Q%d", qi+1), design.String(),
				dur(o.Setup), dur(o.Plan), dur(o.Delta), dur(o.State), dur(o.UDF),
				dur(enrich), fmt.Sprintf("%.1f%%", pct),
			})
		}
	}

	// IVM vs per-epoch re-execution on Q7, with many small epochs so the
	// per-epoch maintenance cost difference accumulates.
	q7 := queries[6]
	ivmRes, err := runProgressive(sc, dataset.SingleFunctionSpecs(), progressive.Loose,
		q7, progressive.SBFO, 200*time.Microsecond, 400)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(sc, dataset.SingleFunctionSpecs())
	if err != nil {
		return nil, err
	}
	qualityFn, err := env.QualityFn(q7)
	if err != nil {
		return nil, err
	}
	a7, err := engine.AnalyzeSQL(q7, env.Data.DB.Catalog())
	if err != nil {
		return nil, err
	}
	reRes, err := progressive.Run(progressive.Config{
		Design: progressive.Loose, Analysis: a7, DB: env.Data.DB, Mgr: env.Mgr,
		Enricher: &loose.LocalEnricher{Mgr: env.Mgr},
		Strategy: progressive.SBFO, EpochBudget: 200 * time.Microsecond, MaxEpochs: 400,
		Seed: sc.Seed, Quality: qualityFn, Recompute: true, Tracer: env.Tracer,
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("IVM vs re-execution (Q7): delta maintenance %s vs from-scratch %s across %d/%d epochs",
			dur(ivmRes.Overhead.Delta), dur(reRes.Overhead.Delta), len(ivmRes.Epochs), len(reRes.Epochs)),
		"paper shape: total non-enrichment overhead is a few percent of enrichment time; IVM clearly beats re-execution")
	return t, nil
}

// Exp4WorkersOverhead extends Exp 4 with the workers axis: the tight
// design's UDF-invocation overhead on Q3 as the epoch worker count grows.
// Expected shape: overhead payments drop (micro-batching coalesces
// concurrent read_udf calls into one payment) and the UDF overhead share
// shrinks, while plan/delta/state overheads stay put — parallelism attacks
// exactly the per-row invocation tax the paper measured at 7.72 vs
// 7.46 ms/tweet for per-row vs batched UDFs.
func Exp4WorkersOverhead(s Scale, workerCounts []int) (*Table, error) {
	t := &Table{
		Title:  "Exp 4 (workers axis) — tight UDF overhead vs epoch workers (Q3)",
		Header: []string{"workers", "plan", "delta", "state", "udf", "enrich", "payments", "coalesced", "overhead%"},
	}
	sc := s
	sc.ExtraCost = 100 * time.Microsecond
	q3 := sc.Queries()[2]
	for _, workers := range workerCounts {
		env, err := NewEnv(sc, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		qualityFn, err := env.QualityFn(q3)
		if err != nil {
			return nil, err
		}
		a, err := engine.AnalyzeSQL(q3, env.Data.DB.Catalog())
		if err != nil {
			return nil, err
		}
		res, err := progressive.Run(progressive.Config{
			Design:         progressive.Tight,
			Analysis:       a,
			DB:             env.Data.DB,
			Mgr:            env.Mgr,
			Strategy:       progressive.SBFO,
			EpochBudget:    4 * time.Millisecond,
			MaxEpochs:      80,
			Seed:           sc.Seed,
			Workers:        workers,
			InvokeOverhead: time.Millisecond,
			Quality:        qualityFn,
			Tracer:         env.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", workers, err)
		}
		o := res.Overhead
		overhead := o.Plan + o.Delta + o.State + o.UDF
		pct := 0.0
		if o.Enrich > 0 {
			pct = 100 * float64(overhead) / float64(o.Enrich)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", workers),
			dur(o.Plan), dur(o.Delta), dur(o.State), dur(o.UDF), dur(o.Enrich),
			fmt.Sprintf("%d", res.UDFPayments),
			fmt.Sprintf("%d", res.UDFCoalesced),
			fmt.Sprintf("%.1f%%", pct),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: workers cut overhead payments via micro-batching; coalesced counts read_udf calls riding a leader's payment",
		"the udf column sums per-call spans across workers (concurrent waits overlap), so the wall-clock win appears in Exp 1f's epoch wall, not in this sum")
	return t, nil
}

// Exp5Storage reproduces the storage-overhead experiment and Table 10: sizes
// of PlanSpaceTable, PlanTable, the IVM and the state tables, and the effect
// of the state-cutoff threshold on state size, re-executions and the
// progressive score (Q3 over the large-domain topic attribute). Expected
// shape: temporary structures are tiny relative to data; higher cutoffs
// shrink state but force re-executions that depress the progressive score.
func Exp5Storage(s Scale) (*Table, *Table, error) {
	// A larger topic domain makes the cutoff bite (the paper's topic has
	// domain 40).
	sc := s
	if sc.TopicDomain < 20 {
		sc.TopicDomain = 20
	}
	q3 := sc.Queries()[2]

	sizes := &Table{
		Title:  "Exp 5 — storage overhead of progressive structures (Q3)",
		Header: []string{"structure", "bytes"},
	}
	res, err := runProgressive(sc, dataset.PaperFamilySpecs(), progressive.Loose,
		q3, progressive.SBFO, progressiveBudget, progressiveEpochs)
	if err != nil {
		return nil, nil, err
	}
	dataBytes := int64(sc.Tweets) * int64(12*8+64) // feature vector + fixed columns, rough
	sizes.Rows = append(sizes.Rows,
		[]string{"PlanSpaceTable", fmt.Sprintf("%d", res.PlanSpaceBytes)},
		[]string{"PlanTable (max epoch)", fmt.Sprintf("%d", res.MaxPlanBytes)},
		[]string{"IVM view", fmt.Sprintf("%d", res.ViewBytes)},
		[]string{"data table (approx)", fmt.Sprintf("%d", dataBytes)},
	)
	sizes.Notes = append(sizes.Notes,
		"paper shape: temporary tables and the IVM are orders of magnitude smaller than the data")

	cut := &Table{
		Title:  "Table 10 — state-cutoff threshold vs state size, re-executions and PS (Q3)",
		Header: []string{"cutoff", "state bytes", "re-executions", "PS"},
	}
	// Re-executions must carry real cost for the PS effect to show: charge
	// each function an artificial per-object cost, as the paper's heavy
	// models naturally have.
	cutScale := sc
	cutScale.ExtraCost = 60 * time.Microsecond
	for _, threshold := range []float64{0, 0.2, 0.5, 0.8} {
		env, err := NewEnv(cutScale, dataset.PaperFamilySpecs())
		if err != nil {
			return nil, nil, err
		}
		env.Mgr.SetCutoff(threshold)
		qualityFn, err := env.QualityFn(q3)
		if err != nil {
			return nil, nil, err
		}
		a, err := engine.AnalyzeSQL(q3, env.Data.DB.Catalog())
		if err != nil {
			return nil, nil, err
		}
		r, err := progressive.Run(progressive.Config{
			Design: progressive.Loose, Analysis: a, DB: env.Data.DB, Mgr: env.Mgr,
			Enricher: &loose.LocalEnricher{Mgr: env.Mgr},
			Strategy: progressive.SBFO, EpochBudget: progressiveBudget, MaxEpochs: progressiveEpochs,
			Seed: sc.Seed, Quality: qualityFn, Tracer: env.Tracer,
		})
		if err != nil {
			return nil, nil, err
		}
		c := env.Mgr.Counters()
		ps := quality.ProgressiveScore(quality.Normalize(r.Quality), 0.05)
		cut.Rows = append(cut.Rows, []string{
			fmt.Sprintf("%.1f", threshold),
			fmt.Sprintf("%d", env.Mgr.StateSizeBytes()),
			fmt.Sprintf("%d", c.ReExecutions),
			fmt.Sprintf("%.3f", ps),
		})
	}
	cut.Notes = append(cut.Notes,
		"paper shape: higher cutoff -> smaller state, more re-executions, lower PS")
	return sizes, cut, nil
}
