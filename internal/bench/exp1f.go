package bench

import (
	"fmt"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/progressive"
)

// Exp1fWorkers measures the workers axis the parallel epoch executor adds:
// the same progressive Q3 run at increasing worker counts, for both designs.
// Reported per run: epoch count, enrichments, summed epoch wall-clock, and
// the speedup over the Workers:1 baseline of the same design.
//
// Expected shape: the tight design's epoch wall-clock drops as workers grow
// even on a single core — concurrent rows overlap their per-invocation
// overhead windows and micro-batching pays the tax once per batch (the
// coalesced column counts the rides). The loose design's enrichment is pure
// model compute, so its speedup tracks physical cores and stays ~flat when
// only one is available. Result correctness is worker-count-independent
// (equivalence battery), so the enrichments column must not vary by row.
func Exp1fWorkers(s Scale, workerCounts []int) (*Table, error) {
	t := &Table{
		Title:  "Exp 1f — epoch wall-clock vs Workers (progressive Q3)",
		Header: []string{"design", "workers", "epochs", "enrichments", "epoch wall", "udf payments", "coalesced", "speedup"},
	}
	// Per-object model cost so epochs carry real enrichment work, and a
	// per-invocation overhead so the tight design's batching has a tax to
	// amortize (the paper's per-row UDF invocation measured 7.72 ms/tweet).
	sc := s
	sc.ExtraCost = 100 * time.Microsecond
	const invokeOverhead = 1500 * time.Microsecond

	for _, design := range []progressive.Design{progressive.Loose, progressive.Tight} {
		var baseWall time.Duration
		for _, workers := range workerCounts {
			env, err := NewEnv(sc, dataset.SingleFunctionSpecs())
			if err != nil {
				return nil, err
			}
			quality, err := env.QualityFn(sc.Queries()[2])
			if err != nil {
				return nil, err
			}
			a, err := engine.AnalyzeSQL(sc.Queries()[2], env.Data.DB.Catalog())
			if err != nil {
				return nil, err
			}
			// Pin planning costs so every worker count plans the identical
			// epoch sequence: the wall-clock column then compares the same
			// work, and the enrichments column is guaranteed constant.
			for _, attr := range []string{"sentiment", "topic"} {
				for _, fn := range env.Mgr.Family("TweetData", attr).Functions {
					fn.PinCost = true
					fn.CostEst = sc.ExtraCost + 20*time.Microsecond
				}
			}
			res, err := progressive.Run(progressive.Config{
				Design:         design,
				Analysis:       a,
				DB:             env.Data.DB,
				Mgr:            env.Mgr,
				Strategy:       progressive.SBFO,
				EpochBudget:    2 * time.Millisecond,
				MaxEpochs:      40,
				Seed:           sc.Seed,
				Workers:        workers,
				InvokeOverhead: invokeOverhead,
				Quality:        quality,
				Tracer:         env.Tracer,
			})
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d: %w", design, workers, err)
			}
			var wall time.Duration
			for _, ep := range res.Epochs {
				wall += ep.Wall
			}
			if workers == workerCounts[0] {
				baseWall = wall
			}
			speedup := 0.0
			if wall > 0 {
				speedup = float64(baseWall) / float64(wall)
			}
			t.Rows = append(t.Rows, []string{
				design.String(),
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%d", len(res.Epochs)),
				fmt.Sprintf("%d", res.TotalEnrichments),
				dur(wall),
				fmt.Sprintf("%d", res.UDFPayments),
				fmt.Sprintf("%d", res.UDFCoalesced),
				fmt.Sprintf("%.2fx", speedup),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: tight epoch wall-clock improves with workers (overlapped + batched invocation overhead); loose tracks physical cores",
		"enrichments are identical across worker counts by the equivalence guarantee")
	return t, nil
}
