package bench

import (
	"fmt"
	"math/rand"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/loose/remote"
)

// Exp1aNumEnrichments reproduces Table 7: the number of enrichments
// performed by the Baseline (complete enrichment), loose and tight designs
// for Q1–Q9. Expected shape: Baseline ≫ Loose ≥ Tight, with equality of the
// two designs on Q1, Q7 and Q9 (single derived predicate or fixed-only
// selection) and strict tight savings on the multi-derived-predicate
// queries.
func Exp1aNumEnrichments(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 7 — number of enrichments (Baseline vs Loose vs Tight)",
		Header: []string{"query", "baseline", "loose", "tight", "tight/loose"},
	}
	for qi, q := range s.Queries() {
		le, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		baseline, err := le.BaselineEnrichments(q)
		if err != nil {
			return nil, err
		}
		lres, err := le.LooseDriver().Execute(q)
		if err != nil {
			return nil, fmt.Errorf("Q%d loose: %w", qi+1, err)
		}
		te, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		tres, err := te.TightDriver().Execute(q)
		if err != nil {
			return nil, fmt.Errorf("Q%d tight: %w", qi+1, err)
		}
		ratio := 1.0
		if lres.Enrichments > 0 {
			ratio = float64(tres.Enrichments) / float64(lres.Enrichments)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", qi+1),
			fmt.Sprintf("%d", baseline),
			fmt.Sprintf("%d", lres.Enrichments),
			fmt.Sprintf("%d", tres.Enrichments),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: baseline >> loose >= tight; equality on Q1/Q7/Q9, strict savings on Q2-Q6, Q8")
	return t, nil
}

// Exp1bSelectivity reproduces Table 8: the number of enrichments as the Q3
// topic predicate's selectivity varies. Expected shape: the tight design's
// advantage grows as the predicate passes fewer tuples; the loose design is
// flat (it enriches every probe tuple for every attribute regardless).
func Exp1bSelectivity(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 8 — enrichments vs predicate selectivity (Q3)",
		Header: []string{"selectivity", "baseline", "loose", "tight", "tight/loose"},
	}
	for _, frac := range []float64{0.01, 0.10, 0.25, 0.50, 0.75} {
		q := s.Q3WithSelectivity(frac)
		le, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		baseline, _ := le.BaselineEnrichments(q)
		lres, err := le.LooseDriver().Execute(q)
		if err != nil {
			return nil, err
		}
		te, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		tres, err := te.TightDriver().Execute(q)
		if err != nil {
			return nil, err
		}
		ratio := 1.0
		if lres.Enrichments > 0 {
			ratio = float64(tres.Enrichments) / float64(lres.Enrichments)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%d", baseline),
			fmt.Sprintf("%d", lres.Enrichments),
			fmt.Sprintf("%d", tres.Enrichments),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: loose flat across selectivities; tight/loose ratio shrinks as the predicate gets more selective")
	return t, nil
}

// CumulativePoint is one query of the Figure 5 series.
type CumulativePoint struct {
	Query       int
	Enrichments int64
	// EagerExecs is what enriching every tuple at ingestion executes: one
	// run of each family function per tuple. The cumulative Enrichments of
	// the series are the machine-independent form of the figure.
	EagerExecs     int64
	CumulativeCost time.Duration
	EagerCost      time.Duration
}

// Exp1cCumulative reproduces Figure 5: the cumulative execution time of
// repeated Q3 instances with random time windows, against the one-off cost
// of eager (at-ingestion) complete enrichment. Expected shape: the
// query-time curve starts far below the eager line and converges towards it
// as the queries cover the data, never exceeding it.
func Exp1cCumulative(s Scale, queries int) (*Table, []CumulativePoint, error) {
	env, err := NewEnv(s, dataset.SingleFunctionSpecs())
	if err != nil {
		return nil, nil, err
	}
	// Eager cost estimate: per-object cost of each function × tuples.
	var eager time.Duration
	var eagerExecs int64
	for _, attr := range []string{"sentiment", "topic"} {
		fam := env.Mgr.Family("TweetData", attr)
		for _, fn := range fam.Functions {
			eager += fn.AvgCost() * time.Duration(s.Tweets)
			eagerExecs += int64(s.Tweets)
		}
	}

	drv := env.LooseDriver()
	r := rand.New(rand.NewSource(s.Seed + 77))
	window := s.TimeRange / 20 // ~5% selectivity per query instance
	var cumulative time.Duration
	var points []CumulativePoint
	t := &Table{
		Title:  "Figure 5 — cumulative query-time cost vs eager enrichment (repeated Q3)",
		Header: []string{"query#", "enrichments", "cumulative", "eager"},
	}
	for qi := 1; qi <= queries; qi++ {
		lo := r.Int63n(s.TimeRange - window)
		hi := lo + window
		q := fmt.Sprintf("SELECT * FROM TweetData WHERE topic <= %d AND sentiment = 1 AND TweetTime BETWEEN %d AND %d",
			s.TopicDomain/2, lo, hi)
		res, err := drv.Execute(q)
		if err != nil {
			return nil, nil, err
		}
		cumulative += res.Timing.Enrich
		points = append(points, CumulativePoint{
			Query: qi, Enrichments: res.Enrichments, EagerExecs: eagerExecs,
			CumulativeCost: cumulative, EagerCost: eager,
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", qi),
			fmt.Sprintf("%d", res.Enrichments),
			dur(cumulative),
			dur(eager),
		})
	}
	// Recalculate the eager estimate from the now-measured costs (AvgCost
	// sharpens once functions have actually run) and refresh the printed
	// column so table and points agree.
	var eagerMeasured time.Duration
	for _, attr := range []string{"sentiment", "topic"} {
		fam := env.Mgr.Family("TweetData", attr)
		for _, fn := range fam.Functions {
			eagerMeasured += fn.AvgCost() * time.Duration(s.Tweets)
		}
	}
	for i := range points {
		points[i].EagerCost = eagerMeasured
		t.Rows[i][3] = dur(eagerMeasured)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("eager cost re-estimated from measured per-object costs: %s", dur(eagerMeasured)),
		"paper shape: cumulative query-time cost stays below eager and converges as queries cover the data")
	return t, points, nil
}

// Exp1dLatency reproduces Table 9: per-template latency of the loose and
// tight designs, averaged over several instances. Expected shape: both ≪
// complete enrichment; tight ≤ loose except Q8 where the rewritten join's
// forced nested loop makes tight slower.
func Exp1dLatency(s Scale, instances int) (*Table, error) {
	t := &Table{
		Title:  "Table 9 — query latency (avg over instances)",
		Header: []string{"query", "loose", "tight", "loose rows", "tight rows"},
	}
	for qi, q := range s.Queries() {
		var lTotal, tTotal time.Duration
		var lRows, tRows int
		for inst := 0; inst < instances; inst++ {
			sc := s
			sc.Seed = s.Seed + int64(inst)
			le, err := NewEnv(sc, dataset.SingleFunctionSpecs())
			if err != nil {
				return nil, err
			}
			lres, err := le.LooseDriver().Execute(q)
			if err != nil {
				return nil, fmt.Errorf("Q%d loose: %w", qi+1, err)
			}
			lTotal += lres.Timing.Total()
			lRows += len(lres.Rows)

			te, err := NewEnv(sc, dataset.SingleFunctionSpecs())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			tres, err := te.TightDriver().Execute(q)
			if err != nil {
				return nil, fmt.Errorf("Q%d tight: %w", qi+1, err)
			}
			tTotal += time.Since(start)
			tRows += len(tres.Rows)
		}
		n := time.Duration(instances)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", qi+1),
			dur(lTotal / n),
			dur(tTotal / n),
			fmt.Sprintf("%d", lRows/instances),
			fmt.Sprintf("%d", tRows/instances),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: tight <= loose on Q1-Q7/Q9; loose wins Q8 (tight's rewritten join forces a nested loop)")
	return t, nil
}

// Exp1eTimeSplit reproduces Table 11: where the loose design's time goes —
// enrichment server (ES), network, DBMS — against the tight design's
// all-in-DBMS time. The loose runs use a real TCP enrichment server with an
// added per-batch latency emulating the paper's cross-server AWS link.
// Expected shape: loose time dominated by the ES; network > DBMS share.
func Exp1eTimeSplit(s Scale, extraLatency time.Duration) (*Table, error) {
	t := &Table{
		Title:  "Table 11 — time split: loose (DBMS / network / ES) vs tight (DBMS)",
		Header: []string{"query", "loose DBMS", "loose net", "loose ES", "loose total", "tight total"},
	}
	for qi, q := range s.Queries() {
		le, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		srv, addr, err := remote.Serve("127.0.0.1:0", le.Mgr)
		if err != nil {
			return nil, err
		}
		// Production-shaped client: bounded per-call deadline with retries.
		// Any retried attempt's wall-clock lands in the network column, so
		// the split stays truthful if the loopback transport hiccups.
		client, err := remote.DialOptions(addr, remote.Options{CallTimeout: 30 * time.Second})
		if err != nil {
			srv.Close()
			return nil, err
		}
		client.ExtraLatency = extraLatency
		drv := le.LooseDriver()
		drv.Enricher = client
		lres, err := drv.Execute(q)
		client.Close()
		srv.Close()
		if err != nil {
			return nil, fmt.Errorf("Q%d loose: %w", qi+1, err)
		}
		if lres.FailedEnrichments > 0 {
			return nil, fmt.Errorf("Q%d loose: %d enrichments failed: %v",
				qi+1, lres.FailedEnrichments, lres.EnrichErrors)
		}

		te, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := te.TightDriver().Execute(q); err != nil {
			return nil, fmt.Errorf("Q%d tight: %w", qi+1, err)
		}
		tightTotal := time.Since(start)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", qi+1),
			dur(lres.Timing.Probe + lres.Timing.DBMS),
			dur(lres.Timing.Network),
			dur(lres.Timing.Enrich),
			dur(lres.Timing.Total()),
			dur(tightTotal),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: the enrichment server dominates loose time; network adds a constant data-movement tax tight avoids")
	return t, nil
}
