package bench

import (
	"fmt"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/loose"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
)

// AblationProbe quantifies each probe-query minimality strategy of §2.1 by
// disabling them one at a time and counting the candidate tuples (and hence
// enrichments) the loose design would perform. Expected shape: each strategy
// contributes, with selections mattering most on selective queries and
// semi-joins mattering most on joins with selective lookup sides (Q7/Q8).
func AblationProbe(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation — probe-query minimality strategies (candidate tuples)",
		Header: []string{"query", "all strategies", "no selections", "no semi-joins", "no prior work (2nd run)"},
	}
	queries := s.Queries()
	for _, qi := range []int{2, 6, 7} { // Q3, Q7, Q8
		env, err := NewEnv(s, dataset.SingleFunctionSpecs())
		if err != nil {
			return nil, err
		}
		a, err := engine.Analyze(sqlparser.MustParse(queries[qi]), env.Data.DB.Catalog())
		if err != nil {
			return nil, err
		}
		count := func(opts loose.ProbeOptions) (int, error) {
			probes, err := loose.GenerateProbesOpt(a, env.Data.DB, env.Mgr, nil, opts)
			if err != nil {
				return 0, err
			}
			n := 0
			for _, p := range probes {
				n += len(p.TIDs)
			}
			return n, nil
		}
		full, err := count(loose.ProbeOptions{})
		if err != nil {
			return nil, err
		}
		noSel, err := count(loose.ProbeOptions{NoSelections: true})
		if err != nil {
			return nil, err
		}
		noSJ, err := count(loose.ProbeOptions{NoSemiJoins: true})
		if err != nil {
			return nil, err
		}
		// Prior work needs enriched state: run the query once, then compare
		// probes with and without the state filter.
		if _, err := env.LooseDriver().Execute(queries[qi]); err != nil {
			return nil, err
		}
		noPrior, err := count(loose.ProbeOptions{NoPriorWork: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Q%d", qi+1),
			fmt.Sprintf("%d", full),
			fmt.Sprintf("%d", noSel),
			fmt.Sprintf("%d", noSJ),
			fmt.Sprintf("%d", noPrior),
		})
	}
	t.Notes = append(t.Notes,
		"'no X' columns show the candidate set when strategy X is disabled; larger = that strategy was saving that many enrichments",
		"after the first run the full-strategy probe is empty (prior work); 'no prior work' shows what would be re-enriched")
	return t, nil
}

// AblationOptimizer quantifies the three optimizer behaviours the tight
// design depends on by disabling them individually and measuring enrichments
// (and for the join-order case, latency). Expected shape:
//
//   - without fixed-first conjunct ordering, a derived-then-fixed Q2 variant
//     enriches tuples the camera predicate would have filtered;
//   - without UDF pull-up, Q7 enriches every in-window tuple instead of only
//     the ones joining California;
//   - without join reordering, Q8 enriches every in-window tuple instead of
//     only the California ones.
func AblationOptimizer(s Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation — optimizer behaviours under the tight design (enrichments)",
		Header: []string{"case", "optimizer on", "optimizer off", "off/on"},
	}
	queries := s.Queries()

	type study struct {
		name string
		// Q2 variant with the derived conditions written first, so query
		// order differs from fixed-first order.
		query string
		opts  engine.BuildOptions
	}
	studies := []study{
		{
			name:  "fixed-first ordering (Q2 variant)",
			query: "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 3",
			opts:  engine.BuildOptions{NoFixedFirstOrdering: true},
		},
		{
			name:  "UDF pull-up above joins (Q7)",
			query: queries[6],
			opts:  engine.BuildOptions{NoUDFPullUp: true},
		},
		{
			name:  "expensive-join deferral (Q8)",
			query: queries[7],
			opts:  engine.BuildOptions{NoJoinReorder: true},
		},
	}
	for _, st := range studies {
		on, err := tightEnrichments(s, st.query, engine.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s on: %w", st.name, err)
		}
		off, err := tightEnrichments(s, st.query, st.opts)
		if err != nil {
			return nil, fmt.Errorf("%s off: %w", st.name, err)
		}
		ratio := 1.0
		if on > 0 {
			ratio = float64(off) / float64(on)
		}
		t.Rows = append(t.Rows, []string{
			st.name,
			fmt.Sprintf("%d", on),
			fmt.Sprintf("%d", off),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"each optimizer behaviour prevents enrichments the paper's tight design avoids; off/on > 1 quantifies its contribution")
	return t, nil
}

func tightEnrichments(s Scale, query string, opts engine.BuildOptions) (int64, error) {
	env, err := NewEnv(s, dataset.SingleFunctionSpecs())
	if err != nil {
		return 0, err
	}
	drv := env.TightDriver()
	drv.BuildOptions = opts
	res, err := drv.Execute(query)
	if err != nil {
		return 0, err
	}
	return res.Enrichments, nil
}

// AblationBatching reproduces the paper's batched-vs-per-row execution
// comparison (7.46 vs 7.72 ms/tweet measured per object): the same set of
// enrichment requests is executed as one batch, as per-request invocations
// (emulating per-row UDF calls, each paying the invocation overhead), and as
// a parallel batch. Using the same machinery for all three isolates the
// batching/invocation effect from query-plan noise. The claim itself is in
// the work-unit columns — every mode executes each function once per object,
// the batch modes in one server invocation, the per-row mode in one per
// object — and those are what the shape test asserts; the durations show
// what the extra invocations cost on this machine.
func AblationBatching(s Scale, extra time.Duration) (*Table, error) {
	sc := s
	sc.ExtraCost = extra
	t := &Table{
		Title:  "Ablation — batched vs per-row enrichment execution",
		Header: []string{"execution", "per-object cost", "total", "invocations", "executions"},
	}

	env, err := NewEnv(sc, dataset.SingleFunctionSpecs())
	if err != nil {
		return nil, err
	}
	// Build a fixed request set (every MultiPie gender enrichment).
	tbl := env.Data.DB.MustTable("MultiPie")
	fi := tbl.Schema().ColIndex("feature")
	var reqs []loose.Request
	for _, tu := range storage.Tuples(tbl) {
		reqs = append(reqs, loose.Request{
			Relation: "MultiPie", TID: tu.ID, Attr: "gender", FnID: 0,
			Feature: tu.Vals[fi].Vector(),
		})
	}
	n := time.Duration(len(reqs))

	// The artificial model cost spins on wall clock, so a preempted run
	// over-reports; take the best of a few repetitions per mode. Each
	// repetition starts from cleared enrichment state, or it would time
	// state lookups instead of function executions. The executions a
	// repetition caused come from the manager's enrich.executions counter.
	const reps = 3
	best := func(run func() (time.Duration, error)) (min time.Duration, execs int64, err error) {
		for i := 0; i < reps; i++ {
			for _, r := range reqs {
				env.Mgr.ResetTuple(r.Relation, r.TID, r.Gen)
			}
			before := env.Mgr.Counters().Enrichments
			d, err := run()
			if err != nil {
				return 0, 0, err
			}
			execs = env.Mgr.Counters().Enrichments - before
			if min == 0 || d < min {
				min = d
			}
		}
		return min, execs, nil
	}
	row := func(name string, total time.Duration, invocations int, execs int64) {
		t.Rows = append(t.Rows, []string{name, dur(total / n), dur(total),
			fmt.Sprint(invocations), fmt.Sprint(execs)})
	}

	seq := &loose.LocalEnricher{Mgr: env.Mgr}
	seqTotal, execs, err := best(func() (time.Duration, error) {
		_, timing, err := seq.EnrichBatch(reqs)
		return timing.Compute, err
	})
	if err != nil {
		return nil, err
	}
	row("batch (1 worker)", seqTotal, 1, execs)

	par := &loose.LocalEnricher{Mgr: env.Mgr, Workers: -1}
	parTotal, execs, err := best(func() (time.Duration, error) {
		_, timing, err := par.EnrichBatch(reqs)
		return timing.Compute, err
	})
	if err != nil {
		return nil, err
	}
	row("batch (parallel)", parTotal, 1, execs)

	// Per-row: one invocation per request, each paying a per-call overhead
	// (~10% of the function cost; the paper measured ~3.5% between PL/pgSQL
	// UDF calls and batched Python execution — we use a wider margin so the
	// effect is visible above scheduler noise at microsecond costs).
	overhead := extra / 10
	perRowTotal, execs, err := best(func() (time.Duration, error) {
		start := time.Now()
		for i := range reqs {
			end := time.Now().Add(overhead)
			for time.Now().Before(end) {
			}
			if _, _, err := seq.EnrichBatch(reqs[i : i+1]); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	row("per-row invocation", perRowTotal, len(reqs), execs)

	t.Notes = append(t.Notes,
		"paper shape: batched server execution slightly cheaper per object than per-row UDFs (7.46 vs 7.72 ms/tweet)",
		"the parallel row gains with available cores (models are CPU-bound; under a CPU quota it matches the sequential batch)")
	return t, nil
}
