package progressive

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/stats"
)

// The equivalence battery: for a grid of (design × strategy × query), a run
// with Workers: N must be byte-identical to the Workers: 1 baseline — same
// final rows in the same order, same enrichment counters, same per-epoch
// plan sizes and delta answers. This is the contract the parallel epoch
// executor promises (singleflight dedup + first-write-wins state + sorted
// delta application), checked under -race by the Makefile's test-race target.

// pinnedFixtureAttrs lists every family the fixture registers.
var pinnedFixtureAttrs = [][2]string{
	{"TweetData", "sentiment"},
	{"TweetData", "topic"},
	{"MultiPie", "gender"},
	{"MultiPie", "expression"},
}

// pinCosts freezes every function's planning cost: AvgCost normally feeds
// measured wall-clock back into plan construction, which would make the
// PlanTable — and therefore the whole run — timing-dependent and impossible
// to compare across worker counts.
func pinCosts(t *testing.T, mgr *enrich.Manager) {
	t.Helper()
	for _, fa := range pinnedFixtureAttrs {
		fam := mgr.Family(fa[0], fa[1])
		if fam == nil {
			t.Fatalf("fixture has no family %s.%s", fa[0], fa[1])
		}
		for _, fn := range fam.Functions {
			fn.PinCost = true
			fn.CostEst = 300 * time.Microsecond
		}
	}
}

func rowKey(r *expr.Row) string {
	var sb strings.Builder
	for _, v := range r.Vals {
		sb.WriteString(v.Key())
		sb.WriteByte('|')
	}
	sb.WriteByte('#')
	for _, tid := range r.TIDs {
		fmt.Fprintf(&sb, "%d,", tid)
	}
	return sb.String()
}

func rowsKey(rows []*expr.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	return strings.Join(keys, "\n")
}

// epochSummary is the determinism-relevant slice of an EpochReport: counts
// and delta answers, not timings.
type epochSummary struct {
	Planned        int
	Executed       int64
	Inserted       int
	Deleted        int
	InsertedRows   string
	DeletedRows    string
	PlanTableBytes int64
}

// runSummary is everything two equivalent runs must agree on byte for byte.
type runSummary struct {
	Rows     string
	Quality  []float64
	Epochs   []epochSummary
	Counters enrich.Counters // durations zeroed: wall-clock legitimately differs
}

func summarize(res *Result, before, after enrich.Counters) runSummary {
	s := runSummary{Rows: rowsKey(res.Rows), Quality: res.Quality}
	for _, ep := range res.Epochs {
		s.Epochs = append(s.Epochs, epochSummary{
			Planned:        ep.Planned,
			Executed:       ep.Executed,
			Inserted:       ep.Inserted,
			Deleted:        ep.Deleted,
			InsertedRows:   rowsKey(ep.InsertedRows),
			DeletedRows:    rowsKey(ep.DeletedRows),
			PlanTableBytes: ep.PlanTableBytes,
		})
	}
	s.Counters = enrich.Counters{
		Enrichments:  after.Enrichments - before.Enrichments,
		Skipped:      after.Skipped - before.Skipped,
		ReExecutions: after.ReExecutions - before.ReExecutions,
	}
	return s
}

// equivRun executes one fresh fixture at the given worker count and returns
// its summary. Each call rebuilds dataset, models and manager from the same
// seeds, so runs are comparable but share no state.
func equivRun(t *testing.T, design Design, strategy Strategy, query string, workers int) runSummary {
	return equivRunAdaptive(t, design, strategy, query, workers, false)
}

// equivRunAdaptive is equivRun with the adaptive dimension explicit: adaptive
// on attaches a fresh runtime-statistics store (stats feedback + adaptive
// filter/join execution), off leaves Stats nil (the static paths). The
// Adaptive strategy gets a store either way via Run's default.
func equivRunAdaptive(t *testing.T, design Design, strategy Strategy, query string, workers int, adaptive bool) runSummary {
	t.Helper()
	d, mgr := fixture(t)
	pinCosts(t, mgr)
	before := mgr.Counters()
	cfg := Config{
		Design:      design,
		Analysis:    analyze(t, d, query),
		DB:          d.DB,
		Mgr:         mgr,
		Strategy:    strategy,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   40,
		Seed:        11,
		Workers:     workers,
		Quality:     truthQuality(t, d, query),
	}
	if adaptive {
		cfg.Stats = stats.NewStore()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return summarize(res, before, mgr.Counters())
}

func diffSummaries(t *testing.T, name string, base, got runSummary) {
	t.Helper()
	if base.Rows != got.Rows {
		t.Errorf("%s: final rows differ from Workers:1 baseline", name)
	}
	if base.Counters != got.Counters {
		t.Errorf("%s: counters differ: baseline %+v, got %+v", name, base.Counters, got.Counters)
	}
	if len(base.Quality) != len(got.Quality) {
		t.Errorf("%s: quality series length %d vs %d", name, len(base.Quality), len(got.Quality))
	} else {
		for i := range base.Quality {
			if base.Quality[i] != got.Quality[i] {
				t.Errorf("%s: quality[%d] = %v vs %v", name, i, base.Quality[i], got.Quality[i])
			}
		}
	}
	if len(base.Epochs) != len(got.Epochs) {
		t.Errorf("%s: epoch count %d vs %d", name, len(base.Epochs), len(got.Epochs))
		return
	}
	for i := range base.Epochs {
		if base.Epochs[i] != got.Epochs[i] {
			t.Errorf("%s: epoch %d differs:\nbaseline %+v\ngot      %+v",
				name, i+1, withoutRows(base.Epochs[i]), withoutRows(got.Epochs[i]))
		}
	}
}

// withoutRows blanks the (long) delta-row renderings for readable failures.
func withoutRows(e epochSummary) epochSummary {
	e.InsertedRows, e.DeletedRows = "", ""
	return e
}

// TestWorkersEquivalenceGrid runs the full design × strategy grid on a
// selection query and compares Workers: 4 against the Workers: 1 baseline.
func TestWorkersEquivalenceGrid(t *testing.T) {
	const query = "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"
	for _, design := range []Design{Loose, Tight} {
		for _, strategy := range []Strategy{SBOO, SBRO, SBFO, Benefit, Adaptive} {
			design, strategy := design, strategy
			t.Run(fmt.Sprintf("%s/%s", design, strategy), func(t *testing.T) {
				t.Parallel()
				base := equivRun(t, design, strategy, query, 1)
				if base.Counters.Enrichments == 0 {
					t.Fatal("baseline ran no enrichments; grid case is vacuous")
				}
				diffSummaries(t, "workers=4", base, equivRun(t, design, strategy, query, 4))
			})
		}
	}
}

// TestAdaptiveOnOffEquivalence pins the tentpole's byte-identical contract
// end to end: attaching a runtime-statistics store (build-side swaps, stats
// feedback) must not change one byte of any run's output — final rows,
// per-epoch deltas, quality series, or enrichment counters — for any design
// × strategy × worker count. Only the Adaptive strategy is excluded: its
// plan ORDER legitimately consumes the store, so for it the test instead pins
// determinism (two identical adaptive runs agree byte for byte).
func TestAdaptiveOnOffEquivalence(t *testing.T) {
	const query = "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"
	for _, design := range []Design{Loose, Tight} {
		for _, strategy := range []Strategy{SBOO, SBFO, Benefit} {
			design, strategy := design, strategy
			t.Run(fmt.Sprintf("%s/%s", design, strategy), func(t *testing.T) {
				t.Parallel()
				off := equivRunAdaptive(t, design, strategy, query, 1, false)
				if off.Counters.Enrichments == 0 {
					t.Fatal("baseline ran no enrichments; case is vacuous")
				}
				diffSummaries(t, "adaptive-on", off, equivRunAdaptive(t, design, strategy, query, 1, true))
				diffSummaries(t, "adaptive-on/workers=4", off, equivRunAdaptive(t, design, strategy, query, 4, true))
			})
		}
	}
	for _, design := range []Design{Loose, Tight} {
		design := design
		t.Run(fmt.Sprintf("%s/Adaptive-deterministic", design), func(t *testing.T) {
			t.Parallel()
			a := equivRunAdaptive(t, design, Adaptive, query, 1, true)
			if a.Counters.Enrichments == 0 {
				t.Fatal("adaptive run enriched nothing")
			}
			diffSummaries(t, "adaptive-rerun", a, equivRunAdaptive(t, design, Adaptive, query, 1, true))
			diffSummaries(t, "adaptive-rerun/workers=4", a, equivRunAdaptive(t, design, Adaptive, query, 4, true))
		})
	}
}

// TestWorkersEquivalenceJoin covers the join path (probe queries over two
// aliases; the tight design's survivor join triggers lazy join-attribute
// enrichment) at several worker counts.
func TestWorkersEquivalenceJoin(t *testing.T) {
	const query = "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1 AND T1.TweetTime < 5000"
	for _, design := range []Design{Loose, Tight} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			t.Parallel()
			base := equivRun(t, design, SBFO, query, 1)
			if base.Counters.Enrichments == 0 {
				t.Fatal("baseline ran no enrichments; join case is vacuous")
			}
			for _, workers := range []int{2, 8} {
				diffSummaries(t, fmt.Sprintf("workers=%d", workers), base, equivRun(t, design, SBFO, query, workers))
			}
		})
	}
}

// TestWorkersEquivalenceAggregate pins the aggregation view path: grouped
// delta answers must also be order- and value-identical across worker counts.
func TestWorkersEquivalenceAggregate(t *testing.T) {
	const query = "SELECT sentiment, COUNT(*) FROM TweetData WHERE TweetTime < 6000 GROUP BY sentiment"
	for _, design := range []Design{Loose, Tight} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			t.Parallel()
			base := equivRun(t, design, SBFO, query, 1)
			if base.Counters.Enrichments == 0 {
				t.Fatal("baseline ran no enrichments; aggregate case is vacuous")
			}
			diffSummaries(t, "workers=4", base, equivRun(t, design, SBFO, query, 4))
		})
	}
}

// TestTightUDFGateConservesPayments pins the concurrent read_udf gate's
// accounting. With an invocation overhead, a Workers: 4 tight run answers and
// enriches exactly as the Workers: 1 run does, and every read_udf call with
// pending work either pays the overhead or rides another call's payment: the
// parallel run's payments plus coalesced rides equal the sequential run's
// payments.
func TestTightUDFGateConservesPayments(t *testing.T) {
	const query = "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8"
	run := func(workers int) *Result {
		d, mgr := fixture(t)
		pinCosts(t, mgr)
		res, err := Run(Config{
			Design: Tight, Analysis: analyze(t, d, query), DB: d.DB, Mgr: mgr,
			Strategy: SBFO, EpochBudget: 2 * time.Millisecond, MaxEpochs: 40, Seed: 11,
			Workers: workers, InvokeOverhead: 20 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if seq.TotalEnrichments == 0 || seq.UDFPayments == 0 {
		t.Fatalf("sequential run is vacuous: enrichments=%d payments=%d", seq.TotalEnrichments, seq.UDFPayments)
	}
	if seq.UDFCoalesced != 0 {
		t.Errorf("Workers:1 coalesced %d calls; sequential calls never overlap", seq.UDFCoalesced)
	}
	if rowsKey(seq.Rows) != rowsKey(par.Rows) {
		t.Errorf("Workers:4 answer differs: %d rows vs %d", len(par.Rows), len(seq.Rows))
	}
	if par.TotalEnrichments != seq.TotalEnrichments {
		t.Errorf("Workers:4 enriched %d, Workers:1 %d", par.TotalEnrichments, seq.TotalEnrichments)
	}
	if par.UDFPayments+par.UDFCoalesced != seq.UDFPayments {
		t.Errorf("payments not conserved: %d paid + %d coalesced at Workers:4, %d paid at Workers:1",
			par.UDFPayments, par.UDFCoalesced, seq.UDFPayments)
	}
	t.Logf("Workers:1 paid %d; Workers:4 paid %d, coalesced %d", seq.UDFPayments, par.UDFPayments, par.UDFCoalesced)
}
