package progressive

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/ml"
	"enrichdb/internal/quality"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
)

// fixture builds a dataset with multi-function families (the progressive
// experiments' setup) and ground truth for quality scoring.
func fixture(t *testing.T) (*dataset.Data, *enrich.Manager) {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		Seed: 19, Tweets: 250, Images: 120, TopicDomain: 4, TrainPerClass: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := enrich.NewManager()
	specs := map[[2]string][]dataset.ModelSpec{
		{"TweetData", "sentiment"}: {{Kind: "gnb"}, {Kind: "dt", Param: 6}, {Kind: "mlp", Param: 10}},
		{"TweetData", "topic"}:     {{Kind: "gnb"}, {Kind: "lr"}},
		{"MultiPie", "gender"}:     {{Kind: "gnb"}, {Kind: "mlp", Param: 10}},
		{"MultiPie", "expression"}: {{Kind: "gnb"}, {Kind: "dt", Param: 8}},
	}
	if err := d.RegisterFamilies(mgr, specs); err != nil {
		t.Fatal(err)
	}
	return d, mgr
}

// truthQuality builds a per-epoch F1 scorer against the ground-truth answer.
func truthQuality(t *testing.T, d *dataset.Data, q string) func([]*expr.Row) float64 {
	t.Helper()
	tdb, err := d.TruthDB()
	if err != nil {
		t.Fatal(err)
	}
	a, err := engine.Analyze(sqlparser.MustParse(q), tdb.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Build(a, tdb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(engine.NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	return func(got []*expr.Row) float64 {
		_, _, f1 := quality.SetF1(got, want)
		return f1
	}
}

// analyze parses and analyzes q against d's catalog, as the root pipeline
// does before it hands a statement to Run.
func analyze(tb testing.TB, d *dataset.Data, q string) *engine.Analysis {
	tb.Helper()
	a, err := engine.AnalyzeSQL(q, d.DB.Catalog())
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func runCfg(t *testing.T, d *dataset.Data, mgr *enrich.Manager, design Design, q string, strategy Strategy) *Result {
	t.Helper()
	res, err := Run(Config{
		Design:      design,
		Analysis:    analyze(t, d, q),
		DB:          d.DB,
		Mgr:         mgr,
		Strategy:    strategy,
		EpochBudget: 3 * time.Millisecond,
		MaxEpochs:   300,
		Seed:        5,
		Quality:     truthQuality(t, d, q),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProgressiveLooseSelection(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"
	res := runCfg(t, d, mgr, Loose, q, SBFO)

	if len(res.Epochs) == 0 {
		t.Fatal("no epochs ran")
	}
	if res.TotalEnrichments == 0 {
		t.Fatal("no enrichment happened")
	}
	// Quality must improve from e₀ (empty answer) to the end.
	q0, qn := res.Quality[0], res.Quality[len(res.Quality)-1]
	if qn <= q0 {
		t.Errorf("quality did not improve: %v -> %v", q0, qn)
	}
	if qn < 0.5 {
		t.Errorf("final F1 %.3f too low", qn)
	}
	// The view's final rows must match a from-scratch re-execution.
	plainA, _ := engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
	plan, _ := engine.Build(plainA, d.DB)
	rows, _ := plan.Execute(engine.NewExecCtx())
	if len(rows) != len(res.Rows) {
		t.Errorf("view rows %d vs re-execution %d", len(res.Rows), len(rows))
	}
}

func TestProgressiveTightSelection(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8"
	res := runCfg(t, d, mgr, Tight, q, SBFO)
	if res.TotalEnrichments == 0 {
		t.Fatal("no enrichment happened")
	}
	qn := res.Quality[len(res.Quality)-1]
	if qn < 0.3 {
		t.Errorf("final F1 %.3f too low", qn)
	}
	// Consistency: final view rows equal re-execution on the enriched DB.
	plainA, _ := engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
	plan, _ := engine.Build(plainA, d.DB)
	rows, _ := plan.Execute(engine.NewExecCtx())
	if len(rows) != len(res.Rows) {
		t.Errorf("view rows %d vs re-execution %d", len(res.Rows), len(rows))
	}
}

// TestProgressiveAdaptiveStrategy: the Adaptive strategy (ranked by entropy ×
// observed impact / observed cost, re-planned every epoch) must converge to
// the same final answer as the static strategies, with telemetry flowing
// into its runtime-statistics store along the way.
func TestProgressiveAdaptiveStrategy(t *testing.T) {
	for _, design := range []Design{Loose, Tight} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			d, mgr := fixture(t)
			q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"
			st := stats.NewStore()
			res, err := Run(Config{
				Design:      design,
				Analysis:    analyze(t, d, q),
				DB:          d.DB,
				Mgr:         mgr,
				Strategy:    Adaptive,
				EpochBudget: 3 * time.Millisecond,
				MaxEpochs:   300,
				Seed:        5,
				Stats:       st,
				Quality:     truthQuality(t, d, q),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalEnrichments == 0 {
				t.Fatal("adaptive run enriched nothing")
			}
			qn := res.Quality[len(res.Quality)-1]
			if qn < 0.5 {
				t.Errorf("final F1 %.3f too low under Adaptive", qn)
			}
			// The final view must match a from-scratch re-execution.
			plainA, _ := engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
			plan, _ := engine.Build(plainA, d.DB)
			rows, _ := plan.Execute(engine.NewExecCtx())
			if len(rows) != len(res.Rows) {
				t.Errorf("view rows %d vs re-execution %d", len(res.Rows), len(rows))
			}
			// Epoch feedback must have landed: the sentiment family's cost
			// and impact are observable after the run.
			if _, ok := st.FnImpact("TweetData", "sentiment", 0); !ok {
				t.Errorf("no observed impact for TweetData.sentiment; store:\n%s", st.String())
			}
			if _, ok := st.FnCostNs("TweetData", "sentiment", 0); !ok {
				t.Errorf("no observed cost for TweetData.sentiment; store:\n%s", st.String())
			}
		})
	}
}

func TestTightSavesEnrichmentsProgressively(t *testing.T) {
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8"
	dL, mgrL := fixture(t)
	resL := runCfg(t, dL, mgrL, Loose, q, SBFO)
	dT, mgrT := fixture(t)
	resT := runCfg(t, dT, mgrT, Tight, q, SBFO)
	if resT.TotalEnrichments > resL.TotalEnrichments {
		t.Errorf("tight (%d) must not enrich more than loose (%d)",
			resT.TotalEnrichments, resL.TotalEnrichments)
	}
}

func TestProgressiveJoinQuery(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1 AND T1.TweetTime < 5000"
	res := runCfg(t, d, mgr, Loose, q, SBRO)
	if res.Quality[len(res.Quality)-1] < 0.4 {
		t.Errorf("join query final quality %.3f", res.Quality[len(res.Quality)-1])
	}
}

func TestProgressiveTightJoin(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1 AND T1.TweetTime < 4000"
	res := runCfg(t, d, mgr, Tight, q, SBFO)
	plainA, _ := engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
	plan, _ := engine.Build(plainA, d.DB)
	rows, _ := plan.Execute(engine.NewExecCtx())
	if len(rows) != len(res.Rows) {
		t.Errorf("tight join view %d vs re-execution %d", len(res.Rows), len(rows))
	}
}

func TestProgressiveAggregation(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT topic, count(*) FROM TweetData WHERE TweetTime < 5000 GROUP BY topic"
	tdb, _ := d.TruthDB()
	ta, _ := engine.Analyze(sqlparser.MustParse(q), tdb.Catalog())
	tplan, _ := engine.Build(ta, tdb)
	want, _ := tplan.Execute(engine.NewExecCtx())

	res, err := Run(Config{
		Design: Loose, Analysis: analyze(t, d, q), DB: d.DB, Mgr: mgr,
		Strategy: SBFO, EpochBudget: 3 * time.Millisecond, MaxEpochs: 300, Seed: 2,
		Quality: func(got []*expr.Row) float64 {
			rmse, _ := quality.GroupRMSE(got, want) // want is non-empty here
			return -rmse                            // higher is better
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// RMSE must shrink (negated quality must rise).
	if res.Quality[len(res.Quality)-1] <= res.Quality[0] {
		t.Errorf("RMSE did not improve: %v -> %v", -res.Quality[0], -res.Quality[len(res.Quality)-1])
	}
}

func TestStrategiesOrdering(t *testing.T) {
	// Figure 8's shape: SB(FO) ≥ SB(RO) ≥ SB(OO) in progressive score.
	// Classifier noise can flip adjacent strategies on a small dataset, so
	// assert the robust end-to-end ordering FO ≥ OO.
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"
	score := func(strategy Strategy) float64 {
		d, mgr := fixture(t)
		res := runCfg(t, d, mgr, Loose, q, strategy)
		return quality.ProgressiveScore(res.Quality, 0.05)
	}
	fo := score(SBFO)
	oo := score(SBOO)
	t.Logf("PS: SB(FO)=%.4f SB(OO)=%.4f", fo, oo)
	if fo < oo*0.8 {
		t.Errorf("SB(FO) (%.4f) should not be clearly worse than SB(OO) (%.4f)", fo, oo)
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	d, mgr := fixture(t)
	// Seed a plan space manually.
	var entries []SpaceEntry
	for tid := int64(1); tid <= 100; tid++ {
		entries = append(entries, SpaceEntry{
			Alias: "TweetData", Relation: "TweetData", TID: tid, Attrs: []string{"sentiment", "topic"},
		})
	}
	space := NewPlanSpace(entries)
	rng := rand.New(rand.NewSource(1))

	tiny := space.Plan(mgr, SBRO, time.Nanosecond, rng)
	big := space.Plan(mgr, SBRO, time.Second, rng)
	if len(tiny) >= len(big) {
		t.Errorf("budget must bound the plan: tiny=%d big=%d", len(tiny), len(big))
	}
	if len(tiny) == 0 {
		t.Error("non-zero budget must plan at least one triplet")
	}
	// Cost accounting: the plan's estimated cost stays near the budget.
	var cost time.Duration
	for _, it := range tiny {
		cost += mgr.Family(it.Relation, it.Attr).Functions[it.FnID].AvgCost()
	}
	_ = cost
	_ = d
}

func TestStrategyTripletShapes(t *testing.T) {
	_, mgr := fixture(t)
	entry := SpaceEntry{Alias: "TweetData", Relation: "TweetData", TID: 1, Attrs: []string{"sentiment"}}
	space := NewPlanSpace([]SpaceEntry{entry})
	rng := rand.New(rand.NewSource(3))

	// SB(OO): all three sentiment functions at once.
	oo := space.pickForEntry(mgr, entry, SBOO, rng, nil)
	if len(oo) != 3 {
		t.Errorf("SB(OO) planned %d functions, want all 3", len(oo))
	}
	// SB(RO): exactly one.
	ro := space.pickForEntry(mgr, entry, SBRO, rng, nil)
	if len(ro) != 1 {
		t.Errorf("SB(RO) planned %d functions, want 1", len(ro))
	}
	// SB(FO): one per attribute, the best quality/cost first.
	fo := space.pickForEntry(mgr, entry, SBFO, rng, nil)
	if len(fo) != 1 {
		t.Fatalf("SB(FO) planned %d functions, want 1", len(fo))
	}
	fam := mgr.Family("TweetData", "sentiment")
	if fo[0].FnID != fam.ByQualityPerCost()[0] {
		t.Errorf("SB(FO) picked fn %d, want best-ratio %d", fo[0].FnID, fam.ByQualityPerCost()[0])
	}
}

func TestConsumePreventsReplanning(t *testing.T) {
	_, mgr := fixture(t)
	entry := SpaceEntry{Alias: "TweetData", Relation: "TweetData", TID: 1, Attrs: []string{"topic"}}
	space := NewPlanSpace([]SpaceEntry{entry})
	rng := rand.New(rand.NewSource(4))
	fam := mgr.Family("TweetData", "topic")
	for _, fn := range fam.Functions {
		space.Consume(PlanItem{Alias: "TweetData", Relation: "TweetData", TID: 1, Attr: "topic", FnID: fn.ID})
	}
	if got := space.Compact(mgr); got != 0 {
		t.Errorf("fully consumed entry must be compacted away: %d live", got)
	}
	if plan := space.Plan(mgr, SBRO, time.Second, rng); len(plan) != 0 {
		t.Errorf("consumed space must not plan: %d", len(plan))
	}
}

func TestCompactDropsFullyEnriched(t *testing.T) {
	d, mgr := fixture(t)
	tbl := d.DB.MustTable("MultiPie")
	fi := tbl.Schema().ColIndex("feature")
	// Fully enrich tuple 1's gender.
	x := tbl.Get(1).Vals[fi].Vector()
	fam := mgr.Family("MultiPie", "gender")
	for _, fn := range fam.Functions {
		mgr.Execute("MultiPie", 1, "gender", fn.ID, x, 0)
	}
	space := NewPlanSpace([]SpaceEntry{
		{Alias: "MultiPie", Relation: "MultiPie", TID: 1, Attrs: []string{"gender"}},
		{Alias: "MultiPie", Relation: "MultiPie", TID: 2, Attrs: []string{"gender"}},
	})
	if got := space.Compact(mgr); got != 1 {
		t.Errorf("live entries = %d, want 1", got)
	}
}

func TestBenefitOrderPrefersUncertainTuples(t *testing.T) {
	_, mgr := fixture(t)

	// Tuple 1: partially enriched with a confident function output (low
	// entropy). Tuple 2: untouched (entropy 1).
	if err := mgr.ApplyOutput("TweetData", 1, "sentiment", 0, []float64{0.98, 0.01, 0.01}, 0); err != nil {
		t.Fatal(err)
	}

	space := NewPlanSpace([]SpaceEntry{
		{Alias: "TweetData", Relation: "TweetData", TID: 1, Attrs: []string{"sentiment"}},
		{Alias: "TweetData", Relation: "TweetData", TID: 2, Attrs: []string{"sentiment"}},
	})
	order := space.benefitOrder(mgr)
	if space.entries[order[0]].TID != 2 {
		t.Errorf("uncertain tuple must rank first: order=%v", order)
	}

	// Planning under Benefit uses the same ranking.
	rng := rand.New(rand.NewSource(1))
	plan := space.Plan(mgr, Benefit, time.Nanosecond, rng)
	if len(plan) == 0 || plan[0].TID != 2 {
		t.Errorf("benefit plan should start with the uncertain tuple: %+v", plan)
	}
	if Benefit.String() != "Benefit" {
		t.Error("strategy name")
	}
}

func TestStateEntropy(t *testing.T) {
	// No outputs: maximal uncertainty.
	s := &enrich.AttrState{Outputs: make([]*enrich.Output, 2)}
	if got := stateEntropy(s, 3); got != 1 {
		t.Errorf("empty state entropy = %v", got)
	}
	// Confident output: near zero.
	s.Outputs[0] = &enrich.Output{Probs: []float64{0.999, 0.0005, 0.0005}}
	if got := stateEntropy(s, 3); got > 0.05 {
		t.Errorf("confident state entropy = %v", got)
	}
	// Uniform output: maximal.
	s.Outputs[0] = &enrich.Output{Probs: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}}
	if got := stateEntropy(s, 3); got < 0.99 {
		t.Errorf("uniform state entropy = %v", got)
	}
}

func TestOverheadsReported(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 3000"
	res := runCfg(t, d, mgr, Tight, q, SBFO)
	o := res.Overhead
	if o.Setup <= 0 || o.Plan <= 0 || o.Delta <= 0 {
		t.Errorf("overheads not measured: %+v", o)
	}
	if o.Enrich <= 0 {
		t.Error("enrichment time not measured")
	}
	// The paper's Exp 4 result: overhead is a small fraction of enrichment
	// at realistic function costs. With our fast models the ratio is
	// looser; just check everything is accounted and finite.
	if res.PlanSpaceBytes <= 0 || res.MaxPlanBytes <= 0 {
		t.Errorf("sizes not measured: space=%d plan=%d", res.PlanSpaceBytes, res.MaxPlanBytes)
	}
}

func TestRecomputeModeMatchesIVM(t *testing.T) {
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 4000"
	dA, mgrA := fixture(t)
	resIVM := runCfg(t, dA, mgrA, Loose, q, SBFO)

	dB, mgrB := fixture(t)
	resRe, err := Run(Config{
		Design: Loose, Analysis: analyze(t, dB, q), DB: dB.DB, Mgr: mgrB,
		Strategy: SBFO, EpochBudget: 3 * time.Millisecond, MaxEpochs: 300, Seed: 5,
		Quality:   truthQuality(t, dB, q),
		Recompute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resIVM.Rows) != len(resRe.Rows) {
		t.Errorf("IVM (%d rows) and recompute (%d rows) disagree",
			len(resIVM.Rows), len(resRe.Rows))
	}
	if resRe.View != nil {
		t.Error("recompute mode must not build a view")
	}
}

func TestDeltaAnswersFetchable(t *testing.T) {
	d, mgr := fixture(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 4000"
	res := runCfg(t, d, mgr, Loose, q, SBFO)
	totalInserted := 0
	for _, ep := range res.Epochs {
		totalInserted += ep.Inserted - ep.Deleted
	}
	if totalInserted != len(res.Rows) {
		t.Errorf("delta answers (%d net) must reconstruct the final answer (%d rows)",
			totalInserted, len(res.Rows))
	}
}

func TestRunValidation(t *testing.T) {
	d, mgr := fixture(t)
	if _, err := Run(Config{Analysis: analyze(t, d, "SELECT * FROM TweetData")}); err == nil {
		t.Error("missing DB/Mgr must fail")
	}
	if _, err := Run(Config{DB: d.DB, Mgr: mgr}); err == nil {
		t.Error("missing analysis must fail")
	}
	if _, err := engine.AnalyzeSQL("not sql", d.DB.Catalog()); err == nil {
		t.Error("bad query must fail")
	}
	if _, err := engine.AnalyzeSQL("SELECT * FROM Missing", d.DB.Catalog()); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestStrategyString(t *testing.T) {
	if SBOO.String() != "SB(OO)" || SBRO.String() != "SB(RO)" || SBFO.String() != "SB(FO)" {
		t.Error("strategy names")
	}
	if Loose.String() != "loose" || Tight.String() != "tight" {
		t.Error("design names")
	}
}

// gateModel blocks its first prediction until release is closed, after
// signalling entered; every later prediction runs straight through.
type gateModel struct {
	ml.Classifier
	first            atomic.Bool
	entered, release chan struct{}
}

func (g *gateModel) PredictProba(x []float64) []float64 {
	if g.first.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return g.Classifier.PredictProba(x)
}

// TestProgressiveEnrichmentsArePerQuery: two progressive runs over disjoint
// windows of one database overlap — the first blocks inside an enrichment
// until the second has finished. Each reports its own executions, per epoch
// and in total, and together they account for everything the manager ran.
func TestProgressiveEnrichmentsArePerQuery(t *testing.T) {
	for _, design := range []Design{Loose, Tight} {
		t.Run(design.String(), func(t *testing.T) {
			d, mgr := fixture(t)
			fn := mgr.Family("TweetData", "sentiment").Functions[0]
			gate := &gateModel{Classifier: fn.Model, entered: make(chan struct{}), release: make(chan struct{})}
			fn.Model = gate
			run := func(q string) (*Result, error) {
				// One worker: while the gate holds the first run, none of
				// its other enrichments can run beside the second.
				return Run(Config{Design: design, Analysis: analyze(t, d, q), DB: d.DB, Mgr: mgr, Workers: 1, Seed: 5})
			}
			before := mgr.Counters().Enrichments

			var resA *Result
			var errA error
			done := make(chan struct{})
			go func() {
				defer close(done)
				resA, errA = run("SELECT tid FROM TweetData WHERE TweetTime < 5000 AND sentiment = 1")
			}()
			<-gate.entered
			mid := mgr.Counters().Enrichments
			resB, errB := run("SELECT tid FROM TweetData WHERE TweetTime >= 5000 AND sentiment = 1")
			afterB := mgr.Counters().Enrichments
			close(gate.release)
			<-done
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			after := mgr.Counters().Enrichments
			wantA, wantB := (mid-before)+(after-afterB), afterB-mid
			if wantA == 0 || wantB == 0 {
				t.Fatalf("runs enriched %d and %d; both must do work", wantA, wantB)
			}
			for name, c := range map[string]struct {
				res  *Result
				want int64
			}{"A": {resA, wantA}, "B": {resB, wantB}} {
				if c.res.TotalEnrichments != c.want {
					t.Errorf("%s: TotalEnrichments = %d, want its own work %d", name, c.res.TotalEnrichments, c.want)
				}
				var sum int64
				for _, ep := range c.res.Epochs {
					sum += ep.Executed
				}
				if sum != c.res.TotalEnrichments {
					t.Errorf("%s: epochs executed %d in sum, total says %d", name, sum, c.res.TotalEnrichments)
				}
			}
		})
	}
}
