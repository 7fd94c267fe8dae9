package loose

import (
	"sort"
	"testing"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/types"
)

// fixture builds a small generated database with single-function families
// (Exp 1's setup) and a loose driver over an in-process enrichment server.
func fixture(t *testing.T) (*dataset.Data, *enrich.Manager, *Driver) {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		Seed: 11, Tweets: 400, Images: 200, TopicDomain: 4, TrainPerClass: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, dataset.SingleFunctionSpecs()); err != nil {
		t.Fatal(err)
	}
	return d, mgr, NewDriver(d.DB, mgr)
}

func analyze(t *testing.T, d *dataset.Data, q string) *engine.Analysis {
	t.Helper()
	a, err := engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestProbeExploitsFixedSelection(t *testing.T) {
	d, mgr, _ := fixture(t)
	// Only tuples inside the time range can need enrichment.
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 2000"
	probes, err := GenerateProbes(analyze(t, d, q), d.DB, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 1 {
		t.Fatalf("probes: %d", len(probes))
	}
	p := probes[0]
	if len(p.Attrs) != 1 || p.Attrs[0] != "sentiment" {
		t.Errorf("attrs: %v", p.Attrs)
	}
	tbl := d.DB.MustTable("TweetData")
	ti := tbl.Schema().ColIndex("TweetTime")
	count := 0
	for _, tid := range p.TIDs {
		if tbl.Get(tid).Vals[ti].Int() >= 2000 {
			t.Fatalf("probe returned out-of-range tuple %d", tid)
		}
		count++
	}
	if count == 0 {
		t.Fatal("probe returned no tuples")
	}
	// Roughly 20% of 400 tuples fall in [0, 2000) of [0, 10000).
	if count > 150 {
		t.Errorf("probe too large: %d", count)
	}
}

func TestProbeExploitsPriorWork(t *testing.T) {
	_, mgr, drv := fixture(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 3000"
	res1, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Enrichments == 0 {
		t.Fatal("first run must enrich")
	}
	// Second identical query: everything already enriched.
	res2, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Enrichments != 0 {
		t.Errorf("second run enriched %d tuples; prior work must be exploited", res2.Enrichments)
	}
	if res2.ProbeTuples != 0 {
		t.Errorf("probe must filter fully enriched tuples: %d", res2.ProbeTuples)
	}
	// Results identical across runs.
	if len(res1.Rows) != len(res2.Rows) {
		t.Errorf("result drift: %d vs %d rows", len(res1.Rows), len(res2.Rows))
	}
	_ = mgr
}

func TestProbeExploitsEnrichedNonMatches(t *testing.T) {
	d, mgr, drv := fixture(t)
	// Enrich everything for sentiment via a broad query...
	if _, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 0"); err != nil {
		t.Fatal(err)
	}
	// ...then a query on a different sentiment value: tuples whose
	// determined value ≠ 1 are filtered by the rewritten derived condition
	// even though they would not satisfy it.
	probes, err := GenerateProbes(analyze(t, d, "SELECT * FROM TweetData WHERE sentiment = 1"), d.DB, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes[0].TIDs) != 0 {
		t.Errorf("fully enriched relation should yield empty probe, got %d", len(probes[0].TIDs))
	}
}

func TestProbeSemiJoinReduction(t *testing.T) {
	d, mgr, _ := fixture(t)
	// Q7 shape: only tweets whose location joins a California city can
	// contribute; others need no enrichment.
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1"
	probes, err := GenerateProbes(analyze(t, d, q), d.DB, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tp *ProbeResult
	for i := range probes {
		if probes[i].Alias == "T1" {
			tp = &probes[i]
		}
	}
	if tp == nil {
		t.Fatal("no probe for T1")
	}
	tbl := d.DB.MustTable("TweetData")
	li := tbl.Schema().ColIndex("location")
	caCities := map[string]bool{"Irvine": true, "LosAngeles": true, "SanDiego": true, "SanFrancisco": true}
	for _, tid := range tp.TIDs {
		loc := tbl.Get(tid).Vals[li].Str()
		if !caCities[loc] {
			t.Fatalf("semi-join failed to filter tuple %d in %s", tid, loc)
		}
	}
	// Compare with the unreduced count: the semi-join must have dropped the
	// non-California majority (8 of 12 cities).
	if len(tp.TIDs) >= 400 {
		t.Errorf("no reduction: %d tuples", len(tp.TIDs))
	}
	if len(tp.TIDs) == 0 {
		t.Error("reduction removed everything")
	}
}

func TestProbeSemiJoinNonEquiCondition(t *testing.T) {
	// A fixed join condition that is not a plain equality forces the
	// nested-loop semi-join path.
	d, mgr, _ := fixture(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.TweetTime < S.id AND S.state = 'California' AND T1.sentiment = 1"
	probes, err := GenerateProbes(analyze(t, d, q), d.DB, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tp *ProbeResult
	for i := range probes {
		if probes[i].Alias == "T1" {
			tp = &probes[i]
		}
	}
	if tp == nil {
		t.Fatal("no probe for T1")
	}
	// Only tweets with TweetTime < max(California city id) can join; ids
	// are 1..12 with the four CA cities first (ids 1-4), so TweetTime < 4.
	tbl := d.DB.MustTable("TweetData")
	ti := tbl.Schema().ColIndex("TweetTime")
	for _, tid := range tp.TIDs {
		if tbl.Get(tid).Vals[ti].Int() >= 4 {
			t.Fatalf("non-equi semi-join kept tuple %d with TweetTime %d",
				tid, tbl.Get(tid).Vals[ti].Int())
		}
	}
}

func TestProbeOptionsDisableEverything(t *testing.T) {
	d, mgr, _ := fixture(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 2000"
	probes, err := GenerateProbesOpt(analyze(t, d, q), d.DB, mgr, nil, ProbeOptions{
		NoSelections: true, NoPriorWork: true, NoSemiJoins: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(probes[0].TIDs); got != d.DB.MustTable("TweetData").Len() {
		t.Errorf("all strategies disabled must return every tuple: %d", got)
	}
}

func TestLooseMatchesGroundQuery(t *testing.T) {
	d, _, drv := fixture(t)
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5"
	res, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// After the loose run, re-executing the plain query on the (now
	// enriched) DB must return exactly the same rows.
	a := analyze(t, d, q)
	plan, err := engine.Build(a, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(engine.NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Rows) {
		t.Errorf("loose result (%d rows) differs from post-enrichment re-execution (%d rows)",
			len(res.Rows), len(rows))
	}
	for _, r := range res.Rows {
		if r.Vals[4].IsNull() { // gender column
			t.Fatal("result rows must carry determined values")
		}
		if r.Vals[4].Int() != 1 {
			t.Fatal("result row violates predicate")
		}
	}
}

func TestLooseEnrichesOnlyNeededAttrs(t *testing.T) {
	d, mgr, drv := fixture(t)
	// Query touches only sentiment: topic must remain unenriched.
	if _, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 1000"); err != nil {
		t.Fatal(err)
	}
	st := mgr.StateTable("TweetData")
	tbl := d.DB.MustTable("TweetData")
	for _, tid := range tbl.IDs() {
		if s := st.Get(tid, "topic"); s != nil && s.Bitmap != 0 {
			t.Fatalf("topic of tuple %d was enriched by a sentiment-only query", tid)
		}
	}
}

func TestLooseAggregationQuery(t *testing.T) {
	_, _, drv := fixture(t)
	res, err := drv.Execute("SELECT topic, count(*) FROM TweetData WHERE TweetTime < 2500 GROUP BY topic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no groups")
	}
	total := int64(0)
	for _, r := range res.Rows {
		if r.Vals[0].IsNull() {
			t.Error("all in-range tuples should be enriched; no NULL group expected")
		}
		total += r.Vals[1].Int()
	}
	if res.Enrichments == 0 {
		t.Error("aggregation over derived attr must enrich")
	}
}

func TestBuildRequestsSkipsEnriched(t *testing.T) {
	d, mgr, drv := fixture(t)
	probes := []ProbeResult{{
		Alias: "TweetData", Relation: "TweetData", Attrs: []string{"sentiment"}, TIDs: []int64{1, 2, 3},
	}}
	reqs, err := drv.BuildRequests(probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("requests: %d", len(reqs))
	}
	// Enrich tuple 2 and rebuild: only 1 and 3 remain.
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	mgr.Execute("TweetData", 2, "sentiment", 0, tbl.Get(2).Vals[fi].Vector(), 0)
	reqs, _ = drv.BuildRequests(probes)
	ids := []int64{}
	for _, r := range reqs {
		ids = append(ids, r.TID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("requests after partial enrichment: %v", ids)
	}
}

// TestWriteBackAfterCommitRunsNothing: a commit that rewrites a tuple's
// fixed data between the enrichment batch and its write-back supersedes the
// image the outputs were computed from. The write-back drops the outputs as
// stale and settles the newer image, for which nothing ran: no function runs
// transiently for a value that could not land, and the new image stays NULL.
func TestWriteBackAfterCommitRunsNothing(t *testing.T) {
	d, mgr, drv := fixture(t)
	a := analyze(t, d, "SELECT tid FROM TweetData WHERE TweetTime < 300 AND sentiment = 1")
	probes, err := GenerateProbes(a, d.DB, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := drv.BuildRequests(probes)
	if err != nil || len(reqs) < 2 {
		t.Fatalf("requests %d err %v, want several", len(reqs), err)
	}
	resps, _, err := drv.Enricher.EnrichBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	tbl := d.DB.MustTable("TweetData")
	tid := reqs[0].TID
	mgr.ResetTuple("TweetData", tid, tbl.Gen(tid)+1)
	if _, err := tbl.CommitFixed(tid, "TweetTime", types.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	before := mgr.Counters()
	if err := drv.WriteBack(resps); err != nil {
		t.Fatal(err)
	}
	after := mgr.Counters()
	if got := after.ReExecutions - before.ReExecutions; got != 0 {
		t.Errorf("write-back re-ran %d functions for an image it cannot write", got)
	}
	if got := after.StaleDrops - before.StaleDrops; got != 1 {
		t.Errorf("stale drops = %d, want the superseded tuple's one output", got)
	}
	si := tbl.Schema().ColIndex("sentiment")
	if tu := tbl.Get(tid); !tu.Vals[si].IsNull() || tu.Enriched != 0 {
		t.Errorf("superseded write-back landed on the new image: %v, mark %b", tu.Vals[si], tu.Enriched)
	}
	for _, r := range reqs[1:] {
		if tbl.Get(r.TID).Vals[si].IsNull() {
			t.Fatalf("tuple %d of the batch was not written back", r.TID)
		}
	}
}

func TestDriverTimingPopulated(t *testing.T) {
	_, _, drv := fixture(t)
	res, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 1500")
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Probe <= 0 || res.Timing.Enrich <= 0 || res.Timing.DBMS <= 0 {
		t.Errorf("timing components: %+v", res.Timing)
	}
	if res.Timing.Network != 0 {
		t.Errorf("local enricher must report zero network time: %v", res.Timing.Network)
	}
	if res.Timing.Total() < res.Timing.Enrich {
		t.Error("total must include enrichment")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	_, _, drv := fixture(t)
	if _, err := drv.Execute("not sql"); err == nil {
		t.Error("bad query must fail")
	}
	if _, err := drv.Execute("SELECT * FROM Missing"); err == nil {
		t.Error("unknown relation must fail")
	}
}
