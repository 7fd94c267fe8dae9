package tight

import (
	"sort"
	"strings"
	"testing"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/sqlparser"
)

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

// looseFixture builds an identical dataset for loose-vs-tight comparisons.
func looseFixture(t *testing.T) (*dataset.Data, *loose.Driver) {
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
	return d, loose.NewDriver(d.DB, mgr)
}

func TestRewriteSelectionShape(t *testing.T) {
	d, _, _ := fixture(t)
	a, err := engine.Analyze(
		sqlparser.MustParse("SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5"),
		d.DB.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RewriteAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	var derivedCond string
	for _, c := range rw.Sel["MultiPie"] {
		if c.Derived {
			derivedCond = c.E.String()
		} else if strings.Contains(c.E.String(), "read_udf") {
			t.Errorf("fixed condition must not be rewritten: %s", c.E)
		}
	}
	for _, want := range []string{"CheckState", "GetValue", "read_udf", "OR"} {
		if !strings.Contains(derivedCond, want) {
			t.Errorf("rewritten condition missing %s:\n%s", want, derivedCond)
		}
	}
	// Two cases for a single derived ref.
	or, ok := expr.ToCNF(rw.Sel["MultiPie"][findDerived(rw.Sel["MultiPie"])].E).(expr.Expr)
	_ = or
	_ = ok
}

func findDerived(conds []engine.SelCond) int {
	for i, c := range conds {
		if c.Derived {
			return i
		}
	}
	return -1
}

func TestRewriteJoinShape(t *testing.T) {
	d, _, _ := fixture(t)
	a, err := engine.Analyze(
		sqlparser.MustParse("SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment"),
		d.DB.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RewriteAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Joins) != 1 {
		t.Fatalf("joins: %d", len(rw.Joins))
	}
	cond := rw.Joins[0].E
	or, ok := cond.(*expr.Or)
	if !ok {
		t.Fatalf("rewritten join is not a disjunction: %s", cond)
	}
	// Four cases: (both enriched), (one), (other), (neither) — §2.2.
	if len(or.Kids) != 4 {
		t.Errorf("rewritten join has %d cases, want 4:\n%s", len(or.Kids), cond)
	}
	s := cond.String()
	if !strings.Contains(s, "read_udf(T1, T1.sentiment)") || !strings.Contains(s, "read_udf(T2, T2.sentiment)") {
		t.Errorf("both sides must appear as read_udf:\n%s", s)
	}
}

func TestRewriteDoesNotMutateInput(t *testing.T) {
	d, _, _ := fixture(t)
	a, _ := engine.Analyze(
		sqlparser.MustParse("SELECT * FROM MultiPie WHERE gender = 1"), d.DB.Catalog())
	before := a.Sel["MultiPie"][0].E.String()
	if _, err := RewriteAnalysis(a); err != nil {
		t.Fatal(err)
	}
	if got := a.Sel["MultiPie"][0].E.String(); got != before {
		t.Errorf("input analysis mutated: %s -> %s", before, got)
	}
}

func TestTightLazyEnrichmentSavesOnConjunction(t *testing.T) {
	// Q2 shape: gender = 1 AND expression = 2. The tight design must enrich
	// expression only for tuples whose gender matched; the loose design
	// enriches both attributes for every probe tuple.
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8"
	_, _, tdrv := fixture(t)
	tres, err := tdrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	_, ldrv := looseFixture(t)
	lres, err := ldrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Enrichments >= lres.Enrichments {
		t.Errorf("tight (%d) must enrich fewer than loose (%d) on conjunctive derived predicates",
			tres.Enrichments, lres.Enrichments)
	}
	// Roughly half the tuples have gender=1, so tight should save roughly a
	// quarter of the total; allow slack for classifier noise.
	if float64(tres.Enrichments) > 0.9*float64(lres.Enrichments) {
		t.Errorf("savings too small: tight=%d loose=%d", tres.Enrichments, lres.Enrichments)
	}
}

func TestTightEqualsLooseOnSinglePredicate(t *testing.T) {
	// Q1/Q7/Q9 behavior: one derived predicate — both designs enrich the
	// same tuples.
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5"
	_, _, tdrv := fixture(t)
	tres, err := tdrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	_, ldrv := looseFixture(t)
	lres, err := ldrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Enrichments != lres.Enrichments {
		t.Errorf("single-predicate enrichments differ: tight=%d loose=%d",
			tres.Enrichments, lres.Enrichments)
	}
}

func TestTightAndLooseSameAnswers(t *testing.T) {
	// Identical data and models: the two designs must produce identical
	// final answers (they execute the same enrichment functions).
	queries := []string{
		"SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5",
		"SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8",
		"SELECT * FROM TweetData WHERE topic <= 1 AND sentiment = 1 AND TweetTime < 5000",
		"SELECT topic, count(*) FROM TweetData WHERE TweetTime < 3000 GROUP BY topic",
	}
	for _, q := range queries {
		_, _, tdrv := fixture(t)
		tres, err := tdrv.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		_, ldrv := looseFixture(t)
		lres, err := ldrv.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !sameRows(tres.Rows, lres.Rows) {
			t.Errorf("answers differ for %s: tight=%d rows loose=%d rows", q, len(tres.Rows), len(lres.Rows))
		}
	}
}

func sameRows(a, b []*expr.Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r *expr.Row) string {
		s := ""
		for _, v := range r.Vals {
			s += v.Key() + "|"
		}
		return s
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func TestTightJoinForcedNestedLoop(t *testing.T) {
	// Q8 effect: the rewritten derived join condition contains UDFs and
	// disjunctions, so the optimizer cannot use a hash join.
	q := "SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.TweetTime < 500 AND T2.TweetTime < 500"
	_, _, drv := fixture(t)
	a, err := engine.AnalyzeSQL(q, drv.DB.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := drv.Plan(a)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rewritten.Explain(""); !strings.Contains(ex, "NestedLoopJoin") {
		t.Errorf("rewritten join must be nested loop:\n%s", ex)
	}
	// The same query unrewritten would hash join.
	d, _, _ := fixture(t)
	a, _ = engine.Analyze(sqlparser.MustParse(q), d.DB.Catalog())
	plan, _ := engine.Build(a, d.DB)
	if !strings.Contains(plan.Explain(""), "HashJoin") {
		t.Error("control: unrewritten join should hash join")
	}
}

func TestTightSecondRunUsesGetValue(t *testing.T) {
	_, mgr, drv := fixture(t)
	q := "SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5"
	res1, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Enrichments != 0 {
		t.Errorf("second run enriched %d; state must be reused", res2.Enrichments)
	}
	if res2.UDFInvocations == 0 {
		t.Error("second run still pays UDF invocation overhead (CheckState/GetValue)")
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Errorf("results differ across runs: %d vs %d", len(res1.Rows), len(res2.Rows))
	}
	c := mgr.Counters()
	if c.Skipped != 0 {
		t.Errorf("CheckState should route enriched tuples to GetValue, not into skipped executes: %d", c.Skipped)
	}
}

// TestGetValueWritesBackAndMarks: an image whose whole family ran but whose
// value never reached the table (a peer between its last function run and
// its write-back) is answered by get_value through the manager's write-back,
// which stores the value on the image and marks it, as loose's
// BuildRequests does, without running any function again.
func TestGetValueWritesBackAndMarks(t *testing.T) {
	d, mgr, _ := fixture(t)
	tbl := d.DB.MustTable("MultiPie")
	tu := tbl.Get(3)
	feature, err := tbl.Schema().Feature(tu, "gender")
	if err != nil {
		t.Fatal(err)
	}
	fam := mgr.Family("MultiPie", "gender")
	for _, fn := range fam.Functions {
		if _, _, err := mgr.Execute("MultiPie", 3, "gender", fn.ID, feature, tu.Gen); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime(d.DB, mgr)
	if done, err := rt.CheckState("MultiPie", 3, "gender"); err != nil || !done {
		t.Fatalf("CheckState = %v, %v; want done", done, err)
	}
	v, err := rt.GetValue("MultiPie", 3, "gender")
	if err != nil || v.IsNull() {
		t.Fatalf("GetValue = %v, %v", v, err)
	}
	s := tbl.Schema()
	got := tbl.Get(3)
	if gv := got.Vals[s.ColIndex("gender")]; gv.IsNull() || gv.Int() != v.Int() || got.Enriched&s.MarkBit("gender") == 0 {
		t.Errorf("image after GetValue: %v, mark %b; want %v, marked", gv, got.Enriched, v)
	}
	if got := mgr.Counters().Enrichments; got != int64(len(fam.Functions)) {
		t.Errorf("enrichments = %d, want only the family's %d", got, len(fam.Functions))
	}
}

func TestTightJoinLazyPairEnrichment(t *testing.T) {
	// Q4 shape: two derived join conditions. Pairs failing the sentiment
	// condition must not enrich topic for... both tuples are enriched for
	// sentiment on first touch; topic enrichment only happens for pairs
	// whose sentiments matched. With 3 sentiment classes roughly 1/3 of
	// pairs match, so some tuples never get topic-enriched only if they
	// match nothing — rare. The robust assertion: tight never enriches
	// MORE than loose.
	q := "SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic AND T1.TweetTime < 1200 AND T2.TweetTime < 1200"
	_, _, tdrv := fixture(t)
	tres, err := tdrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	_, ldrv := looseFixture(t)
	lres, err := ldrv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Enrichments > lres.Enrichments {
		t.Errorf("tight (%d) must never enrich more than loose (%d)", tres.Enrichments, lres.Enrichments)
	}
	if !sameRows(tres.Rows, lres.Rows) {
		t.Errorf("join answers differ: %d vs %d rows", len(tres.Rows), len(lres.Rows))
	}
}

func TestRuntimeGuards(t *testing.T) {
	d, mgr, _ := fixture(t)
	rt := NewRuntime(d.DB, mgr)
	if _, err := rt.ReadUDF("TweetData", 1, "nope"); err == nil {
		t.Error("unknown attr must fail")
	}
	// A tuple missing at evaluation time means a committed delete raced the
	// query: the UDFs degrade to NULL (the predicate drops the row) rather
	// than aborting the whole query.
	if v, err := rt.ReadUDF("TweetData", 99999, "sentiment"); err != nil || !v.IsNull() {
		t.Errorf("deleted-tuple ReadUDF = %v, %v; want NULL, nil", v, err)
	}
	if enriched, err := rt.CheckState("TweetData", 99999, "sentiment"); err != nil || !enriched {
		t.Errorf("deleted-tuple CheckState = %v, %v; want true, nil", enriched, err)
	}
	if v, err := rt.GetValue("TweetData", 99999, "sentiment"); err != nil || !v.IsNull() {
		t.Errorf("deleted-tuple GetValue = %v, %v; want NULL, nil", v, err)
	}
	if _, err := rt.CheckState("TweetData", 1, "nope"); err == nil {
		t.Error("unknown attr must fail")
	}
	v, err := rt.GetValue("TweetData", 1, "sentiment")
	if err != nil || !v.IsNull() {
		t.Errorf("unenriched GetValue = %v, %v", v, err)
	}
}

func TestRewriteConjunctGuards(t *testing.T) {
	if _, err := rewriteConjunct(expr.TruePred{}, nil); err == nil {
		t.Error("no derived refs must fail")
	}
	refs := make([]expr.DerivedRef, 9)
	for i := range refs {
		refs[i] = expr.DerivedRef{Alias: "T", Attr: string(rune('a' + i))}
	}
	if _, err := rewriteConjunct(expr.TruePred{}, refs); err == nil {
		t.Error("too many refs must fail")
	}
}
