package engine

import (
	"fmt"
	"strings"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// testDB builds a small database in the shape of the paper's datasets, with
// derived attributes pre-filled (the engine under test here is the plain
// relational substrate; enrichment is layered on elsewhere).
func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()

	pie := catalog.MustSchema("MultiPie", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "feature", Kind: types.KindVector},
		{Name: "CameraID", Kind: types.KindInt},
		{Name: "gender", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 2},
		{Name: "expression", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 5},
	})
	pt, err := db.CreateTable(pie)
	if err != nil {
		t.Fatal(err)
	}
	// 12 images: gender alternates 0/1, expression cycles 0..4, camera cycles 0..3.
	for i := int64(1); i <= 12; i++ {
		_, err := pt.Insert(&types.Tuple{ID: i, Vals: []types.Value{
			types.NewInt(i),
			types.NewVector([]float64{float64(i)}),
			types.NewInt(i % 4),
			types.NewInt(i % 2),
			types.NewInt(i % 5),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}

	state := catalog.MustSchema("State", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "city", Kind: types.KindString},
		{Name: "state", Kind: types.KindString},
	})
	st, err := db.CreateTable(state)
	if err != nil {
		t.Fatal(err)
	}
	cities := []struct{ c, s string }{
		{"Irvine", "California"}, {"LA", "California"}, {"Austin", "Texas"},
	}
	for i, cs := range cities {
		st.Insert(&types.Tuple{ID: int64(i + 1), Vals: []types.Value{
			types.NewInt(int64(i + 1)), types.NewString(cs.c), types.NewString(cs.s),
		}})
	}

	tweets := catalog.MustSchema("TweetData", []catalog.Column{
		{Name: "tid", Kind: types.KindInt},
		{Name: "feature", Kind: types.KindVector},
		{Name: "location", Kind: types.KindString},
		{Name: "TweetTime", Kind: types.KindInt},
		{Name: "sentiment", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 3},
		{Name: "topic", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: 4},
	})
	tt, err := db.CreateTable(tweets)
	if err != nil {
		t.Fatal(err)
	}
	locs := []string{"Irvine", "LA", "Austin"}
	for i := int64(1); i <= 9; i++ {
		tt.Insert(&types.Tuple{ID: i, Vals: []types.Value{
			types.NewInt(i),
			types.NewVector([]float64{float64(i)}),
			types.NewString(locs[i%3]),
			types.NewInt(i),
			types.NewInt(i % 3),
			types.NewInt(i % 4),
		}})
	}
	return db
}

// setDerived writes v into derived column col of tuple id through the
// enrichment write-back, unmarked.
func setDerived(t *testing.T, tt *storage.Table, id int64, col string, v types.Value) {
	t.Helper()
	if ok, err := tt.WriteDerived(id, col, v, tt.Gen(id), false); err != nil || !ok {
		t.Fatalf("WriteDerived(%d, %s): ok=%v err=%v", id, col, ok, err)
	}
}

func runQuery(t *testing.T, db *storage.DB, q string) []*expr.Row {
	t.Helper()
	stmt := sqlparser.MustParse(q)
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatalf("Analyze(%s): %v", q, err)
	}
	plan, err := Build(a, db)
	if err != nil {
		t.Fatalf("Build(%s): %v", q, err)
	}
	rows, err := plan.Execute(NewExecCtx())
	if err != nil {
		t.Fatalf("Execute(%s): %v", q, err)
	}
	return rows
}

func TestSelectionQuery(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db, "SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 2")
	// gender=1: odd ids; CameraID = id%4 < 2: id%4 in {0,1} → ids 1,5,9 (camera 1,1,1); id%4==0 is even.
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Vals[3].Int() != 1 || r.Vals[2].Int() >= 2 {
			t.Errorf("row violates predicate: %v", r.Vals)
		}
	}
}

func TestProjection(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db, "SELECT city FROM State WHERE state = 'California'")
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Vals) != 1 || r.Vals[0].Kind() != types.KindString {
			t.Errorf("projected row: %v", r.Vals)
		}
	}
}

func TestJoinQueryUsesHashJoin(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse(
		"SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California'")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(""), "HashJoin") {
		t.Errorf("plain equi-join should use hash join:\n%s", plan.Explain(""))
	}
	ctx := NewExecCtx()
	rows, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// locations cycle Irvine,LA,Austin; Austin rows (ids 3,6,9) drop out.
	if len(rows) != 6 {
		t.Errorf("got %d rows, want 6", len(rows))
	}
	if ctx.Stats.HashJoins != 1 || ctx.Stats.NLJoins != 0 {
		t.Errorf("stats: %+v", ctx.Stats)
	}
}

func TestJoinWithDisjunctionUsesNL(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse(
		"SELECT * FROM TweetData T1, State S WHERE T1.location = S.city OR S.state = 'Texas'")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(""), "NestedLoopJoin") {
		t.Errorf("disjunctive join must use nested loop:\n%s", plan.Explain(""))
	}
}

func TestSelfJoin(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db,
		"SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic")
	// Verify against a brute-force count.
	want := 0
	type st struct{ s, tp int64 }
	var all []st
	for i := int64(1); i <= 9; i++ {
		all = append(all, st{i % 3, i % 4})
	}
	for _, a := range all {
		for _, b := range all {
			if a == b {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Errorf("self join rows = %d want %d", len(rows), want)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db,
		"SELECT * FROM TweetData T1, TweetData T2, State S WHERE T1.topic = T2.topic AND T1.location = S.city AND S.state = 'California'")
	want := 0
	locs := []string{"Irvine", "LA", "Austin"}
	for i := int64(1); i <= 9; i++ {
		for j := int64(1); j <= 9; j++ {
			if i%4 == j%4 && locs[i%3] != "Austin" {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Errorf("3-way join rows = %d want %d", len(rows), want)
	}
}

func TestAggregationQuery(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db,
		"SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN 1 AND 9 GROUP BY topic")
	if len(rows) != 4 {
		t.Fatalf("got %d groups, want 4", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r.Vals[1].Int()
	}
	if total != 9 {
		t.Errorf("counts sum to %d, want 9", total)
	}
}

// TestAggregateIgnoresNulls: COUNT(*) counts rows, so a NULL value in one of
// them neither drops the row nor changes the count.
func TestAggregateIgnoresNulls(t *testing.T) {
	db := testDB(t)
	setDerived(t, db.MustTable("TweetData"), 1, "sentiment", types.Null)
	rows := runQuery(t, db, "SELECT count(*) FROM TweetData")
	if rows[0].Vals[0].Int() != 9 {
		t.Errorf("NULL handling: %v", rows[0].Vals)
	}
}

func TestGroupByTreatsNullAsGroup(t *testing.T) {
	db := testDB(t)
	tt := db.MustTable("TweetData")
	setDerived(t, tt, 1, "topic", types.Null)
	setDerived(t, tt, 2, "topic", types.Null)
	rows := runQuery(t, db, "SELECT topic, count(*) FROM TweetData GROUP BY topic")
	nullGroups := 0
	for _, r := range rows {
		if r.Vals[0].IsNull() {
			nullGroups++
			if r.Vals[1].Int() != 2 {
				t.Errorf("NULL group count = %v", r.Vals[1])
			}
		}
	}
	if nullGroups != 1 {
		t.Errorf("NULL groups = %d, want 1", nullGroups)
	}
}

func TestNullDerivedDropsRow(t *testing.T) {
	db := testDB(t)
	tt := db.MustTable("TweetData")
	setDerived(t, tt, 1, "sentiment", types.Null)
	rows := runQuery(t, db, "SELECT * FROM TweetData WHERE sentiment = 1")
	// sentiment = id%3 = 1 for ids 1,4,7, but id 1 is now NULL → Unknown → dropped.
	if len(rows) != 2 {
		t.Errorf("got %d rows, want 2 (NULL must not match)", len(rows))
	}
}

func TestAggregateReorderedSelectList(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db, "SELECT count(*), topic FROM TweetData GROUP BY topic")
	if len(rows) != 4 {
		t.Fatalf("groups: %d", len(rows))
	}
	if rows[0].Vals[0].Kind() != types.KindInt || len(rows[0].Vals) != 2 {
		t.Errorf("row shape: %v", rows[0].Vals)
	}
	// First column must be the count (9 total across groups).
	total := int64(0)
	for _, r := range rows {
		total += r.Vals[0].Int()
	}
	if total != 9 {
		t.Errorf("reordered counts sum = %d", total)
	}
}

func TestAnalyzeClassification(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse(
		"SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.TweetTime = T2.TweetTime AND T1.location = 'LA' AND T1.topic = 2")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Joins) != 2 {
		t.Fatalf("joins: %d", len(a.Joins))
	}
	var derivedJoins, fixedJoins int
	for _, j := range a.Joins {
		if j.Derived {
			derivedJoins++
		} else {
			fixedJoins++
		}
	}
	if derivedJoins != 1 || fixedJoins != 1 {
		t.Errorf("join classification: derived=%d fixed=%d", derivedJoins, fixedJoins)
	}
	sel := a.Sel["T1"]
	if len(sel) != 2 {
		t.Fatalf("T1 selections: %d", len(sel))
	}
	if sel[0].Derived || !sel[1].Derived {
		t.Errorf("selection classification: %+v", sel)
	}
	attrs := a.DerivedAttrsOf("T1")
	// Selection-referenced attributes come before join-referenced ones.
	if len(attrs) != 2 || attrs[0] != "topic" || attrs[1] != "sentiment" {
		t.Errorf("DerivedAttrsOf(T1) = %v", attrs)
	}
	attrs2 := a.DerivedAttrsOf("T2")
	if len(attrs2) != 1 || attrs2[0] != "sentiment" {
		t.Errorf("DerivedAttrsOf(T2) = %v", attrs2)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT * FROM Nope",
		"SELECT * FROM TweetData T1, TweetData T1",
		"SELECT * FROM TweetData WHERE nope = 1",
		"SELECT * FROM TweetData T1, MultiPie M WHERE id = 1", // id ambiguous? tid vs id: MultiPie id unique
		"SELECT * FROM TweetData WHERE Bad.col = 1",
	}
	for _, q := range bad[:3] {
		stmt := sqlparser.MustParse(q)
		if _, err := Analyze(stmt, db.Catalog()); err == nil {
			t.Errorf("Analyze(%q) must fail", q)
		}
	}
	stmt := sqlparser.MustParse(bad[4])
	if _, err := Analyze(stmt, db.Catalog()); err == nil {
		t.Errorf("Analyze(%q) must fail", bad[4])
	}
	// Ambiguity: feature exists in both TweetData and MultiPie.
	stmt = sqlparser.MustParse("SELECT * FROM TweetData T1, MultiPie M WHERE feature IS NULL")
	if _, err := Analyze(stmt, db.Catalog()); err == nil {
		t.Error("ambiguous column must fail")
	}
}

func TestGroupByValidation(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse("SELECT location, count(*) FROM TweetData GROUP BY topic")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a, db); err == nil {
		t.Error("non-grouped plain column must be rejected")
	}
}

func TestFixedConjunctsOrderedFirst(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse("SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 2")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	pred, pulled := splitSelPred(a, "MultiPie", false, false)
	if len(pulled) != 0 {
		t.Fatalf("single-table query must not pull conjuncts: %v", pulled)
	}
	and, ok := pred.(*expr.And)
	if !ok {
		t.Fatalf("pred: %s", pred)
	}
	if !strings.Contains(and.Kids[0].String(), "CameraID") {
		t.Errorf("fixed conjunct must come first: %s", pred)
	}
}

func TestUDFConjunctsPulledAboveJoins(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse(
		"SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND T1.sentiment = 1")
	a, err := Analyze(stmt, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the derived conjunct with a UDF, as the tight rewrite would.
	for i, c := range a.Sel["T1"] {
		if c.Derived {
			a.Sel["T1"][i].E = expr.NewCmp(expr.EQ,
				expr.NewUDFCall(expr.UDFReadUDF, "T1", "sentiment"),
				expr.NewConst(types.NewInt(1)))
		}
	}
	plan, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain("")
	// The UDF filter must sit above the join, not below it.
	udfIdx := strings.Index(ex, "read_udf")
	joinIdx := strings.Index(ex, "Join")
	if udfIdx < 0 || joinIdx < 0 || udfIdx > joinIdx {
		t.Errorf("UDF predicate must be above the join:\n%s", ex)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := testDB(t)
	tt := db.MustTable("TweetData")
	// NULL out two tuples' sentiment: NULL = NULL must NOT join.
	setDerived(t, tt, 1, "sentiment", types.Null)
	setDerived(t, tt, 2, "sentiment", types.Null)
	rows := runQuery(t, db,
		"SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment")
	for _, r := range rows {
		if r.Vals[4].IsNull() {
			t.Fatalf("NULL key matched in hash join: %v", r.Vals)
		}
	}
	// Brute-force expected count over the 7 non-NULL tuples.
	want := 0
	for i := int64(3); i <= 9; i++ {
		for j := int64(3); j <= 9; j++ {
			if i%3 == j%3 {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Errorf("rows = %d want %d", len(rows), want)
	}
}

func TestCrossProduct(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db, "SELECT * FROM State S1, State S2")
	if len(rows) != 9 {
		t.Errorf("cross product = %d rows, want 9", len(rows))
	}
}

func TestConstPredicate(t *testing.T) {
	db := testDB(t)
	rows := runQuery(t, db, "SELECT * FROM State WHERE 1 = 2")
	if len(rows) != 0 {
		t.Errorf("false constant predicate must produce no rows: %d", len(rows))
	}
	rows = runQuery(t, db, "SELECT * FROM State WHERE 1 = 1")
	if len(rows) != 3 {
		t.Errorf("true constant predicate: %d rows", len(rows))
	}
}

func TestExplainRendersTree(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse("SELECT topic, count(*) FROM TweetData WHERE TweetTime < 5 GROUP BY topic")
	a, _ := Analyze(stmt, db.Catalog())
	plan, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain("")
	for _, want := range []string{"Aggregate", "Filter", "Scan TweetData"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

func TestRowsScannedStat(t *testing.T) {
	db := testDB(t)
	stmt := sqlparser.MustParse("SELECT * FROM TweetData")
	a, _ := Analyze(stmt, db.Catalog())
	plan, _ := Build(a, db)
	ctx := NewExecCtx()
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.RowsScanned != 9 {
		t.Errorf("RowsScanned = %d", ctx.Stats.RowsScanned)
	}
}

func TestQueryTemplatesOfPaperParseAndBuild(t *testing.T) {
	db := testDB(t)
	// Shapes of Q1–Q9 (Table 6), over the test schemas.
	queries := []string{
		"SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 3",
		"SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 3",
		"SELECT * FROM TweetData WHERE topic <= 2 AND sentiment = 1 AND TweetTime BETWEEN 1 AND 9",
		"SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic AND T1.TweetTime BETWEEN 1 AND 9",
		"SELECT * FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.CameraID < 3 AND M2.CameraID < 3",
		"SELECT * FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.expression = M2.expression AND M1.CameraID < 3 AND M2.CameraID < 3",
		"SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1 AND T1.TweetTime BETWEEN 1 AND 9",
		"SELECT * FROM TweetData T1, TweetData T2, State S WHERE T1.topic = T2.topic AND T1.location = S.city AND S.state = 'California' AND T1.TweetTime BETWEEN 1 AND 9",
		"SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN 1 AND 9 GROUP BY topic",
	}
	for i, q := range queries {
		rows := runQuery(t, db, q)
		_ = rows
		t.Logf("Q%d: %d rows", i+1, len(rows))
	}
}

func ExampleScan() {
	db := storage.NewDB()
	s := catalog.MustSchema("R", []catalog.Column{{Name: "x", Kind: types.KindInt}})
	tb, _ := db.CreateTable(s)
	tb.Insert(&types.Tuple{Vals: []types.Value{types.NewInt(42)}})
	plan := NewScan(tb, "R")
	rows, _ := plan.Execute(NewExecCtx())
	fmt.Println(len(rows), rows[0].Vals[0])
	// Output: 1 42
}
