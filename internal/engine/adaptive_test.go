package engine

import (
	"fmt"
	"strings"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// TestAdaptiveFilterObservesOncePerExecution: a filter reports its pass rate
// to the stats store exactly once per execution, whichever path ran — row or
// vector, or fused under a projection. The predicate passes only in the
// first batches, so a per-batch observation would leave a different decayed
// selectivity.
func TestAdaptiveFilterObservesOncePerExecution(t *testing.T) {
	const n = 2500
	tbl := vectorTestTable(t, n)
	pred := expr.NewAnd(
		expr.NewCmp(expr.LE, expr.NewCol("V", "id"), expr.NewConst(types.NewInt(700))),
		expr.NewCmp(expr.GE, expr.NewCol("V", "b"), expr.NewConst(types.NewInt(2))))
	if err := pred.Resolve(NewScan(tbl, "V").Schema()); err != nil {
		t.Fatal(err)
	}
	run := func(noVector, project bool) (string, int) {
		ctx := NewExecCtx()
		ctx.NoVector = noVector
		ctx.Adapt = stats.NewStore()
		var plan Plan = NewFilter(NewScan(tbl, "V"), pred)
		if project {
			plan = NewProject(plan, []int{0, 1})
		}
		out, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Adapt.String(), len(out)
	}
	want, rows := run(true, false)
	if rows == 0 || rows == n {
		t.Fatalf("filter kept %d of %d rows; test data broken", rows, n)
	}
	if exact := fmt.Sprintf("pred %q sel=%.3f evals=%d\n", fmt.Sprint(pred), float64(rows)/n, n); want != exact {
		t.Fatalf("row path left store\n%s\nwant\n%s", want, exact)
	}
	for _, noVector := range []bool{false, true} {
		for _, project := range []bool{false, true} {
			if got, _ := run(noVector, project); got != want {
				t.Errorf("noVector=%v project=%v left store\n%s\nwant\n%s",
					noVector, project, got, want)
			}
		}
	}
}

// TestAdaptiveFilterEquivalence: attaching a stats store never changes a
// filter's output — rows are byte-identical, in identical order, to the
// store-less row path on the row path and the vector path, and stay so when
// the store already holds a previous run's observations.
func TestAdaptiveFilterEquivalence(t *testing.T) {
	tbl := vectorTestTable(t, 2500)
	pred := expr.NewAnd(
		expr.NewCmp(expr.LE, expr.NewCol("V", "id"), expr.NewConst(types.NewInt(1800))),
		expr.NewCmp(expr.GE, expr.NewCol("V", "b"), expr.NewConst(types.NewInt(2))))
	if err := pred.Resolve(NewScan(tbl, "V").Schema()); err != nil {
		t.Fatal(err)
	}
	run := func(adapt *stats.Store, noVector bool) []*expr.Row {
		ctx := NewExecCtx()
		ctx.Adapt = adapt
		ctx.NoVector = noVector
		out, err := NewFilter(NewScan(tbl, "V"), pred).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := rowsFingerprint(run(nil, true))
	if want == "" {
		t.Fatal("store-less filter produced no rows; test data broken")
	}
	for _, noVector := range []bool{false, true} {
		if got := rowsFingerprint(run(stats.NewStore(), noVector)); got != want {
			t.Errorf("filter with a stats store diverged (noVector=%v)", noVector)
		}
	}
	seeded := stats.NewStore()
	run(seeded, true)
	if got := rowsFingerprint(run(seeded, false)); got != want {
		t.Errorf("filter with a seeded stats store diverged")
	}
}

// TestAdaptiveBuildSwap: a hash join with a much smaller left input must
// build on the left under adaptivity — and emit rows byte-identically, in
// identical order, to the default build-right path.
func TestAdaptiveBuildSwap(t *testing.T) {
	ls := catalog.MustSchema("L", []catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}})
	rs := catalog.MustSchema("Rt", []catalog.Column{{Name: "k", Kind: types.KindInt}})
	lt, rt := storage.NewTable(ls), storage.NewTable(rs)
	for i := 0; i < 40; i++ {
		if _, err := lt.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i % 7)), types.NewInt(int64(i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		v := types.NewInt(int64(i % 11))
		if i%97 == 0 {
			v = types.Null // NULL keys never match, on either build side
		}
		if _, err := rt.Insert(&types.Tuple{Vals: []types.Value{v}}); err != nil {
			t.Fatal(err)
		}
	}
	mkJoin := func() *Join {
		j := NewJoin(NewScan(lt, "L"), NewScan(rt, "Rt"))
		j.HashKeysL = []int{0}
		j.HashKeysR = []int{2}
		return j
	}
	want, err := mkJoin().Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx()
	ctx.Adapt = stats.NewStore()
	got, err := mkJoin().Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.AdaptiveBuildSwaps == 0 {
		t.Fatal("40x1000 hash join did not swap its build side")
	}
	if rowsFingerprint(got) != rowsFingerprint(want) {
		t.Fatal("swapped-build hash join diverged from default emission order")
	}
	// The join's observed cardinality must be in the store for the planner.
	if _, _, ok := ctx.Adapt.OpCardinality(mkJoin().opKey()); !ok {
		t.Errorf("join cardinality not recorded; store:\n%s", ctx.Adapt.String())
	}
}

// TestAdaptiveJoinOrderCountInvariant: cost-based join ordering only fires
// for order-insensitive aggregate outputs, and must not change them.
func TestAdaptiveJoinOrderCountInvariant(t *testing.T) {
	db := testDB(t)
	q := "SELECT COUNT(*) FROM TweetData T1, State S WHERE T1.location = S.city AND T1.TweetTime < 7"
	a, err := Analyze(sqlparser.MustParse(q), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !orderInsensitiveOutput(a) {
		t.Fatal("COUNT query should be eligible for cost-based join ordering")
	}
	static, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.NewStore()
	// Seed the store with a selectivity making T1 look tiny, so the
	// cost-based order has a reason to differ from the static one.
	st.ObservePredicate("T1.TweetTime < 7", 1000, 3)
	adaptive, err := BuildOpt(a, db, BuildOptions{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := static.Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx()
	ctx.Adapt = st
	r2, err := adaptive.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rowsFingerprint(r1) != rowsFingerprint(r2) {
		t.Fatalf("cost-based join order changed a COUNT result:\n%s\nvs\n%s",
			static.Explain(""), adaptive.Explain(""))
	}
}

// TestAdaptiveJoinOrderLearnsFromLeafFilter: cost-based join ordering reads
// the pass rate the alias's leaf filter observed on the vector path. The
// heuristic guesses T1's two range conjuncts keep a ninth of its 9 rows, so
// T1 (est. 1 row) starts ahead of State (3 rows); once a run has observed
// that every T1 row passes, State starts.
func TestAdaptiveJoinOrderLearnsFromLeafFilter(t *testing.T) {
	db := testDB(t)
	q := "SELECT COUNT(*) FROM TweetData T1, State S WHERE T1.location = S.city AND T1.TweetTime > 0 AND T1.tid > 0"
	a, err := Analyze(sqlparser.MustParse(q), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	st := stats.NewStore()
	opts := BuildOptions{Stats: st}
	if got := fmt.Sprint(orderTablesCost(a, db, opts)); got != "[0 1]" {
		t.Fatalf("heuristic order = %s, want [0 1]", got)
	}
	plan, err := BuildOpt(a, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx()
	ctx.Adapt = st
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(orderTablesCost(a, db, opts)); got != "[1 0]" {
		t.Errorf("order after one run = %s, want [1 0]; store:\n%s", got, st)
	}
}

// TestAdaptiveOffIsStatic: a non-aggregate query must never be reordered even
// with a store attached (no store is Build itself, the static plan).
func TestAdaptiveOffIsStatic(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND T1.TweetTime < 7"
	a, err := Analyze(sqlparser.MustParse(q), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	on, err := BuildOpt(a, db, BuildOptions{Stats: stats.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if on.Explain("") != want.Explain("") {
		t.Errorf("order-sensitive query was reordered under adaptivity: %q", q)
	}
}

// TestAnnotatedExplain: the plan-only EXPLAIN must render every node with
// estimate annotations, tag selectivities as observed once the store has
// seen the predicate, and never execute anything.
func TestAnnotatedExplain(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND T1.TweetTime < 7"
	a, err := Analyze(sqlparser.MustParse(q), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	heur := AnnotatedExplain(plan, nil)
	if !strings.Contains(heur, "est_rows=") || !strings.Contains(heur, "est_cost=") {
		t.Fatalf("missing estimate annotations:\n%s", heur)
	}
	if !strings.Contains(heur, "heuristic") {
		t.Fatalf("unseen predicate should be tagged heuristic:\n%s", heur)
	}
	st := stats.NewStore()
	st.ObservePredicate("T1.TweetTime < 7", 1000, 250)
	obs := AnnotatedExplain(plan, &CostModel{Store: st})
	if !strings.Contains(obs, "sel=0.250 observed") {
		t.Fatalf("observed selectivity not annotated:\n%s", obs)
	}
}
