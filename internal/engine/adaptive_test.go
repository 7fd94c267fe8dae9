package engine

import (
	"strings"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// driftTable builds D(a, b) with n rows, a = b = i: selectivities of
// comparisons against a and b flip as the scan advances, which is what the
// adaptive filter's re-ranking has to catch.
func driftTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := catalog.MustSchema("D", []catalog.Column{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func driftPred(t *testing.T, rs *expr.RowSchema, aLT, bGE int64) expr.Expr {
	t.Helper()
	pred := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.NewCol("D", "a"), expr.NewConst(types.NewInt(aLT))),
		expr.NewCmp(expr.GE, expr.NewCol("D", "b"), expr.NewConst(types.NewInt(bGE))),
	)
	if err := pred.Resolve(rs); err != nil {
		t.Fatal(err)
	}
	return pred
}

// TestAdaptiveFilterEquivalence: the adaptive filter must produce
// byte-identical rows, in identical order, to the static path — across the
// row path, the vector path and the parallel pool path.
func TestAdaptiveFilterEquivalence(t *testing.T) {
	tbl := driftTable(t, 4096)
	run := func(adapt *stats.Store, noVec bool, workers int) []*expr.Row {
		scan := NewScan(tbl, "D")
		pred := driftPred(t, scan.Schema(), 3000, 1000)
		ctx := NewExecCtx()
		ctx.Adapt = adapt
		ctx.NoVector = noVec
		if workers > 1 {
			ctx.Pool = &testPool{workers: workers}
			ctx.ParallelMinRows = 16
		}
		out, err := NewFilter(scan, pred).Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := rowsFingerprint(run(nil, true, 1))
	if want == "" {
		t.Fatal("static filter produced no rows; test data broken")
	}
	for _, noVec := range []bool{false, true} {
		for _, w := range []int{1, 4} {
			if got := rowsFingerprint(run(stats.NewStore(), noVec, w)); got != want {
				t.Errorf("adaptive filter diverged from static (noVec=%v workers=%d)", noVec, w)
			}
		}
	}
	// A store pre-seeded by a previous run (so the initial order differs
	// from static) must still produce identical output.
	seeded := stats.NewStore()
	run(seeded, true, 1)
	if got := rowsFingerprint(run(seeded, true, 1)); got != want {
		t.Errorf("adaptive filter with seeded store diverged from static")
	}
}

// TestAdaptiveFilterDriftReorders: when the data's selectivity flips
// mid-scan, the adaptive filter must reorder its conjuncts — at least twice
// on this workload (once when the initially-ordered-first conjunct stops
// rejecting, once when it starts rejecting again) — and the reorders must
// surface on the engine.adaptive_reorders telemetry counter. Output stays
// byte-identical to the static order throughout.
func TestAdaptiveFilterDriftReorders(t *testing.T) {
	const n = 65536
	tbl := driftTable(t, n)

	static := NewExecCtx()
	static.NoVector = true
	scanS := NewScan(tbl, "D")
	outS, err := NewFilter(scanS, driftPred(t, scanS.Schema(), 40000, 8000)).Execute(static)
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewExecCtx()
	ctx.NoVector = true // force the row path; the vector path never reorders
	ctx.Adapt = stats.NewStore()
	scanA := NewScan(tbl, "D")
	outA, err := NewFilter(scanA, driftPred(t, scanA.Schema(), 40000, 8000)).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if rowsFingerprint(outA) != rowsFingerprint(outS) {
		t.Fatal("adaptive drift run diverged from static output")
	}
	// Rows 0..8k: `a < 40000` passes everything while `b >= 8000` rejects
	// everything → the first stride boundary must flip to b-first. Rows 40k+:
	// `a < 40000` becomes the strong rejector → a later boundary must flip
	// back. Both flips are rate-driven (the costs are near-identical int
	// comparisons), so they are deterministic on this data.
	if ctx.Stats.AdaptiveReorders < 2 {
		t.Errorf("AdaptiveReorders = %d, want >= 2 on drifting selectivity", ctx.Stats.AdaptiveReorders)
	}
	counters := make(map[string]int64)
	ctx.PublishStats(func(name string, delta int64) { counters[name] += delta })
	if counters["engine.adaptive_reorders"] == 0 {
		t.Errorf("engine.adaptive_reorders counter not published: %v", counters)
	}
	// The run's observations must have landed in the store.
	if _, ok := ctx.Adapt.PredicateSelectivity(`D.b >= 8000`); !ok {
		t.Errorf("conjunct selectivity not recorded; store:\n%s", ctx.Adapt.String())
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
	st.ObservePredicate("T1.TweetTime < 7", 1000, 3, 50)
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
	st.ObservePredicate("T1.TweetTime < 7", 1000, 250, 40)
	obs := AnnotatedExplain(plan, &CostModel{Store: st})
	if !strings.Contains(obs, "sel=0.250 observed") {
		t.Fatalf("observed selectivity not annotated:\n%s", obs)
	}
}
