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

// TestAdaptiveFilterObservesOncePerExecution: a filter reports its pass rate
// to the stats store exactly once per execution, whichever path ran — row or
// vector, or fused under a projection. Each run's store starts from the same
// prior (one evaluation, no pass), so the selectivity it ends with matches
// the prior plus one whole-execution observation only if there was exactly
// one: a second observation, or one per batch (the predicate passes only in
// the first batches), decays it to a different value. No conjunct and no
// operator gets an entry of its own.
func TestAdaptiveFilterObservesOncePerExecution(t *testing.T) {
	const n = 2500
	tbl := vectorTestTable(t, n)
	le := expr.NewCmp(expr.LE, expr.NewCol("V", "id"), expr.NewConst(types.NewInt(700)))
	ge := expr.NewCmp(expr.GE, expr.NewCol("V", "b"), expr.NewConst(types.NewInt(2)))
	pred := expr.NewAnd(le, ge)
	if err := pred.Resolve(NewScan(tbl, "V").Schema()); err != nil {
		t.Fatal(err)
	}
	key := predKey(pred)
	primed := func() *stats.Store {
		st := stats.NewStore()
		st.ObservePredicate(key, 1, 0)
		return st
	}
	run := func(noVector, project bool) (*stats.Store, int) {
		ctx := NewExecCtx()
		ctx.NoVector = noVector
		ctx.Adapt = primed()
		var plan Plan = NewFilter(NewScan(tbl, "V"), pred)
		if project {
			plan = NewProject(plan, []int{0, 1})
		}
		out, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Adapt, len(out)
	}
	_, rows := run(true, false)
	if rows == 0 || rows == n {
		t.Fatalf("filter kept %d of %d rows; test data broken", rows, n)
	}
	ref := primed()
	ref.ObservePredicate(key, n, int64(rows))
	want, _ := ref.PredicateSelectivity(key)
	for _, noVector := range []bool{false, true} {
		for _, project := range []bool{false, true} {
			st, _ := run(noVector, project)
			if got, ok := st.PredicateSelectivity(key); !ok || got != want {
				t.Errorf("noVector=%v project=%v left selectivity %v (ok=%v), want %v after one observation of %d/%d",
					noVector, project, got, ok, want, rows, n)
			}
			for _, k := range []string{predKey(le), predKey(ge)} {
				if sel, ok := st.PredicateSelectivity(k); ok {
					t.Errorf("noVector=%v project=%v: conjunct %q observed on its own (sel=%v)", noVector, project, k, sel)
				}
			}
			for _, k := range []string{key, predKey(le), predKey(ge)} {
				if _, _, ok := st.OpCardinality(k); ok {
					t.Errorf("noVector=%v project=%v: operator entry under %q", noVector, project, k)
				}
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
		t.Error("join cardinality not recorded")
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
