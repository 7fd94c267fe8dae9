package ivm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// testDB mirrors the engine tests' fixture: tweets with derived sentiment and
// topic, a city/state lookup table.
func testDB(t *testing.T) *storage.DB {
	t.Helper()
	return testDBInOrder(t, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []int{0, 1, 2})
}

// testDBInOrder is testDB with the tweets inserted in the order of tweetIDs
// (a permutation of 1..12) and the cities in the order of cityOrder (of
// 0..2), so scan order and tuple-id order can differ.
func testDBInOrder(t *testing.T, tweetIDs []int64, cityOrder []int) *storage.DB {
	t.Helper()
	db := storage.NewDB()
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
	for _, i := range tweetIDs {
		// Derived attributes start NULL: nothing enriched yet.
		tt.Insert(&types.Tuple{ID: i, Vals: []types.Value{
			types.NewInt(i),
			types.NewVector([]float64{float64(i)}),
			types.NewString(locs[i%3]),
			types.NewInt(i),
			types.Null,
			types.Null,
		}})
	}
	state := catalog.MustSchema("State", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "city", Kind: types.KindString},
		{Name: "state", Kind: types.KindString},
	})
	st, _ := db.CreateTable(state)
	cities := []struct{ c, s string }{
		{"Irvine", "California"}, {"LA", "California"}, {"Austin", "Texas"},
	}
	for _, i := range cityOrder {
		cs := cities[i]
		st.Insert(&types.Tuple{ID: int64(i + 1), Vals: []types.Value{
			types.NewInt(int64(i + 1)), types.NewString(cs.c), types.NewString(cs.s),
		}})
	}
	return db
}

func analyze(t *testing.T, db *storage.DB, q string) *engine.Analysis {
	t.Helper()
	a, err := engine.Analyze(sqlparser.MustParse(q), db.Catalog())
	if err != nil {
		t.Fatalf("Analyze(%s): %v", q, err)
	}
	return a
}

// enrichTweet simulates an enrichment write-back: update derived columns of a
// tuple and return the TupleDelta describing it.
func enrichTweet(t *testing.T, db *storage.DB, tid int64, sentiment, topic types.Value) TupleDelta {
	t.Helper()
	tbl := db.MustTable("TweetData")
	old := tbl.Get(tid) // write-backs swap in a new image; this one stays as is
	if !sentiment.IsNull() {
		if _, err := tbl.WriteDerived(tid, "sentiment", sentiment, old.Gen, false); err != nil {
			t.Fatal(err)
		}
	}
	if !topic.IsNull() {
		if _, err := tbl.WriteDerived(tid, "topic", topic, old.Gen, false); err != nil {
			t.Fatal(err)
		}
	}
	return TupleDelta{Relation: "TweetData", Old: old, New: tbl.Get(tid)}
}

// rowsKey builds an order-insensitive multiset fingerprint of result rows.
func rowsKey(rows []*expr.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		k := ""
		for _, v := range r.Vals {
			k += v.Key() + "|"
		}
		k += "#"
		for _, tid := range r.TIDs {
			k += fmt.Sprintf("%d,", tid)
		}
		keys[i] = k
	}
	sort.Strings(keys)
	return keys
}

func sameRowSet(a, b []*expr.Row) bool {
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// reexecute runs the query from scratch through the engine.
func reexecute(t *testing.T, db *storage.DB, q string) []*expr.Row {
	t.Helper()
	a := analyze(t, db, q)
	plan, err := engine.Build(a, db)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(engine.NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSelectionViewMaintenance(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime BETWEEN 1 AND 12"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatalf("initial view should be empty (all sentiment NULL): %d", v.Len())
	}

	d := enrichTweet(t, db, 1, types.NewInt(1), types.Null)
	delta, err := v.Apply(nil, []TupleDelta{d})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Inserted) != 1 || len(delta.Deleted) != 0 {
		t.Fatalf("delta: +%d -%d", len(delta.Inserted), len(delta.Deleted))
	}
	// Enrich to a non-matching value: no change.
	d = enrichTweet(t, db, 2, types.NewInt(0), types.Null)
	delta, _ = v.Apply(nil, []TupleDelta{d})
	if len(delta.Inserted) != 0 || len(delta.Deleted) != 0 {
		t.Fatalf("non-matching enrichment should not change view: %+v", delta)
	}
	// Re-determinization flips tuple 1 out of the result.
	d = enrichTweet(t, db, 1, types.NewInt(2), types.Null)
	delta, _ = v.Apply(nil, []TupleDelta{d})
	if len(delta.Deleted) != 1 || len(delta.Inserted) != 0 {
		t.Fatalf("retraction expected: +%d -%d", len(delta.Inserted), len(delta.Deleted))
	}
	if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
		t.Error("view diverged from re-execution")
	}
}

func TestJoinViewMaintenance(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []TupleDelta
	for tid := int64(1); tid <= 12; tid++ {
		deltas = append(deltas, enrichTweet(t, db, tid, types.NewInt(tid%3), types.Null))
	}
	delta, err := v.Apply(nil, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Inserted) == 0 && len(delta.Deleted) == 0 {
		t.Fatal("expected insertions")
	}
	if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
		t.Error("join view diverged from re-execution")
	}
}

func TestSelfJoinViewMaintenance(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for step := 0; step < 30; step++ {
		tid := int64(r.Intn(12) + 1)
		d := enrichTweet(t, db, tid,
			types.NewInt(int64(r.Intn(3))), types.NewInt(int64(r.Intn(4))))
		if _, err := v.Apply(nil, []TupleDelta{d}); err != nil {
			t.Fatal(err)
		}
	}
	if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
		t.Error("self-join view diverged from re-execution")
	}
}

func TestAggregationViewMaintenance(t *testing.T) {
	db := testDB(t)
	q := "SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN 1 AND 12 GROUP BY topic"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All-NULL topic: a single NULL group of 12.
	rows := v.Rows()
	if len(rows) != 1 || !rows[0].Vals[0].IsNull() || rows[0].Vals[1].Int() != 12 {
		t.Fatalf("initial groups: %v", rows)
	}

	d := enrichTweet(t, db, 1, types.Null, types.NewInt(2))
	delta, err := v.Apply(nil, []TupleDelta{d})
	if err != nil {
		t.Fatal(err)
	}
	// NULL group shrinks (update) and group 2 appears: 2 inserted, 1 deleted.
	if len(delta.Inserted) != 2 || len(delta.Deleted) != 1 {
		t.Fatalf("agg delta: +%d -%d", len(delta.Inserted), len(delta.Deleted))
	}
	if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
		t.Error("agg view diverged")
	}
}

// TestAggregateViewSizeBytes: a group costs its group-by values and its one
// int64 row count; each filtered input row costs a tid index entry.
func TestAggregateViewSizeBytes(t *testing.T) {
	db := testDB(t)
	v, err := New(analyze(t, db, "SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN 1 AND 12 GROUP BY topic"), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 12 * 8
	if got, want := v.SizeBytes(), int64(1*(8+8)+inputs); got != want {
		t.Errorf("one NULL group: SizeBytes = %d, want %d", got, want)
	}
	if _, err := v.Apply(nil, []TupleDelta{enrichTweet(t, db, 1, types.Null, types.NewInt(2))}); err != nil {
		t.Fatal(err)
	}
	if got, want := v.SizeBytes(), int64(2*(8+8)+inputs); got != want {
		t.Errorf("two groups: SizeBytes = %d, want %d", got, want)
	}
}

func TestInsertAndDeleteMaintenance(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData WHERE TweetTime <= 100"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.MustTable("TweetData")
	nt := &types.Tuple{ID: 100, Vals: []types.Value{
		types.NewInt(100), types.NewVector([]float64{1}), types.NewString("LA"),
		types.NewInt(50), types.Null, types.Null,
	}}
	tbl.Insert(nt)
	delta, err := v.Apply(nil, []TupleDelta{{Relation: "TweetData", New: nt}})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Inserted) != 1 {
		t.Fatalf("insert delta: %+v", delta)
	}
	old := tbl.Delete(100)
	delta, err = v.Apply(nil, []TupleDelta{{Relation: "TweetData", Old: old}})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Deleted) != 1 {
		t.Fatalf("delete delta: %+v", delta)
	}
	if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
		t.Error("view diverged after insert/delete")
	}
}

// propertyQueries are the query shapes the property tests run: selections,
// projections, a self-join, a join, aggregates and the Q8 three-way shape.
var propertyQueries = []string{
	"SELECT * FROM TweetData WHERE sentiment = 1",
	"SELECT * FROM TweetData WHERE topic <= 2 AND sentiment = 1 AND TweetTime BETWEEN 2 AND 11",
	"SELECT tid, location FROM TweetData WHERE sentiment = 2",
	"SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.TweetTime BETWEEN 1 AND 8",
	"SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1",
	"SELECT topic, count(*) FROM TweetData GROUP BY topic",
	"SELECT sentiment, count(*) FROM TweetData WHERE TweetTime >= 3 GROUP BY sentiment",
	// Three-way join mixing fixed and derived join conditions (Q8 shape).
	"SELECT * FROM TweetData T1, TweetData T2, State S WHERE T1.tid = T2.tid AND T1.topic = T2.topic AND T1.location = S.city AND S.state = 'California'",
}

// TestIVMInvariantProperty is the paper's correctness criterion
// q(D + ΔD) = q(D) + Δq(D, ΔD) checked on randomized update sequences over
// several query shapes.
func TestIVMInvariantProperty(t *testing.T) {
	for qi, q := range propertyQueries {
		db := testDB(t)
		v, err := New(analyze(t, db, q), db, nil)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		r := rand.New(rand.NewSource(int64(100 + qi)))
		for step := 0; step < 25; step++ {
			// Random batch of 1-4 updates.
			n := r.Intn(4) + 1
			var deltas []TupleDelta
			for i := 0; i < n; i++ {
				tid := int64(r.Intn(12) + 1)
				var s, tp types.Value = types.Null, types.Null
				if r.Intn(2) == 0 {
					s = types.NewInt(int64(r.Intn(3)))
				}
				if r.Intn(2) == 0 {
					tp = types.NewInt(int64(r.Intn(4)))
				}
				deltas = append(deltas, enrichTweet(t, db, tid, s, tp))
			}
			if _, err := v.Apply(nil, deltas); err != nil {
				t.Fatalf("q%d step %d: %v", qi, step, err)
			}
			if !sameRowSet(v.Rows(), reexecute(t, db, q)) {
				t.Fatalf("q%d diverged at step %d\nquery: %s", qi, step, q)
			}
		}
	}
}

// replayView is the view built the way set-up once worked: New over an empty
// store with the same schemas, then one Apply inserting every live base
// tuple of the query's relations, relation by relation in FROM order, each
// in scan order.
func replayView(t *testing.T, db *storage.DB, a *engine.Analysis) *View {
	t.Helper()
	empty := storage.NewDB()
	var inserts []TupleDelta
	seen := make(map[string]bool)
	for _, tm := range a.Tables {
		if seen[tm.Relation] {
			continue
		}
		seen[tm.Relation] = true
		if _, err := empty.CreateTable(tm.Schema); err != nil {
			t.Fatal(err)
		}
		for _, tu := range storage.Tuples(db.MustTable(tm.Relation)) {
			inserts = append(inserts, TupleDelta{Relation: tm.Relation, New: tu})
		}
	}
	v, err := New(a, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(nil, inserts); err != nil {
		t.Fatal(err)
	}
	return v
}

// sameRowsInOrder reports whether a and b hold the same rows (values and
// tuple ids) in the same order.
func sameRowsInOrder(a, b []*expr.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].SameIdentity(b[i]) {
			return false
		}
	}
	return true
}

// TestSetupEqualsReplayAndReexecution: a view New materializes equals a
// from-scratch re-execution as a row set, and equals, row for row and in
// order, the view an empty store's New plus one Apply inserting every base
// tuple in scan order produces. The tables' ids are inserted out of order
// (scan order is not tid order) and k random enrichment steps run before
// set-up.
func TestSetupEqualsReplayAndReexecution(t *testing.T) {
	for qi, q := range propertyQueries {
		for _, k := range []int{0, 5, 25} {
			r := rand.New(rand.NewSource(int64(300 + 7*qi + k)))
			tweetIDs := make([]int64, 12)
			for i, p := range r.Perm(12) {
				tweetIDs[i] = int64(p + 1)
			}
			db := testDBInOrder(t, tweetIDs, r.Perm(3))
			for step := 0; step < k; step++ {
				var s, tp types.Value = types.Null, types.Null
				if r.Intn(2) == 0 {
					s = types.NewInt(int64(r.Intn(3)))
				}
				if r.Intn(2) == 0 {
					tp = types.NewInt(int64(r.Intn(4)))
				}
				enrichTweet(t, db, int64(r.Intn(12)+1), s, tp)
			}
			a := analyze(t, db, q)
			want := replayView(t, db, a).Rows()
			v, err := New(a, db, nil)
			if err != nil {
				t.Fatalf("q%d k=%d: %v", qi, k, err)
			}
			got := v.Rows()
			if !sameRowSet(got, reexecute(t, db, q)) {
				t.Errorf("q%d k=%d: set-up diverged from re-execution\nquery: %s", qi, k, q)
			}
			if !sameRowsInOrder(got, want) {
				t.Errorf("q%d k=%d: set-up diverged from the insert replay (%d vs %d rows)\nquery: %s", qi, k, len(got), len(want), q)
			}
		}
	}
}

// TestBatchEqualsSequential: applying a batch at once must equal applying its
// deltas one at a time (the view must not double-count within a batch).
func TestBatchEqualsSequential(t *testing.T) {
	q := "SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment"
	dbA := testDB(t)
	dbB := testDB(t)
	vA, err := New(analyze(t, dbA, q), dbA, nil)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := New(analyze(t, dbB, q), dbB, nil)
	if err != nil {
		t.Fatal(err)
	}
	var batchA []TupleDelta
	for tid := int64(1); tid <= 6; tid++ {
		batchA = append(batchA, enrichTweet(t, dbA, tid, types.NewInt(tid%2), types.Null))
		d := enrichTweet(t, dbB, tid, types.NewInt(tid%2), types.Null)
		if _, err := vB.Apply(nil, []TupleDelta{d}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vA.Apply(nil, batchA); err != nil {
		t.Fatal(err)
	}
	if !sameRowSet(vA.Rows(), vB.Rows()) {
		t.Error("batch apply diverged from sequential apply")
	}
}

func TestConstFalseView(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData WHERE 1 = 2 AND sentiment = 1"
	v, err := New(analyze(t, db, q), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := enrichTweet(t, db, 1, types.NewInt(1), types.Null)
	delta, err := v.Apply(nil, []TupleDelta{d})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Inserted) != 0 || len(delta.Deleted) != 0 || v.Len() != 0 {
		t.Error("constant-false view must stay empty")
	}
}

func TestNoChangeNoDelta(t *testing.T) {
	db := testDB(t)
	q := "SELECT * FROM TweetData WHERE sentiment = 1"
	v, _ := New(analyze(t, db, q), db, nil)
	d := enrichTweet(t, db, 1, types.NewInt(1), types.Null)
	v.Apply(nil, []TupleDelta{d})
	// Re-enriching to the same value must produce an empty delta.
	d = enrichTweet(t, db, 1, types.NewInt(1), types.Null)
	delta, err := v.Apply(nil, []TupleDelta{d})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Inserted) != 0 || len(delta.Deleted) != 0 {
		t.Errorf("no-op update produced delta: +%d -%d", len(delta.Inserted), len(delta.Deleted))
	}
}

func TestViewSchema(t *testing.T) {
	db := testDB(t)
	v, _ := New(analyze(t, db, "SELECT tid, location FROM TweetData WHERE sentiment = 1"), db, nil)
	if got := len(v.Schema().Cols); got != 2 {
		t.Errorf("projected view schema cols = %d", got)
	}
	v2, _ := New(analyze(t, db, "SELECT topic, count(*) FROM TweetData GROUP BY topic"), db, nil)
	if got := len(v2.Schema().Cols); got != 2 {
		t.Errorf("agg view schema cols = %d", got)
	}
}
