package tight

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// tallyRuntime counts the UDF calls a query makes per tuple id (and its
// read_udf calls) on top of a real runtime. before, when set, runs ahead of
// every call. Tight filters evaluate on one goroutine, so no lock is needed.
type tallyRuntime struct {
	*Runtime
	before func()
	calls  map[int64]int
	reads  int
}

func newTally(d *Driver) *tallyRuntime {
	return &tallyRuntime{Runtime: NewRuntime(d.DB, d.Mgr), calls: make(map[int64]int)}
}

func (r *tallyRuntime) tally(tid int64) {
	if r.before != nil {
		r.before()
	}
	r.calls[tid]++
}

func (r *tallyRuntime) CheckState(rel string, tid int64, attr string) (bool, error) {
	r.tally(tid)
	return r.Runtime.CheckState(rel, tid, attr)
}

func (r *tallyRuntime) GetValue(rel string, tid int64, attr string) (types.Value, error) {
	r.tally(tid)
	return r.Runtime.GetValue(rel, tid, attr)
}

func (r *tallyRuntime) ReadUDF(rel string, tid int64, attr string) (types.Value, error) {
	r.tally(tid)
	r.reads++
	return r.Runtime.ReadUDF(rel, tid, attr)
}

// runPlan executes the driver's rewritten plan for q as ExecuteAnalyzed does,
// on the vector path or (noVector) the row path, with rt behind the UDFs. It
// returns the rows and the UDF calls the plan made.
func runPlan(t *testing.T, d *Driver, q string, noVector bool, rt expr.EnrichRuntime) ([]*expr.Row, int64) {
	t.Helper()
	a, err := engine.AnalyzeSQL(q, d.DB.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.Plan(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.NewExecCtx()
	ctx.Eval.Runtime = rt
	ctx.Eval.PatchRows, ctx.NoVector = true, noVector
	rows, err := plan.Execute(ctx)
	if err != nil {
		t.Fatalf("%s (NoVector=%v): %v", q, noVector, err)
	}
	return rows, ctx.Eval.UDFInvocations
}

// renderRows renders rows exactly, in order.
func renderRows(rows []*expr.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r.Vals {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		fmt.Fprintln(&b, r.TIDs)
	}
	return b.String()
}

// batteryDriver builds a tight driver over n fresh tweets. topic's
// determinization has a confidence floor, so some images whose whole topic
// family ran determine it to NULL. Storage never marks a NULL, so those
// images stay pending for ω on every run.
func batteryDriver(t *testing.T, n int) *Driver {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{Seed: 5, Tweets: n, Images: 4, TopicDomain: 4, TrainPerClass: 20})
	if err != nil {
		t.Fatal(err)
	}
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, dataset.SingleFunctionSpecs()); err != nil {
		t.Fatal(err)
	}
	mgr.Family("TweetData", "topic").Det = enrich.AvgProb{MinConf: 0.99}
	return NewDriver(d.DB, mgr)
}

// markShare enriches each (tweet, derived attribute) with probability p,
// seeded, so twin drivers get identical marks.
func markShare(t *testing.T, d *Driver, p float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	rt := NewRuntime(d.DB, d.Mgr)
	for _, tu := range storage.Tuples(tweets(d)) {
		for _, attr := range []string{"sentiment", "topic"} {
			if rng.Float64() < p {
				if _, err := rt.ReadUDF("TweetData", tu.ID, attr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// tweets is the driver's TweetData relation.
func tweets(d *Driver) storage.Relation {
	tbl, err := d.DB.Table("TweetData")
	if err != nil {
		panic(err)
	}
	return tbl
}

// images renders every tweet image: its mark and its values.
func images(d *Driver) (string, map[int64]uint64) {
	var b strings.Builder
	marks := make(map[int64]uint64)
	for _, tu := range storage.Tuples(tweets(d)) {
		marks[tu.ID] = tu.Enriched
		fmt.Fprintf(&b, "%d %b %v\n", tu.ID, tu.Enriched, tu.Vals[6:])
	}
	return b.String(), marks
}

// guardedQueries are the battery's shapes, each with the derived attributes
// its guards read: a fixed prefix that is Unknown from TweetTime 6000 on,
// so ω runs there but no row may pass (the earlier window stays unmarked
// for the next query), a fixed → derived → derived chain, a two-ref
// conjunct, a test that marked NULLs answer, and an aggregate whose
// select-list attribute the rewrite injects as a guarded IS NOT NULL.
// rowPath marks a query whose guarded conjunct follows or is a comparison
// the kernels leave to the row path (a NULL literal, two columns): every
// lane evaluates it row-at-a-time, marked or not.
var guardedQueries = []struct {
	sql     string
	attrs   []string
	rowPath bool
}{
	{"SELECT tid FROM TweetData WHERE TweetTime >= 6000 AND TweetTime < NULL AND sentiment = 1", []string{"sentiment"}, true},
	{"SELECT * FROM TweetData WHERE TweetTime < 6000 AND sentiment = 1 AND topic <= 1", []string{"sentiment", "topic"}, false},
	{"SELECT tid, topic FROM TweetData WHERE sentiment = topic", []string{"sentiment", "topic"}, true},
	{"SELECT tid, topic FROM TweetData WHERE TweetTime >= 2000 AND topic IS NULL", []string{"topic"}, false},
	{"SELECT topic, count(*) FROM TweetData WHERE sentiment <> 2 GROUP BY topic", []string{"sentiment", "topic"}, false},
}

// TestGuardedVectorMatchesRowPath: the guarded kernel is invisible. Twin
// databases — none, a seeded half or all of their (tweet, attribute) pairs
// enriched, at sizes around a batch boundary — run the battery's queries in
// turn, one twin on the row path and one on the vector path. Rows,
// enrichments and the images' marks and values agree after every query, and
// the vector path makes exactly the row path's UDF calls on the lanes whose
// scan image missed a guarded mark, and none on the others.
func TestGuardedVectorMatchesRowPath(t *testing.T) {
	var sawCompleteNull bool
	for _, n := range []int{expr.BatchSize - 1, expr.BatchSize, expr.BatchSize + 1, 2500} {
		for _, p := range []float64{0, 0.5, 1} {
			t.Run(fmt.Sprintf("n=%d/marked=%v", n, p), func(t *testing.T) {
				rowDrv, vecDrv := batteryDriver(t, n), batteryDriver(t, n)
				markShare(t, rowDrv, p)
				markShare(t, vecDrv, p)
				s := tweets(vecDrv).Schema()
				for _, q := range guardedQueries {
					_, marks := images(vecDrv)
					var mask uint64
					for _, a := range q.attrs {
						mask |= s.MarkBit(a)
					}
					rowRT, vecRT := newTally(rowDrv), newTally(vecDrv)
					rowRows, _ := runPlan(t, rowDrv, q.sql, true, rowRT)
					vecRows, vecCalls := runPlan(t, vecDrv, q.sql, false, vecRT)
					if got, want := renderRows(vecRows), renderRows(rowRows); got != want {
						t.Fatalf("%s: vector rows differ from row path:\n--- vector\n%s--- row\n%s", q.sql, got, want)
					}
					rowN, _ := rowRT.Enrichments()
					vecN, _ := vecRT.Enrichments()
					if rowN != vecN {
						t.Errorf("%s: enrichments vector %d, row %d", q.sql, vecN, rowN)
					}
					vecImgs, _ := images(vecDrv)
					if rowImgs, _ := images(rowDrv); vecImgs != rowImgs {
						t.Fatalf("%s: images differ after the query", q.sql)
					}
					var want int64
					for tid, mark := range marks {
						switch {
						case q.rowPath || mark&mask != mask:
							if vecRT.calls[tid] != rowRT.calls[tid] {
								t.Errorf("%s: undecided tuple %d: %d UDF calls, row path %d", q.sql, tid, vecRT.calls[tid], rowRT.calls[tid])
							}
							want += int64(rowRT.calls[tid])
						case vecRT.calls[tid] != 0:
							t.Errorf("%s: tuple %d marked in the scan image made %d UDF calls", q.sql, tid, vecRT.calls[tid])
						}
					}
					if vecCalls != want {
						t.Errorf("%s: vector path made %d UDF calls, row path %d on the lanes the kernels leave undecided", q.sql, vecCalls, want)
					}
				}
				topic := s.ColIndex("topic")
				for _, tu := range storage.Tuples(tweets(vecDrv)) {
					sawCompleteNull = sawCompleteNull || tu.Vals[topic].IsNull() &&
						vecDrv.Mgr.FullyEnriched("TweetData", tu.ID, "topic", tu.Gen)
				}
			})
		}
	}
	if !sawCompleteNull {
		t.Error("no fully enriched image determined topic to NULL; the battery missed that case")
	}
}

// TestGuardedVectorSeesConcurrentMark: an image that another query marks
// after the scan snapshot, but before the filter reaches its lane, is still
// pending for this query. ω then reads the current image: CheckState and
// GetValue (CheckState once per case of ω), no read_udf, and the row comes
// back with the current value.
func TestGuardedVectorSeesConcurrentMark(t *testing.T) {
	drv := batteryDriver(t, 300)
	tbl := tweets(drv)
	tuples := storage.Tuples(tbl)
	last := tuples[len(tuples)-1].ID
	other := NewRuntime(drv.DB, drv.Mgr)
	var once sync.Once
	rt := newTally(drv)
	rt.before = func() {
		once.Do(func() {
			if _, err := other.ReadUDF("TweetData", last, "sentiment"); err != nil {
				t.Error(err)
			}
		})
	}
	rows, _ := runPlan(t, drv, "SELECT tid, sentiment FROM TweetData WHERE sentiment >= 0", false, rt)
	s := tbl.Schema()
	cur := tbl.Get(last)
	want := cur.Vals[s.ColIndex("sentiment")]
	if cur.Enriched&s.MarkBit("sentiment") == 0 || want.IsNull() {
		t.Fatalf("the other query left tuple %d unmarked or NULL: %b %v", last, cur.Enriched, want)
	}
	var found bool
	for _, r := range rows {
		if r.TIDs[0] == last {
			found = true
			if !types.KeyEqual(r.Vals[1], want) {
				t.Errorf("tuple %d answered sentiment %v, current value %v", last, r.Vals[1], want)
			}
		}
	}
	if !found {
		t.Errorf("tuple %d, marked mid-query, is missing from the answer", last)
	}
	if rt.calls[last] != 3 {
		t.Errorf("tuple %d: %d UDF calls, want CheckState twice and GetValue", last, rt.calls[last])
	}
	if n, _ := rt.Enrichments(); n != int64(len(tuples)-1) {
		t.Errorf("query enriched %d, want %d (all but the concurrently marked tuple)", n, len(tuples)-1)
	}
}
