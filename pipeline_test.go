package enrichdb

// Tests of the single query pipeline (DESIGN §10): every entry point, design
// and observability setting runs through DB.run, so they must agree on the
// answer and the work done, and cancellation must reach every design.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"enrichdb/internal/engine"
	"enrichdb/internal/telemetry"
)

// parityQueries covers the shapes the pipeline dispatches differently: a
// scatter-eligible fixed selection, a derived selection, an aggregate over a
// derived predicate (never scattered), a self-join whose column names need
// qualifying, and an empty answer (whose columns come from the executed
// plan's schema, not from a row).
var parityQueries = []string{
	"SELECT id, store FROM Reviews WHERE day < 10",
	"SELECT id, rating FROM Reviews WHERE rating = 1 AND day < 12",
	"SELECT store, count(*) FROM Reviews WHERE rating = 2 GROUP BY store",
	"SELECT a.id, b.id FROM Reviews a, Reviews b WHERE a.id = b.id AND a.day > 27 AND a.rating = 0",
	"SELECT id, rating FROM Reviews WHERE rating = 1 AND day > 99",
}

// TestPipelineParity: for each query and design, the answer, the column
// names and the enrichment work are identical whether the query enters
// through DB or Session, traced or not, on 1 shard or 4; EXPLAIN ANALYZE of
// the same query does the same work and profiles the same answer. A
// progressive run goes to completion, so its answer is the refined one.
func TestPipelineParity(t *testing.T) {
	designs := []Design{PlainDesign, LooseDesign, TightDesign, ProgressiveDesign}
	for qi, q := range parityQueries {
		for _, design := range designs {
			t.Run(fmt.Sprintf("q%d/%v", qi, design), func(t *testing.T) {
				var want string
				for _, shards := range []int{1, 4} {
					for _, viaSession := range []bool{false, true} {
						for _, observed := range []bool{false, true} {
							name := fmt.Sprintf("shards=%d session=%v observed=%v", shards, viaSession, observed)
							got := runParityCase(t, name, shards, viaSession, observed, design, q)
							if want == "" {
								want = got
							} else if got != want {
								t.Errorf("%s diverged:\n--- got\n%s--- want\n%s", name, got, want)
							}
						}
					}
				}
				if cols := strings.SplitN(want, "\n", 2)[0]; cols == "" {
					t.Errorf("result carries no column names:\n%s", want)
				}
			})
		}
	}
}

// runFunc is DB.Run or Session.Run.
type runFunc func(context.Context, Design, string, QueryObs) (*Result, error)

// runProgressive runs q under ProgressiveDesign with opts.
func runProgressive(run runFunc, q string, opts ProgressiveOptions) (*Result, error) {
	return run(context.Background(), ProgressiveDesign, q, QueryObs{Progressive: opts})
}

// parityDB opens a fresh cold database on the given number of shards and
// returns it with its Run, or with the Run of a session on it.
func parityDB(t *testing.T, shards int, viaSession bool) (*DB, runFunc) {
	t.Helper()
	db := openShardedReviews(t, shards)
	t.Cleanup(func() { db.Close() })
	if !viaSession {
		return db, db.Run
	}
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return db, sess.Run
}

// runParityCase runs q once on a fresh cold database and renders everything
// that must not depend on the entry point: rows, columns, work counters. The
// observed case traces the run, then runs EXPLAIN ANALYZE of q on another
// fresh database and checks it did the same work for the same answer.
func runParityCase(t *testing.T, name string, shards int, viaSession, observed bool, design Design, q string) string {
	t.Helper()
	db, run := parityDB(t, shards, viaSession)
	var obs QueryObs
	var spans telemetry.CollectSink
	if observed {
		obs = QueryObs{Tracer: telemetry.NewTracer(&spans)}
	}
	res, err := run(context.Background(), design, q, obs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Profile != nil {
		t.Errorf("%s: a plain statement came back with a profile", name)
	}
	if observed {
		var executed bool
		for _, sp := range spans.Spans() {
			executed = executed || sp.Name == design.String()+".execute"
		}
		if !executed {
			t.Errorf("%s: no %v.execute span", name, design)
		}
		_, runAnalyze := parityDB(t, shards, viaSession)
		ares, err := runAnalyze(context.Background(), design, "EXPLAIN ANALYZE "+q, QueryObs{})
		if err != nil {
			t.Fatalf("%s: EXPLAIN ANALYZE: %v", name, err)
		}
		if ares.Profile == nil || ares.Profile.Root == nil {
			t.Fatalf("%s: EXPLAIN ANALYZE returned no profile", name)
		}
		if ares.Profile.Design != design.String() {
			t.Errorf("%s: profile design %q, want %q", name, ares.Profile.Design, design)
		}
		if ares.Enrichments != res.Enrichments || ares.UDFInvocations != res.UDFInvocations ||
			ares.Profile.Root.RowsOut != int64(res.Len()) {
			t.Errorf("%s: EXPLAIN ANALYZE enrichments=%d udf=%d rows=%d, the query enrichments=%d udf=%d rows=%d",
				name, ares.Enrichments, ares.UDFInvocations, ares.Profile.Root.RowsOut,
				res.Enrichments, res.UDFInvocations, res.Len())
		}
		if got := renderPlan(ares.Rows); got != ares.Profile.String() {
			t.Errorf("%s: EXPLAIN ANALYZE rows are not the rendered profile:\n%s", name, got)
		}
	}
	if design == PlainDesign && (res.Enrichments != 0 || db.Stats().Enrichments != 0) {
		t.Errorf("%s: plain query enriched (%d reported, %d executed)", name, res.Enrichments, db.Stats().Enrichments)
	}
	return fmt.Sprintf("%senrichments=%d udf=%d failed=%d\n",
		renderExact(res.Rows), res.Enrichments, res.UDFInvocations, res.FailedEnrichments)
}

// TestProfiledScatterIsScatter: EXPLAIN ANALYZE of a plain query on a sharded
// store takes the same scatter path as the query itself, and says so.
func TestProfiledScatterIsScatter(t *testing.T) {
	db := openShardedReviews(t, 4)
	defer db.Close()
	rows, err := db.Query(parityQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(context.Background(), PlainDesign, "EXPLAIN ANALYZE "+parityQueries[0], QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Telemetry().Snapshot().Counters["shard.scatter_queries"]; got != 2 {
		t.Fatalf("shard.scatter_queries = %d, want 2 (the query and its EXPLAIN ANALYZE)", got)
	}
	root := res.Profile.Root
	if root.Name != "ShardScatter" || root.Detail != "4 shards" {
		t.Fatalf("profile root = %s %q, want ShardScatter \"4 shards\":\n%s", root.Name, root.Detail, res.Profile)
	}
	if root.RowsIn != 200 || root.RowsOut != int64(rows.Len()) || root.Wall <= 0 {
		t.Errorf("ShardScatter in=%d out=%d wall=%v, want in=200 out=%d wall>0", root.RowsIn, root.RowsOut, root.Wall, rows.Len())
	}
}

// TestExplainShowsShardScatter: on a sharded store, plain EXPLAIN names the
// ShardScatter fan-out exactly when EXPLAIN ANALYZE (the run) takes it — an
// eligible single-table filter through DB and Session alike — and an
// aggregate, which runs over the merged views, names it in neither form.
func TestExplainShowsShardScatter(t *testing.T) {
	for _, viaSession := range []bool{false, true} {
		_, run := parityDB(t, 4, viaSession)
		for _, c := range []struct {
			q       string
			scatter bool
		}{{parityQueries[0], true}, {parityQueries[2], false}} {
			for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
				res, err := run(context.Background(), PlainDesign, prefix+c.q, QueryObs{})
				if err != nil {
					t.Fatal(err)
				}
				plan := renderPlan(res.Rows)
				if got := strings.HasPrefix(plan, "ShardScatter 4 shards"); got != c.scatter {
					t.Errorf("session=%v %s%s: ShardScatter at the root = %v, want %v:\n%s",
						viaSession, prefix, c.q, got, c.scatter, plan)
				}
				if !c.scatter && strings.Contains(plan, "ShardScatter") {
					t.Errorf("session=%v %s%s names ShardScatter:\n%s", viaSession, prefix, c.q, plan)
				}
			}
		}
	}
}

// TestCancelReachesLooseAndTight: a context canceled before the query starts
// stops a loose query before its enrichment batch and a tight query before
// its first UDF call — nothing is enriched on the cold table.
func TestCancelReachesLooseAndTight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, design := range []Design{LooseDesign, TightDesign} {
		for _, viaSession := range []bool{false, true} {
			db, _, _ := buildReviewDB(t)
			run := db.Run
			if viaSession {
				sess, err := db.Session()
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				run = sess.Run
			}
			_, err := run(ctx, design, enrichedQuery, QueryObs{})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v session=%v: got %v, want context.Canceled", design, viaSession, err)
			}
			if n := db.Stats().Enrichments; n != 0 {
				t.Errorf("%v session=%v: canceled query executed %d enrichments", design, viaSession, n)
			}
			db.Close()
		}
	}
}

// TestCancelStopsProgressiveAtEpochBoundary: a done context does not fail a
// progressive query, through DB or Session. Canceled before the query
// starts, the run stops before its first epoch and answers the setup answer
// with nothing enriched; canceled during epoch 1, it stops after that epoch.
func TestCancelStopsProgressiveAtEpochBoundary(t *testing.T) {
	for _, viaSession := range []bool{false, true} {
		db, run := parityDB(t, 1, viaSession)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := run(ctx, ProgressiveDesign, enrichedQuery, QueryObs{})
		if err != nil {
			t.Fatalf("session=%v: canceled progressive run failed: %v", viaSession, err)
		}
		if len(res.Epochs) != 0 || res.Enrichments != 0 || db.Stats().Enrichments != 0 {
			t.Errorf("session=%v: canceled before the start, ran %d epochs and %d enrichments",
				viaSession, len(res.Epochs), db.Stats().Enrichments)
		}
		plain, err := db.Query(enrichedQuery)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderExact(res.Rows), renderExact(plain); got != want {
			t.Errorf("session=%v: canceled answer is not the setup answer:\n%s--- want\n%s", viaSession, got, want)
		}

		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		res, err = run(ctx, ProgressiveDesign, enrichedQuery, QueryObs{Progressive: ProgressiveOptions{
			Strategy: FunctionOrdered, OnEpoch: func(Epoch) { cancel() }}})
		if err != nil || len(res.Epochs) != 1 {
			t.Errorf("session=%v: canceled in epoch 1: %d epochs, err %v; want 1 epoch, no error", viaSession, len(res.Epochs), err)
		}
	}
}

// TestExplainPlanMatchesExecution: for every design, through DB and Session,
// the tree `EXPLAIN q` prints is the tree `EXPLAIN ANALYZE q` runs for the
// same stats state — the loose design's final plan, the tight design's
// rewritten plan and the join over both — in both rounds, the second
// planning with the first round's observed selectivities. Fused scan paths
// execute without entering their children, so the executed operators are a
// subsequence of the planned ones.
func TestExplainPlanMatchesExecution(t *testing.T) {
	q := "SELECT count(*) FROM Reviews a, Reviews b WHERE a.id = b.id AND b.day < 3 AND a.rating = 1"
	for _, design := range []Design{PlainDesign, LooseDesign, TightDesign} {
		for _, viaSession := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/session=%v", design, viaSession), func(t *testing.T) {
				_, run := parityDB(t, 1, viaSession)
				for round := 0; round < 2; round++ { // the second round plans from observed stats
					explained, err := run(context.Background(), design, "EXPLAIN "+q, QueryObs{})
					if err != nil {
						t.Fatal(err)
					}
					if explained.Enrichments != 0 || explained.UDFInvocations != 0 || explained.Profile != nil {
						t.Fatalf("round %d: EXPLAIN executed: %+v", round, explained)
					}
					plan := renderPlan(explained.Rows)
					if design == TightDesign && (!strings.Contains(plan, "read_udf") || !strings.Contains(plan, "CheckState")) {
						t.Fatalf("round %d: tight EXPLAIN is not the rewritten plan:\n%s", round, plan)
					}
					analyzed, err := run(context.Background(), design, "EXPLAIN ANALYZE "+q, QueryObs{})
					if err != nil {
						t.Fatal(err)
					}
					root := analyzed.Profile.Root
					if design == LooseDesign {
						// The loose profile wraps its phases; the plan runs in the last.
						root = root.Children[len(root.Children)-1]
						if root.Name != "LooseExecute" {
							t.Fatalf("round %d: last loose phase is %s, want LooseExecute", round, root.Name)
						}
						root = root.Children[0]
					}
					checkPlanRan(t, round, operators(plan), operators(engine.FormatProfile(root)))
				}
			})
		}
	}
}

// checkPlanRan asserts the executed operators are the planned ones, in order:
// the same root, and the rest a subsequence of the plan.
func checkPlanRan(t *testing.T, round int, planned, executed []string) {
	t.Helper()
	if len(executed) < 3 || planned[0] != executed[0] {
		t.Fatalf("round %d: executed %q, planned %q", round, executed, planned)
	}
	pi := 0
	for _, op := range executed {
		for pi < len(planned) && planned[pi] != op {
			pi++
		}
		if pi == len(planned) {
			t.Fatalf("round %d: executed operators %q are not the planned ones in order %q", round, executed, planned)
		}
		pi++
	}
}

// operators lists a rendered plan or profile tree's operators ("Filter
// b.day < 3") in print order, without the per-line figures.
func operators(tree string) []string {
	var ops []string
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		op, _, _ := strings.Cut(strings.TrimSpace(line), "  (")
		ops = append(ops, op)
	}
	return ops
}

// renderPlan joins an EXPLAIN result's "plan" rows back into the tree text.
func renderPlan(r *Rows) string {
	var sb strings.Builder
	for i := 0; i < r.Len(); i++ {
		sb.WriteString(r.At(i)[0].Str())
		sb.WriteByte('\n')
	}
	return sb.String()
}
