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
// through DB or Session, observed or not, on 1 shard or 4; a profile comes
// back exactly when asked for.
func TestPipelineParity(t *testing.T) {
	designs := []Design{PlainDesign, LooseDesign, TightDesign}
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

// runParityCase runs q once on a fresh cold database and renders everything
// that must not depend on the entry point: rows, columns, work counters.
func runParityCase(t *testing.T, name string, shards int, viaSession, observed bool, design Design, q string) string {
	t.Helper()
	db := openShardedReviews(t, shards)
	defer db.Close()
	run := db.Run
	if viaSession {
		sess, err := db.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		run = sess.Run
	}
	var obs QueryObs
	var spans telemetry.CollectSink
	if observed {
		obs = QueryObs{Tracer: telemetry.NewTracer(&spans), Profile: true}
	}
	res, err := run(context.Background(), design, q, obs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if (res.Profile != nil) != observed {
		t.Errorf("%s: profile present = %v, asked for = %v", name, res.Profile != nil, observed)
	}
	if observed {
		if res.Profile.Design != design.String() {
			t.Errorf("%s: profile design %q, want %q", name, res.Profile.Design, design)
		}
		var executed bool
		for _, sp := range spans.Spans() {
			executed = executed || sp.Name == design.String()+".execute"
		}
		if !executed {
			t.Errorf("%s: no %v.execute span", name, design)
		}
	}
	if design == PlainDesign && (res.Enrichments != 0 || db.Stats().Enrichments != 0) {
		t.Errorf("%s: plain query enriched (%d reported, %d executed)", name, res.Enrichments, db.Stats().Enrichments)
	}
	return fmt.Sprintf("%senrichments=%d udf=%d failed=%d\n",
		renderExact(res.Rows), res.Enrichments, res.UDFInvocations, res.FailedEnrichments)
}

// TestProfiledScatterIsScatter: a profiled plain query on a sharded store
// takes the same scatter path as an unprofiled one, and says so.
func TestProfiledScatterIsScatter(t *testing.T) {
	db := openShardedReviews(t, 4)
	defer db.Close()
	res, err := db.Run(context.Background(), PlainDesign, parityQueries[0], QueryObs{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Telemetry().Snapshot().Counters["shard.scatter_queries"]; got != 1 {
		t.Fatalf("shard.scatter_queries = %d, want 1", got)
	}
	root := res.Profile.Root
	if root.Name != "ShardScatter" || root.Detail != "4 shards" {
		t.Fatalf("profile root = %s %q, want ShardScatter \"4 shards\":\n%s", root.Name, root.Detail, res.Profile)
	}
	if root.RowsIn != 200 || root.RowsOut != int64(res.Len()) || root.Wall <= 0 {
		t.Errorf("ShardScatter in=%d out=%d wall=%v, want in=200 out=%d wall>0", root.RowsIn, root.RowsOut, root.Wall, res.Len())
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

// TestExplainPlanMatchesExecution: plan-only EXPLAIN and execution build
// through the same helper, so the tree EXPLAIN prints is the tree EXPLAIN
// ANALYZE reports for the same stats state — including the cost-based join
// order (the filtered side first), which the static FROM order would not
// pick. Fused scan paths execute without entering their children, so the
// executed operators are a subsequence of the planned ones.
func TestExplainPlanMatchesExecution(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	defer db.Close()
	q := "SELECT count(*) FROM Reviews a, Reviews b WHERE a.id = b.id AND b.day < 3"
	for round := 0; round < 2; round++ { // the second round plans from observed stats
		plan, err := db.ExplainPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Run(context.Background(), PlainDesign, q, QueryObs{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		planned, executed := operators(plan), operators(res.Profile.String())
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
