package enrichdb

import (
	"fmt"
	"strings"
	"testing"
)

// renderExact canonicalizes a result for byte-comparison: column header plus
// every row's values, in order. Equality of these strings is exactly the
// "byte-identical output" contract the sharded store promises.
func renderExact(r *Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns(), ","))
	b.WriteByte('\n')
	for i := 0; i < r.Len(); i++ {
		vals := r.At(i)
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// equivalenceQueries is every query shape the battery compares: the
// scatter-eligible single-table shapes plus everything that must fall back
// to the merged views (aggregation, grouping, self-join).
var equivalenceQueries = []string{
	"SELECT id, store, day FROM Reviews",
	"SELECT id, day FROM Reviews WHERE day < 10",
	"SELECT id FROM Reviews WHERE store = 'north' AND day >= 3",
	"SELECT store, count(*), avg(day) FROM Reviews GROUP BY store",
	"SELECT count(*) FROM Reviews WHERE day < 15",
	"SELECT a.id, b.id FROM Reviews a, Reviews b WHERE a.id = b.id AND a.day > 27",
}

// enrichedQuery exercises the enrichment designs (rating is derived).
const enrichedQuery = "SELECT id, rating FROM Reviews WHERE rating = 1"

var shardCounts = []int{1, 2, 4, 8}

func openShardedReviews(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := OpenSharded(ShardConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	reviewDBOn(t, db, true)
	return db
}

// TestShardEquivalencePlain compares every query shape on Open() vs
// OpenSharded(N) for N in {1,2,4,8}, through both the live path (scatter)
// and a snapshot session (merged frozen views).
func TestShardEquivalencePlain(t *testing.T) {
	base, _, _ := buildReviewDB(t)
	want := make([]string, len(equivalenceQueries))
	for i, q := range equivalenceQueries {
		rows, err := base.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[i] = renderExact(rows)
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openShardedReviews(t, shards)
			defer db.Close()
			sess, err := db.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for i, q := range equivalenceQueries {
				rows, err := db.Query(q)
				if err != nil {
					t.Fatalf("sharded %q: %v", q, err)
				}
				if got := renderExact(rows); got != want[i] {
					t.Errorf("live query %q diverged:\n--- sharded\n%s--- unsharded\n%s", q, got, want[i])
				}
				srows, err := sess.Query(q)
				if err != nil {
					t.Fatalf("session %q: %v", q, err)
				}
				if got := renderExact(srows); got != want[i] {
					t.Errorf("session query %q diverged:\n--- sharded\n%s--- unsharded\n%s", q, got, want[i])
				}
			}
			if got := db.Telemetry().Snapshot().Counters["shard.scatter_queries"]; got == 0 {
				t.Error("no query took the scatter-gather path")
			}
		})
	}
}

// TestShardEquivalenceLooseTight compares the two enrichment designs.
// Enrichment write-backs route through the sharded facade (gen-guarded), so
// the answers and the written-back derived state must match exactly.
func TestShardEquivalenceLooseTight(t *testing.T) {
	base, _, _ := buildReviewDB(t)
	wantLoose, err := base.QueryLoose(enrichedQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseT, _, _ := buildReviewDB(t)
	wantTight, err := baseT.QueryTight(enrichedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if renderExact(wantLoose.Rows) != renderExact(wantTight.Rows) {
		t.Fatal("fixture broken: loose and tight disagree unsharded")
	}
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("loose/shards=%d", shards), func(t *testing.T) {
			db := openShardedReviews(t, shards)
			defer db.Close()
			res, err := db.QueryLoose(enrichedQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedEnrichments != 0 {
				t.Fatalf("%d failed enrichments: %v", res.FailedEnrichments, res.EnrichErrors)
			}
			if got := renderExact(res.Rows); got != renderExact(wantLoose.Rows) {
				t.Errorf("loose diverged:\n--- sharded\n%s--- unsharded\n%s", got, renderExact(wantLoose.Rows))
			}
			// Re-running reads written-back values: still identical, no new work.
			again, err := db.Query(enrichedQuery)
			if err != nil {
				t.Fatal(err)
			}
			if renderExact(again) != renderExact(wantLoose.Rows) {
				t.Error("written-back derived state diverged on re-read")
			}
		})
		t.Run(fmt.Sprintf("tight/shards=%d", shards), func(t *testing.T) {
			db := openShardedReviews(t, shards)
			defer db.Close()
			res, err := db.QueryTight(enrichedQuery)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderExact(res.Rows); got != renderExact(wantTight.Rows) {
				t.Errorf("tight diverged:\n--- sharded\n%s--- unsharded\n%s", got, renderExact(wantTight.Rows))
			}
		})
	}
}

// TestShardEquivalenceProgressive runs the full battery: every strategy
// (including AdaptiveOrdered) × Shards{1,2,4,8} × Workers{1,4}, each
// compared byte-for-byte against the unsharded answer at the same strategy
// and worker width.
func TestShardEquivalenceProgressive(t *testing.T) {
	strategies := []struct {
		name string
		s    Strategy
	}{
		{"SB-OO", ObjectOrdered},
		{"SB-RO", RandomOrdered},
		{"SB-FO", FunctionOrdered},
		{"Benefit", BenefitOrdered},
		{"Adaptive", AdaptiveOrdered},
	}
	workerWidths := []int{1, 4}
	for _, strat := range strategies {
		for _, workers := range workerWidths {
			opts := ProgressiveOptions{Strategy: strat.s, Seed: 7, Workers: workers}
			base, _, _ := buildReviewDB(t)
			wantRes, err := runProgressive(base.Run, enrichedQuery, opts)
			if err != nil {
				t.Fatalf("baseline %s/w%d: %v", strat.name, workers, err)
			}
			want := renderExact(wantRes.Rows)
			for _, shards := range shardCounts {
				name := fmt.Sprintf("%s/workers=%d/shards=%d", strat.name, workers, shards)
				t.Run(name, func(t *testing.T) {
					db := openShardedReviews(t, shards)
					defer db.Close()
					res, err := runProgressive(db.Run, enrichedQuery, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderExact(res.Rows); got != want {
						t.Errorf("progressive diverged:\n--- sharded\n%s--- unsharded\n%s", got, want)
					}
				})
			}
		}
	}
}
