package loose

import (
	"fmt"
	"slices"
	"testing"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
)

// sameRows reports the first difference between two row lists, values and
// TIDs, or "" when they are equal row by row.
func sameRows(got, want []*expr.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].TIDs, want[i].TIDs) || fmt.Sprint(got[i].Vals) != fmt.Sprint(want[i].Vals) {
			return fmt.Sprintf("row %d: %v %v, want %v %v", i, got[i].TIDs, got[i].Vals, want[i].TIDs, want[i].Vals)
		}
	}
	return ""
}

// TestResultRowsAreTheAnswer: Execute's Result.Rows is the row view of the
// answer ExecuteAnswer hands on, row by row with TIDs, when the final plan
// answers in columns.
func TestResultRowsAreTheAnswer(t *testing.T) {
	d, _, drv := fixture(t)
	q := "SELECT tid, TweetTime FROM TweetData WHERE sentiment = 1 AND TweetTime < 3000"
	res, err := drv.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	_, ans, err := drv.ExecuteAnswer(analyze(t, d, q))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cols == nil || ans.Len() == 0 {
		t.Fatalf("the answer is not a non-empty column answer (%d rows, columns %v)", ans.Len(), ans.Cols != nil)
	}
	if diff := sameRows(res.Rows, ans.View(res.Schema)); diff != "" {
		t.Fatalf("Result.Rows is not the answer's row view: %s", diff)
	}
}

// TestProbeDecidesMarkedChunksFromAnd: over a snapshot, whose chunks keep
// their marks' AND, a probe of a fully enriched table decides every chunk from
// its marks' AND and probes nothing; on a fresh table it decides none. The
// loose driver publishes the count as engine.mark_chunks_decided.
func TestProbeDecidesMarkedChunksFromAnd(t *testing.T) {
	d, err := dataset.Generate(dataset.Config{Seed: 3, Tweets: 2*expr.BatchSize + 100, Images: 4, TopicDomain: 4, TrainPerClass: 20})
	if err != nil {
		t.Fatal(err)
	}
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, dataset.SingleFunctionSpecs()); err != nil {
		t.Fatal(err)
	}
	q := "SELECT tid FROM TweetData WHERE sentiment = 1"
	a := analyze(t, d, q)
	probe := func() (decided, batches int64, probed int) {
		ctx := engine.NewExecCtx()
		probes, err := GenerateProbes(a, d.DB.Snapshot(), mgr, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			probed += len(p.TIDs)
		}
		return ctx.Stats.MarkChunksDecided, ctx.Stats.BatchesBuilt, probed
	}
	if decided, batches, probed := probe(); decided != 0 || batches != 3 || probed != 2*expr.BatchSize+100 {
		t.Fatalf("fresh table: %d of %d chunks decided from the AND, %d probed", decided, batches, probed)
	}
	if _, err := NewDriver(d.DB, mgr).Execute(q); err != nil {
		t.Fatal(err)
	}
	if decided, batches, probed := probe(); decided != 3 || batches != 3 || probed != 0 {
		t.Fatalf("enriched table: %d of %d chunks decided from the AND, %d probed", decided, batches, probed)
	}
	before := mgr.Telemetry().Snapshot().Counters["engine.mark_chunks_decided"]
	if _, err := NewDriver(d.DB.Snapshot(), mgr).Execute(q); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Telemetry().Snapshot().Counters["engine.mark_chunks_decided"] - before; got != 3 {
		t.Fatalf("engine.mark_chunks_decided rose by %d over an enriched snapshot, want 3", got)
	}
}
