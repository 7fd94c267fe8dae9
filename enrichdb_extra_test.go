package enrichdb

import (
	"strings"
	"testing"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
)

func TestInsertEnrichedEager(t *testing.T) {
	db, dataX, truth := buildReviewDB(t)
	// Insert a fresh tuple eagerly: its rating must be non-NULL immediately.
	id, err := db.InsertEnriched("Reviews", 0,
		Int(9999), Vector(dataX[0]), String("north"), Int(1), Null)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT rating FROM Reviews WHERE id = 9999")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.At(0)[0].IsNull() {
		t.Fatalf("eager insert must enrich immediately: %v", rows.At(0))
	}
	// Two family functions executed.
	if got := db.Stats().Enrichments; got != 2 {
		t.Errorf("enrichments = %d want 2", got)
	}
	// A later query-time run must not re-enrich it.
	before := db.Stats().Enrichments
	if _, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1 AND id = 9999"); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Enrichments != before {
		t.Error("eagerly enriched tuple must not be re-enriched at query time")
	}
	_ = id
	_ = truth
}

func TestInsertEnrichedErrors(t *testing.T) {
	db := Open()
	if _, err := db.InsertEnriched("Missing", 0); err == nil {
		t.Error("unknown relation must fail")
	}
	// A relation with a derived attribute but no registered family: eager
	// insert stores the tuple and leaves the attribute NULL.
	if err := db.CreateRelation("R", []Column{
		{Name: "f", Kind: KindVector},
		{Name: "d", Kind: KindInt, Derived: true, FeatureCol: "f", Domain: 2},
	}); err != nil {
		t.Fatal(err)
	}
	id, err := db.InsertEnriched("R", 0, Vector([]float64{1}), Null)
	if err != nil {
		t.Fatalf("eager insert without family: %v", err)
	}
	rows, _ := db.Query("SELECT d FROM R WHERE d IS NULL")
	if rows.Len() != 1 {
		t.Errorf("tuple %d should have NULL d", id)
	}
}

func TestOnDeltaFetchesIncrementalAnswers(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	var inserted, deleted int
	seen := make(map[int64]bool)
	res, err := runProgressive(db.Run, "SELECT * FROM Reviews WHERE rating = 1", ProgressiveOptions{
		Design:      LooseDesign,
		Strategy:    FunctionOrdered,
		EpochBudget: 2 * time.Millisecond,
		OnDelta: func(ins, del *Rows) {
			inserted += ins.Len()
			deleted += del.Len()
			for i := 0; i < ins.Len(); i++ {
				seen[ins.TIDs(i)[0]] = true
			}
			for i := 0; i < del.Len(); i++ {
				delete(seen, del.TIDs(i)[0])
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inserted == 0 {
		t.Fatal("no delta answers delivered")
	}
	// Accumulating the deltas must reconstruct the final answer exactly.
	if len(seen) != res.Len() {
		t.Errorf("delta accumulation (%d rows) != final answer (%d rows)", len(seen), res.Len())
	}
	for i := 0; i < res.Len(); i++ {
		if !seen[res.TIDs(i)[0]] {
			t.Errorf("final row %d missing from accumulated deltas", res.TIDs(i)[0])
		}
	}
}

// TestOnDeltaArrivesWhileTheRunIsLive: each epoch's delta answer reaches
// OnDelta right after that epoch's OnEpoch and before the next epoch runs,
// naming the answer's columns even when it is empty — a consumer reads the
// refinements while the query is still in progress.
func TestOnDeltaArrivesWhileTheRunIsLive(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	var epochs, deltas int
	res, err := runProgressive(db.Run, "SELECT id, rating FROM Reviews WHERE rating = 1", ProgressiveOptions{
		Strategy:    FunctionOrdered, // one function per tuple per epoch: two functions, two epochs at least
		EpochBudget: time.Hour,
		OnEpoch:     func(Epoch) { epochs++ },
		OnDelta: func(ins, del *Rows) {
			deltas++
			if deltas != epochs {
				t.Errorf("delta %d arrived after %d epochs", deltas, epochs)
			}
			if got := strings.Join(del.Columns(), ","); got != "id,rating" {
				t.Errorf("delta %d columns %q, want id,rating", deltas, got)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 || deltas != len(res.Epochs) {
		t.Fatalf("%d deltas over %d epochs, want one per epoch and at least two", deltas, len(res.Epochs))
	}
}

func TestDeltaSinceArbitraryEpoch(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	res, err := runProgressive(db.Run, "SELECT * FROM Reviews WHERE rating = 1", ProgressiveOptions{
		Design:      LooseDesign,
		Strategy:    FunctionOrdered,
		EpochBudget: 5 * time.Microsecond, // a few tuples per epoch: many epochs
		MaxEpochs:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 3 {
		t.Skipf("need several epochs, got %d", len(res.Epochs))
	}
	// Since setup: the net delta is the full final answer.
	ins, del := res.DeltaSince(0)
	if ins.Len()-del.Len() != res.Len() {
		t.Errorf("DeltaSince(0): +%d -%d vs final %d", ins.Len(), del.Len(), res.Len())
	}
	// Since a mid-run epoch: final = answer@k + delta-since-k. Reconstruct
	// answer@k from the per-epoch counters and compare sizes.
	k := len(res.Epochs) / 2
	atK := 0
	for _, e := range res.Epochs[:k] {
		atK += e.Inserted - e.Deleted
	}
	insK, delK := res.DeltaSince(k)
	if atK+insK.Len()-delK.Len() != res.Len() {
		t.Errorf("DeltaSince(%d): answer@k %d + %d - %d != final %d",
			k, atK, insK.Len(), delK.Len(), res.Len())
	}
	// Since the last epoch: nothing left.
	insEnd, delEnd := res.DeltaSince(len(res.Epochs))
	if insEnd.Len() != 0 || delEnd.Len() != 0 {
		t.Errorf("DeltaSince(end): +%d -%d", insEnd.Len(), delEnd.Len())
	}
}

// TestDeltaSinceKeepsDistinctRowsApart: rows without tuple ids (GROUP BY
// answers) are told apart by their values alone, so two distinct rows whose
// string values would concatenate to the same text must not net out.
func TestDeltaSinceKeepsDistinctRowsApart(t *testing.T) {
	schema := expr.SchemaForTable("g", catalog.MustSchema("G", []catalog.Column{
		{Name: "a", Kind: KindString}, {Name: "b", Kind: KindString}}))
	in := &expr.Row{Schema: schema, Vals: []Value{String("x|sy"), String("z")}}
	out := &expr.Row{Schema: schema, Vals: []Value{String("x"), String("y|sz")}}
	res := &Result{
		schema:   schema,
		inserted: [][]*expr.Row{{in}},
		deleted:  [][]*expr.Row{{out}},
	}
	ins, del := res.DeltaSince(0)
	if ins.Len() != 1 || del.Len() != 1 {
		t.Fatalf("DeltaSince(0) = +%d -%d, want +1 -1", ins.Len(), del.Len())
	}
	if got := ins.At(0)[0].Str(); got != "x|sy" {
		t.Errorf("inserted row a = %q, want x|sy", got)
	}
	if got := del.At(0)[0].Str(); got != "x" {
		t.Errorf("deleted row a = %q, want x", got)
	}
}

func TestConcurrentQueriesShareEnrichment(t *testing.T) {
	// The paper's §7 outlook: enrichment performed by one query benefits
	// others. Two overlapping queries — the second must only pay for the
	// tuples the first did not cover.
	db, _, _ := buildReviewDB(t)
	res1, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1 AND day < 20")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db.QueryTight("SELECT * FROM Reviews WHERE rating = 2 AND day < 30")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Enrichments == 0 || res2.Enrichments == 0 {
		t.Fatal("both queries should enrich something")
	}
	// Query 2 covers day<30 ⊃ day<20: it must have paid only for the
	// uncovered day range (roughly a third of what a cold run would cost).
	if res2.Enrichments >= res1.Enrichments {
		t.Errorf("overlapping query did not reuse enrichment: q1=%d q2=%d",
			res1.Enrichments, res2.Enrichments)
	}
}

func TestProgressiveWithoutOnDeltaSkipsCollection(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	res, err := runProgressive(db.Run, "SELECT * FROM Reviews WHERE rating = 0", ProgressiveOptions{
		EpochBudget: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("no results")
	}
}
