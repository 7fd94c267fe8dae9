package enrichdb

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// buildReviewDB creates a small database through the public API: a Reviews
// relation whose `rating` is derived from a feature vector, with a trained
// two-function family.
func buildReviewDB(t *testing.T) (*DB, [][]float64, []int) {
	t.Helper()
	return reviewDBWith(t, true)
}

// reviewDBWith optionally skips data insertion while keeping the seeded
// generation (and hence the trained models) identical — snapshot tests load
// data into a schema-and-models-only instance.
func reviewDBWith(t *testing.T, insert bool) (*DB, [][]float64, []int) {
	t.Helper()
	return reviewDBOn(t, Open(), insert)
}

// reviewDBOn seeds an existing (empty) database with the deterministic
// Reviews fixture — the sharded≡unsharded equivalence battery seeds Open()
// and OpenSharded() instances identically through it.
func reviewDBOn(t *testing.T, db *DB, insert bool) (*DB, [][]float64, []int) {
	t.Helper()
	err := db.CreateRelation("Reviews", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "features", Kind: KindVector},
		{Name: "store", Kind: KindString},
		{Name: "day", Kind: KindInt},
		{Name: "rating", Kind: KindInt, Derived: true, FeatureCol: "features", Domain: 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Synthetic three-class data.
	r := rand.New(rand.NewSource(42))
	centers := [][]float64{{-3, -3, 0}, {0, 3, 3}, {3, -3, 3}}
	gen := func(n int) ([][]float64, []int) {
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			c := r.Intn(3)
			y[i] = c
			X[i] = make([]float64, 3)
			for f := range X[i] {
				X[i][f] = centers[c][f] + r.NormFloat64()
			}
		}
		return X, y
	}
	trainX, trainY := gen(300)

	gnb := NewGNB()
	if err := gnb.Fit(trainX, trainY, 3); err != nil {
		t.Fatal(err)
	}
	mlp := NewMLP(8, 1)
	if err := mlp.Fit(trainX, trainY, 3); err != nil {
		t.Fatal(err)
	}
	err = db.RegisterEnrichment("Reviews", "rating",
		Function{Model: gnb, Quality: Accuracy(gnb, trainX, trainY)},
		Function{Model: mlp, Quality: Accuracy(mlp, trainX, trainY)},
	)
	if err != nil {
		t.Fatal(err)
	}

	stores := []string{"north", "south", "east"}
	dataX, dataY := gen(200)
	if insert {
		for i, x := range dataX {
			_, err := db.Insert("Reviews", int64(i+1),
				Int(int64(i+1)), Vector(x), String(stores[i%3]), Int(int64(i%30)), Null)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, dataX, dataY
}

func TestPublicAPISchemaErrors(t *testing.T) {
	db := Open()
	if err := db.CreateRelation("R", []Column{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}); err == nil {
		t.Error("duplicate columns must fail")
	}
	if err := db.CreateRelation("R", []Column{
		{Name: "x", Kind: KindInt},
		{Name: "d", Kind: KindInt, Derived: true, FeatureCol: "missing", Domain: 2},
	}); err == nil {
		t.Error("bad feature column must fail")
	}
	if _, err := db.Insert("Missing", 0); err == nil {
		t.Error("unknown relation must fail")
	}
	if err := db.RegisterEnrichment("Missing", "d"); err == nil {
		t.Error("register on unknown relation must fail")
	}
}

func TestQueryWithoutEnrichment(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	rows, err := db.Query("SELECT * FROM Reviews WHERE rating = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Errorf("unenriched query must see NULLs: %d rows", rows.Len())
	}
	all, err := db.Query("SELECT id, store FROM Reviews WHERE day < 10")
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() == 0 {
		t.Error("fixed-attribute query must work")
	}
	if cols := all.Columns(); len(cols) != 2 || cols[0] != "id" {
		t.Errorf("columns: %v", cols)
	}
}

func TestQueryLoosePublic(t *testing.T) {
	db, _, truth := buildReviewDB(t)
	res, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1 AND day < 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.Enrichments == 0 {
		t.Fatal("no enrichments")
	}
	if res.Len() == 0 {
		t.Fatal("no results")
	}
	// Most returned rows should actually be class 1.
	correct := 0
	for i := 0; i < res.Len(); i++ {
		id := res.TIDs(i)[0]
		if truth[id-1] == 1 {
			correct++
		}
	}
	if acc := float64(correct) / float64(res.Len()); acc < 0.7 {
		t.Errorf("precision vs ground truth %.2f", acc)
	}
	if res.Timing.Total() <= 0 {
		t.Error("timing missing")
	}
}

func TestQueryTightPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	res, err := db.QueryTight("SELECT * FROM Reviews WHERE rating = 1 AND day < 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.Enrichments == 0 || res.UDFInvocations == 0 {
		t.Errorf("enrichments=%d udf=%d", res.Enrichments, res.UDFInvocations)
	}
	// Second run reuses state.
	res2, err := db.QueryTight("SELECT * FROM Reviews WHERE rating = 1 AND day < 20")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Enrichments != 0 {
		t.Errorf("second run enriched %d", res2.Enrichments)
	}
	if res2.Len() != res.Len() {
		t.Errorf("results drifted: %d vs %d", res.Len(), res2.Len())
	}
}

func TestExplainTightPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	ex, err := db.ExplainTight("SELECT * FROM Reviews WHERE rating = 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"read_udf", "CheckState", "Scan Reviews"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain missing %q:\n%s", want, ex)
		}
	}
}

func TestQueryProgressivePublic(t *testing.T) {
	db, _, truth := buildReviewDB(t)
	want := make(map[int64]bool)
	for i, label := range truth {
		if label == 1 {
			want[int64(i+1)] = true
		}
	}
	quality := func(rows *Rows) float64 {
		if rows.Len() == 0 {
			return 0
		}
		hit := 0
		for i := 0; i < rows.Len(); i++ {
			if want[rows.TIDs(i)[0]] {
				hit++
			}
		}
		return float64(hit) / float64(len(want))
	}
	var epochs int
	res, err := db.QueryProgressive("SELECT * FROM Reviews WHERE rating = 1", ProgressiveOptions{
		Design:      LooseDesign,
		Strategy:    FunctionOrdered,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   200,
		Quality:     quality,
		OnEpoch:     func(Epoch) { epochs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs == 0 || len(res.Epochs) != epochs {
		t.Errorf("epoch callbacks: %d vs %d reports", epochs, len(res.Epochs))
	}
	if res.TotalEnrichments == 0 {
		t.Fatal("no enrichment")
	}
	if last := res.Quality[len(res.Quality)-1]; last < 0.6 {
		t.Errorf("final recall %.2f", last)
	}
	if res.Score() <= 0 {
		t.Errorf("progressive score %v", res.Score())
	}
	if res.Overhead.Setup <= 0 {
		t.Error("overhead not reported")
	}
}

func TestProgressiveTightPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	res, err := db.QueryProgressive("SELECT * FROM Reviews WHERE rating = 1 AND day < 20", ProgressiveOptions{
		Design:      TightDesign,
		EpochBudget: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnrichments == 0 {
		t.Error("tight progressive did not enrich")
	}
	// The final answer matches a plain re-read.
	rows, err := db.Query("SELECT * FROM Reviews WHERE rating = 1 AND day < 20")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != res.Len() {
		t.Errorf("progressive answer %d vs re-read %d", res.Len(), rows.Len())
	}
}

func TestRemoteEnrichmentServerPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	defer db.Close()
	addr, err := db.ServeEnrichment("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ConnectEnrichmentServer(addr, 0); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 0 AND day < 15")
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Network <= 0 {
		t.Error("remote execution must report network time")
	}
	db.UseLocalEnrichment()
	res2, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 0 AND day >= 15")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Timing.Network != 0 {
		t.Error("local enrichment must not report network time")
	}
}

func TestUpdateResetsState(t *testing.T) {
	db, dataX, _ := buildReviewDB(t)
	if _, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1"); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Enrichments
	// Updating a fixed attribute resets the tuple's enrichment state.
	if err := db.Update("Reviews", 1, "features", Vector(dataX[5])); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT rating FROM Reviews WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || !rows.At(0)[0].IsNull() {
		t.Error("derived value must be cleared after a base update")
	}
	// Re-querying re-enriches just that tuple.
	if _, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1"); err != nil {
		t.Fatal(err)
	}
	delta := db.Stats().Enrichments - before
	if delta == 0 {
		t.Error("updated tuple must be re-enriched")
	}
	if delta > 4 {
		t.Errorf("only the updated tuple should re-enrich, got %d executions", delta)
	}
}

func TestDeletePublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	if err := db.Delete("Reviews", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("Reviews", 1); err == nil {
		t.Error("double delete must fail")
	}
	rows, _ := db.Query("SELECT * FROM Reviews WHERE id = 1")
	if rows.Len() != 0 {
		t.Error("deleted tuple still visible")
	}
}

// TestReinsertAfterDelete: a delete retires the tuple's enrichment state at
// an advanced generation (sessions still holding the tuple must not read the
// emptied state as determined); reusing the id must start fresh state at the
// new tuple's generation, so its enrichment is kept like any other tuple's.
func TestReinsertAfterDelete(t *testing.T) {
	db, dataX, _ := buildReviewDB(t)
	const q = "SELECT id, rating FROM Reviews WHERE id = 1 AND rating >= 0"
	if _, err := db.QueryLoose(q); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("Reviews", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("Reviews", 1, Int(1), Vector(dataX[5]), String("north"), Int(3), Null); err != nil {
		t.Fatal(err)
	}
	first, err := db.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 1 || first.Enrichments != 2 {
		t.Fatalf("re-inserted tuple: %d rows, %d enrichments, want 1 row enriched by both functions", first.Len(), first.Enrichments)
	}
	again, err := db.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 1 || again.Enrichments != 0 {
		t.Fatalf("second query: %d rows, %d enrichments, want the kept enrichment reused", again.Len(), again.Enrichments)
	}
}

func TestStateCutoffPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	db.SetStateCutoff(0.4)
	if _, err := db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.StateSizeBytes <= 0 {
		t.Error("state size not reported")
	}
}

func TestStatsSkipped(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1")
	db.QueryLoose("SELECT * FROM Reviews WHERE rating = 1")
	st := db.Stats()
	if st.Enrichments == 0 {
		t.Error("no enrichments recorded")
	}
}

func TestCreateIndexPublic(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	if err := db.CreateIndex("Reviews", "store"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Reviews", "rating"); err == nil {
		t.Error("indexing a derived column must fail")
	}
	if err := db.CreateIndex("Missing", "x"); err == nil {
		t.Error("unknown relation must fail")
	}
}
