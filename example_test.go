package enrichdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"enrichdb"
)

// buildExampleDB assembles a tiny database with one derived attribute for
// the godoc examples.
func buildExampleDB() *enrichdb.DB {
	db := enrichdb.Open()
	if err := db.CreateRelation("Items", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "vec", Kind: enrichdb.KindVector},
		{Name: "bucket", Kind: enrichdb.KindInt},
		{Name: "class", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "vec", Domain: 2},
	}); err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(4))
	sample := func(c int) []float64 {
		base := float64(c*8 - 4)
		return []float64{base + r.NormFloat64(), base + r.NormFloat64()}
	}
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		c := i % 2
		X = append(X, sample(c))
		y = append(y, c)
	}
	model := enrichdb.NewGNB()
	if err := model.Fit(X, y, 2); err != nil {
		panic(err)
	}
	if err := db.RegisterEnrichment("Items", "class", enrichdb.Function{
		Model: model, Quality: enrichdb.Accuracy(model, X, y),
	}); err != nil {
		panic(err)
	}
	for i := 1; i <= 100; i++ {
		if _, err := db.Insert("Items", int64(i),
			enrichdb.Int(int64(i)), enrichdb.Vector(sample(i%2)),
			enrichdb.Int(int64(i%4)), enrichdb.Null); err != nil {
			panic(err)
		}
	}
	return db
}

// Queries enrich lazily: the first run executes the classifier for exactly
// the tuples the query needs, the second run reuses the state.
func ExampleDB_QueryLoose() {
	db := buildExampleDB()
	first, _ := db.QueryLoose("SELECT id FROM Items WHERE class = 1 AND bucket = 0")
	again, _ := db.QueryLoose("SELECT id FROM Items WHERE class = 1 AND bucket = 0")
	fmt.Println(first.Len() == again.Len(), first.Enrichments > 0, again.Enrichments)
	// Output: true true 0
}

// The tight design evaluates predicates with short-circuiting UDFs.
func ExampleDB_QueryTight() {
	db := buildExampleDB()
	res, _ := db.QueryTight("SELECT id FROM Items WHERE class = 0 AND bucket IN (1, 2)")
	fmt.Println(res.Len() > 0, res.Enrichments > 0, res.UDFInvocations > res.Enrichments)
	// Output: true true true
}

// Progressive execution refines the answer across epochs; the progressive
// score summarizes how quickly quality arrived.
func ExampleDB_Run_progressive() {
	db := buildExampleDB()
	res, _ := db.Run(context.Background(), enrichdb.ProgressiveDesign, "SELECT id FROM Items WHERE class = 1",
		enrichdb.QueryObs{Progressive: enrichdb.ProgressiveOptions{
			Strategy:    enrichdb.FunctionOrdered,
			EpochBudget: time.Millisecond,
		}})
	fmt.Println(res.Len() > 0, len(res.Epochs) >= 1, res.Enrichments > 0)
	// Output: true true true
}
