// Persistence: enrichment work survives process restarts.
//
// A first "process" enriches part of the data at query time and saves a
// snapshot (tuples + enrichment state; models are code and are simply
// re-registered). A second "process" loads the snapshot: previously
// enriched answers are free, and only uncovered tuples pay for new queries.
// The demo also shows arbitrary-epoch delta cursors (DeltaSince).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"enrichdb"
)

const (
	classes    = 3
	featureDim = 6
	records    = 1500
)

// buildInstance creates a schema + trained-model instance. Both "processes"
// call it with the same seed, so their models are identical — exactly how a
// deployed service would ship the same model artifact.
func buildInstance(seed int64, insertData bool) (*enrichdb.DB, func(c int) []float64) {
	db := enrichdb.Open()
	err := db.CreateRelation("Docs", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "vec", Kind: enrichdb.KindVector},
		{Name: "shard", Kind: enrichdb.KindInt},
		{Name: "label", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "vec", Domain: classes},
	})
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, featureDim)
		for f := range centers[c] {
			centers[c][f] = r.NormFloat64() * 3
		}
	}
	vec := func(c int) []float64 {
		out := make([]float64, featureDim)
		for f := range out {
			out[f] = centers[c][f] + r.NormFloat64()
		}
		return out
	}
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		c := r.Intn(classes)
		X = append(X, vec(c))
		y = append(y, c)
	}
	model := enrichdb.NewMLP(10, seed)
	if err := model.Fit(X, y, classes); err != nil {
		log.Fatal(err)
	}
	if err := db.RegisterEnrichment("Docs", "label", enrichdb.Function{
		Model: model, Quality: enrichdb.Accuracy(model, X, y),
	}); err != nil {
		log.Fatal(err)
	}
	if insertData {
		for i := 1; i <= records; i++ {
			if _, err := db.Insert("Docs", int64(i),
				enrichdb.Int(int64(i)), enrichdb.Vector(vec(r.Intn(classes))),
				enrichdb.Int(int64(i%10)), enrichdb.Null); err != nil {
				log.Fatal(err)
			}
		}
	}
	return db, vec
}

func main() {
	// ---- process 1: enrich progressively, watch deltas, save. ----
	db1, _ := buildInstance(5, true)
	res, err := db1.Run(context.Background(), enrichdb.ProgressiveDesign, "SELECT id FROM Docs WHERE label = 1 AND shard < 5",
		enrichdb.QueryObs{Progressive: enrichdb.ProgressiveOptions{
			Design:      enrichdb.LooseDesign,
			Strategy:    enrichdb.BenefitOrdered,
			EpochBudget: 100 * time.Microsecond,
		}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 1: %d rows over %d epochs, %d enrichments\n",
		res.Len(), len(res.Epochs), res.Enrichments)

	// Delta cursor: what changed after the first half of the run?
	half := len(res.Epochs) / 2
	ins, del := res.DeltaSince(half)
	fmt.Printf("process 1: since epoch %d the answer gained %d rows and lost %d\n",
		half, ins.Len(), del.Len())

	var snapshot bytes.Buffer
	if err := db1.SaveSnapshot(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 1: snapshot is %d bytes (tuples + enrichment state)\n\n", snapshot.Len())

	// ---- process 2: fresh instance, load, query. ----
	db2, _ := buildInstance(5, false) // same models, no data
	if err := db2.LoadSnapshot(bytes.NewReader(snapshot.Bytes())); err != nil {
		log.Fatal(err)
	}
	// The query process 1 already paid for is free now.
	warm, err := db2.QueryLoose("SELECT id FROM Docs WHERE label = 1 AND shard < 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 2: warm query  — %d rows, %d enrichments (state restored)\n",
		warm.Len(), warm.Enrichments)
	// A query over uncovered shards pays only for the new tuples.
	cold, err := db2.QueryLoose("SELECT id FROM Docs WHERE label = 1 AND shard >= 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 2: cold query  — %d rows, %d enrichments (only uncovered tuples)\n",
		cold.Len(), cold.Enrichments)
	st := db2.Stats()
	fmt.Printf("process 2: state now covers %d executions, %d skipped duplicates\n",
		st.Enrichments+warm.Enrichments, st.Skipped)
}
