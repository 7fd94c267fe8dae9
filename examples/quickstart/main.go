// Quickstart: define a relation with a derived attribute, register an
// enrichment function, and query it — enrichment happens at query time, not
// at ingestion. Pass -trace trace.jsonl to record structured spans for every
// pipeline phase (pretty-print them with cmd/tracefmt).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"enrichdb"
	"enrichdb/internal/telemetry"
)

func main() {
	traceFile := flag.String("trace", "", "write JSONL spans to this file")
	flag.Parse()

	db := enrichdb.Open()
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		db.SetTracer(telemetry.NewTracer(telemetry.NewJSONLSink(f)))
		fmt.Fprintf(os.Stderr, "tracing spans to %s\n", *traceFile)
	}

	// A Messages relation: `category` is derived — NULL at ingestion, filled
	// by an ML classifier over the `embedding` column when a query needs it.
	err := db.CreateRelation("Messages", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "embedding", Kind: enrichdb.KindVector},
		{Name: "channel", Kind: enrichdb.KindString},
		{Name: "category", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: 3},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Train a classifier on labelled data (here: synthetic 3-class blobs).
	r := rand.New(rand.NewSource(1))
	centers := [][]float64{{-4, 0}, {0, 4}, {4, 0}}
	sample := func(c int) []float64 {
		return []float64{centers[c][0] + r.NormFloat64(), centers[c][1] + r.NormFloat64()}
	}
	var trainX [][]float64
	var trainY []int
	for i := 0; i < 300; i++ {
		c := i % 3
		trainX = append(trainX, sample(c))
		trainY = append(trainY, c)
	}
	model := enrichdb.NewGNB()
	if err := model.Fit(trainX, trainY, 3); err != nil {
		log.Fatal(err)
	}
	err = db.RegisterEnrichment("Messages", "category", enrichdb.Function{
		Model:   model,
		Quality: enrichdb.Accuracy(model, trainX, trainY),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest fast: no model runs here.
	channels := []string{"alerts", "chat"}
	for i := 1; i <= 1000; i++ {
		_, err := db.Insert("Messages", int64(i),
			enrichdb.Int(int64(i)),
			enrichdb.Vector(sample(r.Intn(3))),
			enrichdb.String(channels[i%2]),
			enrichdb.Null, // category: enriched at query time
		)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Query with the loose design: probe queries find the minimal tuple set
	// (only `alerts` messages here), the enrichment server classifies them
	// in batch, and the query runs.
	res, err := db.QueryLoose("SELECT id, channel FROM Messages WHERE category = 2 AND channel = 'alerts'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loose:  %d rows, %d enrichments, %v total\n",
		res.Len(), res.Enrichments, res.Timing.Total().Round(0))

	// The same query again is free: the state table remembers what ran.
	res2, err := db.QueryLoose("SELECT id, channel FROM Messages WHERE category = 2 AND channel = 'alerts'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("again:  %d rows, %d enrichments (prior work reused)\n",
		res2.Len(), res2.Enrichments)

	// The tight design enriches lazily inside predicate evaluation instead.
	res3, err := db.QueryTight("SELECT id FROM Messages WHERE category = 0 AND channel = 'chat'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tight:  %d rows, %d enrichments, %d UDF calls\n",
		res3.Len(), res3.Enrichments, res3.UDFInvocations)

	// Late-arriving data lands un-enriched; a progressive run refines the
	// answer epoch by epoch as enrichment catches up, and OnEpoch observes
	// each refinement while the run is still in progress.
	for i := 1001; i <= 1400; i++ {
		if _, err := db.Insert("Messages", int64(i),
			enrichdb.Int(int64(i)),
			enrichdb.Vector(sample(r.Intn(3))),
			enrichdb.String(channels[i%2]),
			enrichdb.Null,
		); err != nil {
			log.Fatal(err)
		}
	}
	res4, err := db.Run(context.Background(), enrichdb.ProgressiveDesign, "SELECT id FROM Messages WHERE category = 1",
		enrichdb.QueryObs{Progressive: enrichdb.ProgressiveOptions{
			EpochBudget: 100 * time.Microsecond,
			MaxEpochs:   8,
			OnEpoch: func(e enrichdb.Epoch) {
				fmt.Printf("  epoch %d: +%d/-%d rows, %d enrichments\n",
					e.N, e.Inserted, e.Deleted, e.Enrichments)
			},
		}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("progressive: %d rows after %d epochs\n", res4.Len(), len(res4.Epochs))
}
