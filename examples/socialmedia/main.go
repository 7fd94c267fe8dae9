// Social-media analytics: progressive query-time enrichment of tweets.
//
// The scenario of the paper's introduction: tweets stream in far too fast to
// run sentiment and topic models at ingestion. Analysts query immediately;
// enrichment happens progressively, in epochs, and the answer sharpens while
// they watch. A function family per attribute (cheap GNB → expensive MLP)
// lets early epochs produce a rough answer fast.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"enrichdb"
)

const (
	sentimentClasses = 3
	topicClasses     = 5
	featureDim       = 10
	tweetCount       = 3000
)

func main() {
	db := enrichdb.Open()
	err := db.CreateRelation("Tweets", []enrichdb.Column{
		{Name: "tid", Kind: enrichdb.KindInt},
		{Name: "embedding", Kind: enrichdb.KindVector},
		{Name: "hour", Kind: enrichdb.KindInt},
		{Name: "sentiment", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: sentimentClasses},
		{Name: "topic", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: topicClasses},
	})
	if err != nil {
		log.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	// Per-class Gaussian centers: the first half of the embedding carries
	// the sentiment signal, the second half the topic signal.
	sentC := centers(r, sentimentClasses, featureDim/2)
	topC := centers(r, topicClasses, featureDim-featureDim/2)
	embed := func(s, tp int) []float64 {
		out := make([]float64, 0, featureDim)
		for _, v := range sentC[s] {
			out = append(out, v+r.NormFloat64())
		}
		for _, v := range topC[tp] {
			out = append(out, v+r.NormFloat64())
		}
		return out
	}

	// Train a cost/quality-graded family per derived attribute.
	trainFamily := func(attr string, classes int, label func(s, tp int) int, models ...enrichdb.Classifier) {
		var X [][]float64
		var y []int
		for i := 0; i < classes*60; i++ {
			s, tp := r.Intn(sentimentClasses), r.Intn(topicClasses)
			X = append(X, embed(s, tp))
			y = append(y, label(s, tp))
		}
		fns := make([]enrichdb.Function, len(models))
		for i, m := range models {
			if err := m.Fit(X, y, classes); err != nil {
				log.Fatal(err)
			}
			fns[i] = enrichdb.Function{Model: m, Quality: enrichdb.Accuracy(m, X, y)}
		}
		if err := db.RegisterEnrichment("Tweets", attr, fns...); err != nil {
			log.Fatal(err)
		}
	}
	trainFamily("sentiment", sentimentClasses, func(s, _ int) int { return s },
		enrichdb.NewGNB(), enrichdb.NewDecisionTree(6), enrichdb.NewMLP(12, 3))
	trainFamily("topic", topicClasses, func(_, tp int) int { return tp },
		enrichdb.NewGNB(), enrichdb.NewLogisticRegression(5))

	// Ingest the stream; record ground truth to score the answer.
	truth := make(map[int64]bool)
	for i := 1; i <= tweetCount; i++ {
		s, tp := r.Intn(sentimentClasses), r.Intn(topicClasses)
		tid := int64(i)
		hour := int64(r.Intn(24))
		if s == 1 && tp == 2 && hour < 12 {
			truth[tid] = true
		}
		_, err := db.Insert("Tweets", tid,
			enrichdb.Int(tid), enrichdb.Vector(embed(s, tp)), enrichdb.Int(hour),
			enrichdb.Null, enrichdb.Null)
		if err != nil {
			log.Fatal(err)
		}
	}

	// The analyst's question, answered progressively.
	query := "SELECT * FROM Tweets WHERE sentiment = 1 AND topic = 2 AND hour < 12"
	recall := func(rows *enrichdb.Rows) float64 {
		if len(truth) == 0 {
			return 0
		}
		hit := 0
		for i := 0; i < rows.Len(); i++ {
			if truth[rows.TIDs(i)[0]] {
				hit++
			}
		}
		return float64(hit) / float64(len(truth))
	}

	fmt.Println("epoch  planned  enriched  recall   answer-delta")
	res, err := db.Run(context.Background(), enrichdb.ProgressiveDesign, query, enrichdb.QueryObs{Progressive: enrichdb.ProgressiveOptions{
		Design:      enrichdb.TightDesign,
		Strategy:    enrichdb.FunctionOrdered, // SB(FO): best quality/cost first
		EpochBudget: 300 * time.Microsecond,
		MaxEpochs:   100,
		Quality:     recall,
		OnEpoch: func(e enrichdb.Epoch) {
			if e.N%10 == 0 || e.N <= 5 {
				fmt.Printf("%5d  %7d  %8d  %.3f    +%d/-%d\n",
					e.N, e.Planned, e.Enrichments, e.Quality, e.Inserted, e.Deleted)
			}
		},
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal: %d rows after %d epochs, %d enrichments, PS=%.3f\n",
		res.Len(), len(res.Epochs), res.Enrichments, res.Score())
	fmt.Printf("overhead: setup=%v plan=%v delta=%v state=%v (enrich=%v)\n",
		res.Overhead.Setup.Round(time.Millisecond),
		res.Overhead.Plan.Round(time.Millisecond),
		res.Overhead.Delta.Round(time.Millisecond),
		res.Overhead.State.Round(time.Millisecond),
		res.Overhead.Enrich.Round(time.Millisecond))
}

func centers(r *rand.Rand, classes, dim int) [][]float64 {
	out := make([][]float64, classes)
	for c := range out {
		out[c] = make([]float64, dim)
		for f := range out[c] {
			out[c][f] = r.NormFloat64() * 3
		}
	}
	return out
}
