// Multimedia analytics: loose vs tight architecture on an image workload.
//
// An Images relation carries derived gender and expression attributes (the
// paper's MultiPie scenario). The conjunctive predicate lets the tight
// design's lazy, short-circuiting enrichment skip work the loose design
// performs, while the loose design ships tuples to an enrichment server —
// here a real TCP server — and enriches them in batch.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"enrichdb"
)

const (
	genderClasses     = 2
	expressionClasses = 4
	featureDim        = 8
	imageCount        = 2000
)

// buildDB creates one fully configured database instance; the comparison
// builds two identical ones so each design starts from cold state.
func buildDB(seed int64) *enrichdb.DB {
	db := enrichdb.Open()
	err := db.CreateRelation("Images", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "feat", Kind: enrichdb.KindVector},
		{Name: "camera", Kind: enrichdb.KindInt},
		{Name: "gender", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "feat", Domain: genderClasses},
		{Name: "expression", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "feat", Domain: expressionClasses},
	})
	if err != nil {
		log.Fatal(err)
	}

	r := rand.New(rand.NewSource(seed))
	gc := make([][]float64, genderClasses)
	ec := make([][]float64, expressionClasses)
	for c := range gc {
		gc[c] = []float64{r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3}
	}
	for c := range ec {
		ec[c] = []float64{r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3, r.NormFloat64() * 3}
	}
	feat := func(g, e int) []float64 {
		out := make([]float64, 0, featureDim)
		for _, v := range gc[g] {
			out = append(out, v+r.NormFloat64())
		}
		for _, v := range ec[e] {
			out = append(out, v+r.NormFloat64())
		}
		return out
	}

	train := func(attr string, classes int, label func(g, e int) int, model enrichdb.Classifier) {
		var X [][]float64
		var y []int
		for i := 0; i < classes*80; i++ {
			g, e := r.Intn(genderClasses), r.Intn(expressionClasses)
			X = append(X, feat(g, e))
			y = append(y, label(g, e))
		}
		if err := model.Fit(X, y, classes); err != nil {
			log.Fatal(err)
		}
		err := db.RegisterEnrichment("Images", attr, enrichdb.Function{
			Model: model, Quality: enrichdb.Accuracy(model, X, y),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	// The paper's Exp 1 setup: an expensive model per attribute.
	train("gender", genderClasses, func(g, _ int) int { return g }, enrichdb.NewMLP(16, seed))
	train("expression", expressionClasses, func(_, e int) int { return e }, enrichdb.NewRandomForest(10, 8, seed))

	for i := 1; i <= imageCount; i++ {
		g, e := r.Intn(genderClasses), r.Intn(expressionClasses)
		_, err := db.Insert("Images", int64(i),
			enrichdb.Int(int64(i)), enrichdb.Vector(feat(g, e)), enrichdb.Int(int64(r.Intn(10))),
			enrichdb.Null, enrichdb.Null)
		if err != nil {
			log.Fatal(err)
		}
	}
	return db
}

func main() {
	// The paper's Q2: two derived predicates plus a fixed one.
	query := "SELECT * FROM Images WHERE gender = 1 AND expression = 2 AND camera < 8"

	// Tight design: enrichment inside predicate evaluation. Images failing
	// gender=1 never pay for expression enrichment.
	tightDB := buildDB(99)
	tres, err := tightDB.QueryTight(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tight:  %4d rows  %5d enrichments  %6d UDF calls  %v\n",
		tres.Len(), tres.Enrichments, tres.UDFInvocations, tres.Timing.Total().Round(0))

	// Loose design over a real TCP enrichment server: probe queries select
	// the camera<8 images, the server enriches both attributes in batch.
	// The client carries production fault tolerance: a per-call deadline,
	// retries with backoff, and automatic re-dial if the server restarts.
	looseDB := buildDB(99)
	defer looseDB.Close()
	srv, err := looseDB.ServeEnrichment("127.0.0.1:0", enrichdb.EnrichmentServerConfig{
		MaxConns: 16, DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	err = looseDB.ConnectEnrichmentServer(srv.Addr(), enrichdb.EnrichmentClientConfig{
		CallTimeout: 10 * time.Second, MaxRetries: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	lres, err := looseDB.QueryLoose(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loose:  %4d rows  %5d enrichments  (probe %v, server %v, network %v, dbms %v)\n",
		lres.Len(), lres.Enrichments,
		lres.Timing.Probe.Round(0), lres.Timing.Enrich.Round(0),
		lres.Timing.Network.Round(0), lres.Timing.DBMS.Round(0))
	// Enrichment is best-effort: had the server failed mid-query, the query
	// would still answer with the failed attributes left NULL and the count
	// surfaced here; re-running the query retries exactly that work.
	if lres.FailedEnrichments > 0 {
		fmt.Printf("loose:  %d enrichments failed (will be retried by the next query): %v\n",
			lres.FailedEnrichments, lres.EnrichErrors)
	}

	fmt.Printf("\ntight saved %d enrichments (%.0f%%) via lazy short-circuit evaluation\n",
		lres.Enrichments-tres.Enrichments,
		100*float64(lres.Enrichments-tres.Enrichments)/float64(lres.Enrichments))

	// Show the rewritten plan that makes it possible: EXPLAIN under the tight
	// design answers the plan that design runs, one line per row.
	plan, err := tightDB.QueryTight("EXPLAIN " + query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntight rewritten plan:")
	for i := 0; i < plan.Len(); i++ {
		fmt.Println(plan.At(i)[0].Str())
	}
}
