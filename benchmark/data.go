package main

import (
	"fmt"
	"math/rand"

	"enrichdb"
	"enrichdb/internal/catalog"
	"enrichdb/internal/enrich"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// The tweets relation: hour, region and embedding are fixed, sentiment and
// topic are derived from the embedding by the registered function families.
const (
	embDim      = 8
	sentDomain  = 2
	topicDomain = 4
	numRegions  = 8
	combos      = sentDomain * topicDomain
	// classSep is the distance of a class centre from the origin, in noise
	// standard deviations: classes overlap a little, so classifiers err and
	// F1 against ground truth stays below 1.
	classSep = 3.0
)

// tweet is one generated row plus its recorded ground truth.
type tweet struct {
	id, hour, region int64
	emb              []float64
	sent, topic      int
}

// embedding draws a point of the (sent, topic) class: sentiment separates
// along dimensions 0..sentDomain-1, topic along the next topicDomain ones.
func embedding(rng *rand.Rand, sent, topic int) []float64 {
	e := make([]float64, embDim)
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	e[sent] += classSep
	e[sentDomain+topic] += classSep
	return e
}

// genTweets generates n rows over `hours` hour values with ids from firstID.
// The layout is exactly balanced: every hour holds n/hours rows and, within
// an hour, every (sentiment, topic) class the same number (n must be a
// multiple of hours*combos). Only the embeddings' noise and the insertion
// order depend on the seed, so every seed gives a query the same amount of
// work up to classifier error.
func genTweets(rng *rand.Rand, n, hours int, firstID int64) []tweet {
	if n%(hours*combos) != 0 {
		panic(fmt.Sprintf("benchmark: %d rows do not balance over %d hours x %d classes", n, hours, combos))
	}
	rows := make([]tweet, n)
	for i := range rows {
		c := (i / hours) % combos
		rows[i] = tweet{
			hour: int64(i % hours), region: int64(rng.Intn(numRegions)),
			sent: c % sentDomain, topic: c / sentDomain,
		}
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for i := range rows {
		rows[i].id = firstID + int64(i)
		rows[i].emb = embedding(rng, rows[i].sent, rows[i].topic)
	}
	return rows
}

// trainingSet draws a balanced labelled sample for one derived attribute.
func trainingSet(rng *rand.Rand, n int, attr string) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % combos
		s, t := c%sentDomain, c/sentDomain
		X[i] = embedding(rng, s, t)
		if attr == "sentiment" {
			y[i] = s
		} else {
			y[i] = t
		}
	}
	return X, y
}

// models is the trained function families of one set-up, cheapest first.
type models struct {
	sentiment, topic []enrichdb.Function
}

// modelSpec names which families a workload registers.
type modelSpec struct {
	// graded registers the four-function family GNB → DecisionTree →
	// RandomForest → MLP on both attributes (progressive); otherwise one
	// function per attribute, GNB for sentiment and KNN for topic.
	graded bool
	// trainN is the training-set size. KNN scans it on every prediction, so
	// it also sets how costly one topic enrichment is.
	trainN int
}

func trainModels(rng *rand.Rand, spec modelSpec) (models, error) {
	var m models
	for _, attr := range []string{"sentiment", "topic"} {
		domain := sentDomain
		if attr == "topic" {
			domain = topicDomain
		}
		X, y := trainingSet(rng, spec.trainN, attr)
		var cs []enrichdb.Classifier
		switch {
		case spec.graded:
			cs = []enrichdb.Classifier{enrichdb.NewGNB(), enrichdb.NewDecisionTree(6),
				enrichdb.NewRandomForest(8, 6, rng.Int63()), enrichdb.NewMLP(16, rng.Int63())}
		case attr == "sentiment":
			cs = []enrichdb.Classifier{enrichdb.NewGNB()}
		default:
			cs = []enrichdb.Classifier{enrichdb.NewKNN(5)}
		}
		fns := make([]enrichdb.Function, len(cs))
		for i, c := range cs {
			if err := c.Fit(X, y, domain); err != nil {
				return m, fmt.Errorf("train %s for %s: %w", c.Name(), attr, err)
			}
			// Accuracy on a slice of the training set: only its order across the
			// family matters (function-ordered planning), and KNN pays a full
			// scan per prediction.
			v := min(len(X), 128)
			fns[i] = enrichdb.Function{Model: c, Quality: enrichdb.Accuracy(c, X[:v], y[:v])}
		}
		if attr == "sentiment" {
			m.sentiment = fns
		} else {
			m.topic = fns
		}
	}
	return m, nil
}

func tweetColumns() []enrichdb.Column {
	return []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "hour", Kind: enrichdb.KindInt},
		{Name: "region", Kind: enrichdb.KindInt},
		{Name: "embedding", Kind: enrichdb.KindVector},
		{Name: "sentiment", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: sentDomain},
		{Name: "topic", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: topicDomain},
	}
}

func tweetValues(t tweet) []enrichdb.Value {
	return []enrichdb.Value{enrichdb.Int(t.id), enrichdb.Int(t.hour), enrichdb.Int(t.region),
		enrichdb.Vector(t.emb), enrichdb.Null, enrichdb.Null}
}

// insertTweets stores rows un-enriched through the public write path.
func insertTweets(db *enrichdb.DB, rows []tweet) error {
	for _, t := range rows {
		if _, err := db.Insert("tweets", t.id, tweetValues(t)...); err != nil {
			return fmt.Errorf("insert tweet %d: %w", t.id, err)
		}
	}
	return nil
}

// loadDB builds the served database through the public API: schema,
// families, the regions lookup and the tweets. shards > 1 opens it sharded.
func loadDB(rows []tweet, m models, shards int) (*enrichdb.DB, error) {
	db := enrichdb.Open()
	if shards > 1 {
		var err error
		if db, err = enrichdb.OpenSharded(enrichdb.ShardConfig{Shards: shards}); err != nil {
			return nil, err
		}
	}
	err := db.CreateRelation("tweets", tweetColumns())
	if err == nil {
		err = db.CreateRelation("regions", []enrichdb.Column{
			{Name: "id", Kind: enrichdb.KindInt}, {Name: "name", Kind: enrichdb.KindString}})
	}
	if err == nil {
		err = db.RegisterEnrichment("tweets", "sentiment", m.sentiment...)
	}
	if err == nil {
		err = db.RegisterEnrichment("tweets", "topic", m.topic...)
	}
	for r := int64(0); err == nil && r < numRegions; r++ {
		_, err = db.Insert("regions", r+1, enrichdb.Int(r), enrichdb.String(fmt.Sprintf("region-%d", r)))
	}
	if err == nil {
		err = insertTweets(db, rows)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// twin is the layer replay's store: the same rows and the same trained
// models as the served database, held as the internal storage and manager
// values the layers' entry points take (the public DB does not expose them).
type twin struct {
	store storage.Store
	mgr   *enrich.Manager
}

func loadTwin(store storage.Store, rows []tweet, m models) (*twin, error) {
	cols := tweetColumns()
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cc[i] = catalog.Column{Name: c.Name, Kind: c.Kind, Derived: c.Derived, FeatureCol: c.FeatureCol, Domain: c.Domain}
	}
	schema, err := catalog.NewSchema("tweets", cc)
	if err != nil {
		return nil, err
	}
	tw := &twin{store: store, mgr: enrich.NewManager()}
	tbl, err := store.CreateBase(schema)
	if err != nil {
		return nil, err
	}
	for attr, fns := range map[string][]enrichdb.Function{"sentiment": m.sentiment, "topic": m.topic} {
		efs := make([]*enrich.Function, len(fns))
		for i, f := range fns {
			efs[i] = &enrich.Function{Name: f.Model.Name(), Model: f.Model, Quality: f.Quality}
		}
		fam, err := enrich.NewFamily("tweets", attr, schema.Col(attr).Domain, enrich.AvgProb{}, efs...)
		if err != nil {
			return nil, err
		}
		if err := tw.mgr.Register(fam); err != nil {
			return nil, err
		}
	}
	for _, t := range rows {
		if _, err := tbl.Insert(&types.Tuple{ID: t.id, Vals: tweetValues(t)}); err != nil {
			return nil, err
		}
	}
	return tw, nil
}
