// Package dataset generates the synthetic stand-ins for the paper's
// evaluation datasets (Table 5): a TweetData relation with derived sentiment
// and topic, a MultiPie image relation with derived gender and expression,
// and a State lookup table. Feature vectors are drawn from per-class
// Gaussians so the ml classifiers reach realistic, imperfect,
// complexity-dependent accuracy, and every tuple's latent ground-truth label
// is recorded for the quality metrics (F1, RMSE) of §5.2.2.
package dataset

import (
	"fmt"
	"math/rand"

	"enrichdb/internal/catalog"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Config controls dataset generation. Zero values take the documented
// defaults; scale the tuple counts up for benchmarks.
type Config struct {
	Seed   int64
	Tweets int // default 2000
	Images int // default 1000

	FeatureDim    int     // full feature-vector length; default 12 (split across the two derived attrs)
	TopicDomain   int     // default 10 (the paper's dataset uses 40)
	TimeRange     int64   // TweetTime uniform in [0, TimeRange); default 10000
	TrainPerClass int     // training samples per class for model fitting; default 40
	Noise         float64 // Gaussian noise around class centers; default 1.1
}

func (c Config) withDefaults() Config {
	if c.Tweets == 0 {
		c.Tweets = 2000
	}
	if c.Images == 0 {
		c.Images = 1000
	}
	if c.FeatureDim == 0 {
		c.FeatureDim = 12
	}
	if c.TopicDomain == 0 {
		c.TopicDomain = 10
	}
	if c.TimeRange == 0 {
		c.TimeRange = 10000
	}
	if c.TrainPerClass == 0 {
		c.TrainPerClass = 40
	}
	if c.Noise == 0 {
		c.Noise = 1.1
	}
	return c
}

// Domain sizes fixed by the paper's datasets.
const (
	SentimentDomain  = 3
	GenderDomain     = 2
	ExpressionDomain = 5
	CameraDomain     = 10
)

// cities are the State lookup rows; tweet locations sample from these.
var cities = []struct{ City, State string }{
	{"Irvine", "California"}, {"LosAngeles", "California"},
	{"SanDiego", "California"}, {"SanFrancisco", "California"},
	{"Austin", "Texas"}, {"Houston", "Texas"}, {"Dallas", "Texas"},
	{"NewYork", "NewYork"}, {"Buffalo", "NewYork"},
	{"Seattle", "Washington"}, {"Portland", "Oregon"}, {"Chicago", "Illinois"},
}

// Truth records the latent ground-truth labels of every derived attribute.
type Truth struct {
	m map[string]map[string]map[int64]int
}

func newTruth() *Truth { return &Truth{m: make(map[string]map[string]map[int64]int)} }

func (t *Truth) set(rel, attr string, tid int64, label int) {
	ra := t.m[rel]
	if ra == nil {
		ra = make(map[string]map[int64]int)
		t.m[rel] = ra
	}
	at := ra[attr]
	if at == nil {
		at = make(map[int64]int)
		ra[attr] = at
	}
	at[tid] = label
}

// Label returns the ground-truth class of (relation, attr, tuple).
func (t *Truth) Label(rel, attr string, tid int64) (int, bool) {
	l, ok := t.m[rel][attr][tid]
	return l, ok
}

// training is the labelled pool for fitting enrichment functions, disjoint
// from the table rows.
type training struct {
	X [][]float64
	y map[string][]int // attr -> labels
}

// Data is a generated database plus its ground truth and training pools.
type Data struct {
	Config Config
	DB     *storage.DB
	Truth  *Truth

	centers map[string][][]float64 // "<rel>.<attr>" -> class centers (half-width vectors)
	train   map[string]*training   // rel -> pool
	truthDB *storage.DB
}

// Generate builds the database.
func Generate(cfg Config) (*Data, error) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	d := &Data{
		Config:  cfg,
		DB:      storage.NewDB(),
		Truth:   newTruth(),
		centers: make(map[string][][]float64),
		train:   make(map[string]*training),
	}

	half := cfg.FeatureDim / 2
	d.centers["TweetData.topic"] = randCenters(r, cfg.TopicDomain, half)
	d.centers["TweetData.sentiment"] = randCenters(r, SentimentDomain, cfg.FeatureDim-half)
	d.centers["MultiPie.gender"] = randCenters(r, GenderDomain, half)
	d.centers["MultiPie.expression"] = randCenters(r, ExpressionDomain, cfg.FeatureDim-half)

	if err := d.genStates(); err != nil {
		return nil, err
	}
	if err := d.genTweets(r); err != nil {
		return nil, err
	}
	if err := d.genImages(r); err != nil {
		return nil, err
	}
	d.genTraining(r)
	return d, nil
}

func randCenters(r *rand.Rand, classes, dim int) [][]float64 {
	out := make([][]float64, classes)
	for c := range out {
		out[c] = make([]float64, dim)
		for f := range out[c] {
			out[c][f] = r.NormFloat64() * 2.5
		}
	}
	return out
}

// feature assembles a full vector from the two attribute signals plus noise.
func (d *Data) feature(r *rand.Rand, rel string, attrA string, classA int, attrB string, classB int) []float64 {
	ca := d.centers[rel+"."+attrA][classA]
	cb := d.centers[rel+"."+attrB][classB]
	out := make([]float64, 0, len(ca)+len(cb))
	for _, v := range ca {
		out = append(out, v+r.NormFloat64()*d.Config.Noise)
	}
	for _, v := range cb {
		out = append(out, v+r.NormFloat64()*d.Config.Noise)
	}
	return out
}

func (d *Data) genStates() error {
	schema := catalog.MustSchema("State", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "city", Kind: types.KindString},
		{Name: "state", Kind: types.KindString},
	})
	tbl, err := d.DB.CreateTable(schema)
	if err != nil {
		return err
	}
	for i, cs := range cities {
		if _, err := tbl.Insert(&types.Tuple{ID: int64(i + 1), Vals: []types.Value{
			types.NewInt(int64(i + 1)), types.NewString(cs.City), types.NewString(cs.State),
		}}); err != nil {
			return err
		}
	}
	return nil
}

func (d *Data) genTweets(r *rand.Rand) error {
	cfg := d.Config
	schema := catalog.MustSchema("TweetData", []catalog.Column{
		{Name: "tid", Kind: types.KindInt},
		{Name: "UserID", Kind: types.KindInt},
		{Name: "Tweet", Kind: types.KindString},
		{Name: "feature", Kind: types.KindVector},
		{Name: "location", Kind: types.KindString},
		{Name: "TweetTime", Kind: types.KindInt},
		{Name: "topic", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: cfg.TopicDomain},
		{Name: "sentiment", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: SentimentDomain},
	})
	tbl, err := d.DB.CreateTable(schema)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Tweets; i++ {
		tid := int64(i + 1)
		topic := r.Intn(cfg.TopicDomain)
		sentiment := r.Intn(SentimentDomain)
		d.Truth.set("TweetData", "topic", tid, topic)
		d.Truth.set("TweetData", "sentiment", tid, sentiment)
		loc := cities[r.Intn(len(cities))].City
		if _, err := tbl.Insert(&types.Tuple{ID: tid, Vals: []types.Value{
			types.NewInt(tid),
			types.NewInt(int64(r.Intn(1000))),
			types.NewString(fmt.Sprintf("tweet-%d", tid)),
			types.NewVector(d.feature(r, "TweetData", "topic", topic, "sentiment", sentiment)),
			types.NewString(loc),
			types.NewInt(r.Int63n(cfg.TimeRange)),
			types.Null,
			types.Null,
		}}); err != nil {
			return err
		}
	}
	return nil
}

func (d *Data) genImages(r *rand.Rand) error {
	cfg := d.Config
	schema := catalog.MustSchema("MultiPie", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "feature", Kind: types.KindVector},
		{Name: "CameraID", Kind: types.KindInt},
		{Name: "ImageTime", Kind: types.KindInt},
		{Name: "gender", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: GenderDomain},
		{Name: "expression", Kind: types.KindInt, Derived: true, FeatureCol: "feature", Domain: ExpressionDomain},
	})
	tbl, err := d.DB.CreateTable(schema)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Images; i++ {
		tid := int64(i + 1)
		gender := r.Intn(GenderDomain)
		expression := r.Intn(ExpressionDomain)
		d.Truth.set("MultiPie", "gender", tid, gender)
		d.Truth.set("MultiPie", "expression", tid, expression)
		if _, err := tbl.Insert(&types.Tuple{ID: tid, Vals: []types.Value{
			types.NewInt(tid),
			types.NewVector(d.feature(r, "MultiPie", "gender", gender, "expression", expression)),
			types.NewInt(int64(r.Intn(CameraDomain))),
			types.NewInt(r.Int63n(cfg.TimeRange)),
			types.Null,
			types.Null,
		}}); err != nil {
			return err
		}
	}
	return nil
}

// genTraining builds per-relation labelled pools from the same generative
// process (fresh samples, not table rows).
func (d *Data) genTraining(r *rand.Rand) {
	cfg := d.Config
	nTweet := cfg.TrainPerClass * cfg.TopicDomain * SentimentDomain
	tw := &training{y: map[string][]int{"topic": nil, "sentiment": nil}}
	for i := 0; i < nTweet; i++ {
		topic := i % cfg.TopicDomain
		sentiment := (i / cfg.TopicDomain) % SentimentDomain
		tw.X = append(tw.X, d.feature(r, "TweetData", "topic", topic, "sentiment", sentiment))
		tw.y["topic"] = append(tw.y["topic"], topic)
		tw.y["sentiment"] = append(tw.y["sentiment"], sentiment)
	}
	d.train["TweetData"] = tw

	nImg := cfg.TrainPerClass * GenderDomain * ExpressionDomain
	im := &training{y: map[string][]int{"gender": nil, "expression": nil}}
	for i := 0; i < nImg; i++ {
		gender := i % GenderDomain
		expression := (i / GenderDomain) % ExpressionDomain
		im.X = append(im.X, d.feature(r, "MultiPie", "gender", gender, "expression", expression))
		im.y["gender"] = append(im.y["gender"], gender)
		im.y["expression"] = append(im.y["expression"], expression)
	}
	d.train["MultiPie"] = im
}

// TrainingData returns the labelled pool for fitting enrichment functions of
// (relation, attr), with the class count.
func (d *Data) TrainingData(rel, attr string) (X [][]float64, y []int, classes int, err error) {
	tr := d.train[rel]
	if tr == nil {
		return nil, nil, 0, fmt.Errorf("dataset: no training pool for %s", rel)
	}
	labels, ok := tr.y[attr]
	if !ok {
		return nil, nil, 0, fmt.Errorf("dataset: no training labels for %s.%s", rel, attr)
	}
	schema := d.DB.Catalog().Schema(rel)
	col := schema.Col(attr)
	return tr.X, labels, col.Domain, nil
}

// Domain returns the class count of (relation, attr).
func (d *Data) Domain(rel, attr string) int {
	return d.DB.Catalog().Schema(rel).Col(attr).Domain
}

// TruthDB returns (and caches) a copy of the database with every derived
// attribute set to its ground-truth label — the oracle the quality metrics
// execute queries against.
func (d *Data) TruthDB() (*storage.DB, error) {
	if d.truthDB != nil {
		return d.truthDB, nil
	}
	tdb := storage.NewDB()
	for _, rel := range d.DB.Catalog().Relations() {
		schema := d.DB.Catalog().Schema(rel)
		src := d.DB.MustTable(rel)
		dst, err := tdb.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		for _, t := range storage.Tuples(src) {
			nt := t.Clone()
			for ci, col := range schema.Cols {
				if !col.Derived {
					continue
				}
				if label, ok := d.Truth.Label(rel, col.Name, t.ID); ok {
					nt.Vals[ci] = types.NewInt(int64(label))
				}
			}
			if _, err := dst.Insert(nt); err != nil {
				return nil, err
			}
		}
	}
	d.truthDB = tdb
	return tdb, nil
}
