package dataset

import (
	"testing"

	"enrichdb/internal/enrich"
)

func smallData(t *testing.T) *Data {
	t.Helper()
	d, err := Generate(Config{
		Seed: 7, Tweets: 300, Images: 150, TopicDomain: 4, TrainPerClass: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShapes(t *testing.T) {
	d := smallData(t)
	if got := d.DB.MustTable("TweetData").Len(); got != 300 {
		t.Errorf("tweets: %d", got)
	}
	if got := d.DB.MustTable("MultiPie").Len(); got != 150 {
		t.Errorf("images: %d", got)
	}
	if got := d.DB.MustTable("State").Len(); got != len(cities) {
		t.Errorf("states: %d", got)
	}
	// Derived attributes start NULL.
	tw := d.DB.MustTable("TweetData")
	schema := tw.Schema()
	ti := schema.ColIndex("topic")
	si := schema.ColIndex("sentiment")
	tu := tw.Get(1)
	if !tu.Vals[ti].IsNull() || !tu.Vals[si].IsNull() {
		t.Error("derived attributes must start NULL")
	}
	// Feature vectors have the configured dimension.
	fi := schema.ColIndex("feature")
	if got := len(tu.Vals[fi].Vector()); got != 12 {
		t.Errorf("feature dim: %d", got)
	}
}

func TestTruthRecorded(t *testing.T) {
	d := smallData(t)
	for tid := int64(1); tid <= 300; tid++ {
		topic, ok1 := d.Truth.Label("TweetData", "topic", tid)
		sentiment, ok2 := d.Truth.Label("TweetData", "sentiment", tid)
		if !ok1 || !ok2 {
			t.Fatalf("missing truth for tweet %d", tid)
		}
		if topic < 0 || topic >= 4 || sentiment < 0 || sentiment >= SentimentDomain {
			t.Fatalf("truth out of domain: topic=%d sentiment=%d", topic, sentiment)
		}
	}
	if _, ok := d.Truth.Label("TweetData", "topic", 99999); ok {
		t.Error("unknown tuple must have no truth")
	}
}

func TestTruthDB(t *testing.T) {
	d := smallData(t)
	tdb, err := d.TruthDB()
	if err != nil {
		t.Fatal(err)
	}
	tw := tdb.MustTable("TweetData")
	schema := tw.Schema()
	ti := schema.ColIndex("topic")
	for tid := int64(1); tid <= 10; tid++ {
		want, _ := d.Truth.Label("TweetData", "topic", tid)
		got := tw.Get(tid).Vals[ti]
		if got.IsNull() || got.Int() != int64(want) {
			t.Fatalf("truth DB tweet %d topic = %v want %d", tid, got, want)
		}
	}
	// Original DB is untouched.
	if !d.DB.MustTable("TweetData").Get(1).Vals[ti].IsNull() {
		t.Error("TruthDB must not mutate the source DB")
	}
	// Cached.
	tdb2, _ := d.TruthDB()
	if tdb2 != tdb {
		t.Error("TruthDB must cache")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	d1 := smallData(t)
	d2 := smallData(t)
	t1 := d1.DB.MustTable("TweetData").Get(42)
	t2 := d2.DB.MustTable("TweetData").Get(42)
	for i := range t1.Vals {
		if t1.Vals[i].IsNull() != t2.Vals[i].IsNull() {
			t.Fatal("generation must be deterministic")
		}
		if !t1.Vals[i].IsNull() && !t1.Vals[i].Equal(t2.Vals[i]) {
			t.Fatalf("col %d differs: %v vs %v", i, t1.Vals[i], t2.Vals[i])
		}
	}
}

func TestTrainingData(t *testing.T) {
	d := smallData(t)
	X, y, classes, err := d.TrainingData("TweetData", "topic")
	if err != nil {
		t.Fatal(err)
	}
	if classes != 4 || len(X) != len(y) || len(X) == 0 {
		t.Errorf("training shape: %d samples %d classes", len(X), classes)
	}
	if _, _, _, err := d.TrainingData("Nope", "x"); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, _, _, err := d.TrainingData("TweetData", "nope"); err == nil {
		t.Error("unknown attr must fail")
	}
}

func TestTrainFamilyQuality(t *testing.T) {
	d := smallData(t)
	fam, err := d.TrainFamily("TweetData", "sentiment", nil,
		ModelSpec{Kind: "gnb"}, ModelSpec{Kind: "mlp", Param: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.Functions) != 2 || fam.Domain != SentimentDomain {
		t.Fatalf("family shape: %d fns domain %d", len(fam.Functions), fam.Domain)
	}
	for _, f := range fam.Functions {
		if f.Quality < 0.5 { // 3 classes: chance = 0.33
			t.Errorf("%s quality %.3f — should beat chance clearly", f.Name, f.Quality)
		}
		if f.CostEst <= 0 {
			t.Errorf("%s cost not measured", f.Name)
		}
	}
}

func TestTrainFamilyUnknownKind(t *testing.T) {
	d := smallData(t)
	if _, err := d.TrainFamily("TweetData", "topic", nil, ModelSpec{Kind: "xgboost"}); err == nil {
		t.Error("unknown model kind must fail")
	}
}

func TestRegisterFamilies(t *testing.T) {
	d := smallData(t)
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, SingleFunctionSpecs()); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][2]string{
		{"TweetData", "sentiment"}, {"TweetData", "topic"},
		{"MultiPie", "gender"}, {"MultiPie", "expression"},
	} {
		if mgr.Family(key[0], key[1]) == nil {
			t.Errorf("family %v not registered", key)
		}
	}
}

func TestSpecCatalogs(t *testing.T) {
	if got := len(PaperFamilySpecs()); got != 4 {
		t.Errorf("paper specs: %d", got)
	}
	rf := RFComplexitySpecs("sentiment")
	specs := rf[[2]string{"TweetData", "sentiment"}]
	if len(specs) != 4 || specs[0].Param != 5 || specs[3].Param != 20 {
		t.Errorf("rf specs: %+v", specs)
	}
}

func TestEnrichedValueMatchesTruthOften(t *testing.T) {
	// End-to-end sanity: executing a trained function and determinizing
	// should agree with ground truth well above chance.
	d := smallData(t)
	mgr := enrich.NewManager()
	fam, err := d.TrainFamily("MultiPie", "gender", nil, ModelSpec{Kind: "mlp", Param: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register(fam); err != nil {
		t.Fatal(err)
	}
	tbl := d.DB.MustTable("MultiPie")
	schema := tbl.Schema()
	fi := schema.ColIndex("feature")
	correct, total := 0, 0
	for tid := int64(1); tid <= 150; tid++ {
		tu := tbl.Get(tid)
		if _, _, err := mgr.Execute("MultiPie", tid, "gender", 0, tu.Vals[fi].Vector(), tu.Gen); err != nil {
			t.Fatal(err)
		}
		v, err := mgr.WriteBack(tbl, tu, "gender")
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := d.Truth.Label("MultiPie", "gender", tid)
		total++
		if !v.IsNull() && v.Int() == int64(truth) {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.75 {
		t.Errorf("enriched gender accuracy %.3f (want ≥ 0.75)", acc)
	}
}
