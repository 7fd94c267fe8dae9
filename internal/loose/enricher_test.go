package loose

import (
	"testing"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
)

func enricherFixture(t *testing.T) (*dataset.Data, *enrich.Manager) {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		Seed: 5, Tweets: 200, Images: 100, TopicDomain: 3, TrainPerClass: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, dataset.SingleFunctionSpecs()); err != nil {
		t.Fatal(err)
	}
	return d, mgr
}

func buildBatch(t *testing.T, d *dataset.Data, n int) []Request {
	t.Helper()
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := make([]Request, n)
	for i := range reqs {
		tid := int64(i + 1)
		reqs[i] = Request{
			Relation: "TweetData", TID: tid, Attr: "sentiment", FnID: 0,
			Feature: tbl.Get(tid).Vals[fi].Vector(),
		}
	}
	return reqs
}

func TestParallelBatchMatchesSequential(t *testing.T) {
	d, mgr := enricherFixture(t)
	reqs := buildBatch(t, d, 100)

	seq := &LocalEnricher{Mgr: mgr}
	par := &LocalEnricher{Mgr: mgr, Workers: 4}
	sResps, _, err := seq.EnrichBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	pResps, _, err := par.EnrichBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sResps) != len(pResps) {
		t.Fatalf("lengths: %d vs %d", len(sResps), len(pResps))
	}
	for i := range sResps {
		if sResps[i].TID != pResps[i].TID {
			t.Fatalf("response %d order not preserved: %d vs %d", i, sResps[i].TID, pResps[i].TID)
		}
		for c := range sResps[i].Probs {
			if sResps[i].Probs[c] != pResps[i].Probs[c] {
				t.Fatalf("response %d prob %d differs", i, c)
			}
		}
	}
}

func TestParallelBatchGOMAXPROCS(t *testing.T) {
	d, mgr := enricherFixture(t)
	reqs := buildBatch(t, d, 50)
	e := &LocalEnricher{Mgr: mgr, Workers: -1}
	resps, timing, err := e.EnrichBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 50 || timing.Compute <= 0 {
		t.Errorf("resps=%d compute=%v", len(resps), timing.Compute)
	}
}

func TestBatchValidationFailsOnlyBadRequests(t *testing.T) {
	// An invalid request fails itself — via Response.Err — without taking
	// down the rest of the batch: the loose design is best-effort.
	d, mgr := enricherFixture(t)
	e := &LocalEnricher{Mgr: mgr, Workers: 4}
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	good := Request{
		Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0,
		Feature: tbl.Get(1).Vals[fi].Vector(),
	}
	batch := []Request{
		good,
		{Relation: "Nope", TID: 2, Attr: "x", FnID: 0, Feature: []float64{0}},
		{Relation: "TweetData", TID: 3, Attr: "sentiment", FnID: 9, Feature: []float64{0}},
	}
	resps, _, err := e.EnrichBatch(batch)
	if err != nil {
		t.Fatalf("partial validation failures must not fail the batch: %v", err)
	}
	if len(resps) != 3 {
		t.Fatalf("responses: %d", len(resps))
	}
	if resps[0].Failed() || len(resps[0].Probs) == 0 {
		t.Errorf("valid request must succeed: %+v", resps[0])
	}
	if !resps[1].Failed() || resps[1].Probs != nil {
		t.Errorf("unknown relation must fail its own request: %+v", resps[1])
	}
	if !resps[2].Failed() || resps[2].Probs != nil {
		t.Errorf("bad function id must fail its own request: %+v", resps[2])
	}
	if resps[1].TID != 2 || resps[2].FnID != 9 {
		t.Error("failed responses must echo the request identity for retry bookkeeping")
	}
}

// panicClassifier panics on every PredictProba call.
type panicClassifier struct{ classes int }

func (p *panicClassifier) Name() string                       { return "panic" }
func (p *panicClassifier) Fit([][]float64, []int, int) error  { return nil }
func (p *panicClassifier) PredictProba(x []float64) []float64 { panic("model exploded") }

func TestWorkerPoolRecoversFromPanic(t *testing.T) {
	// A panicking model must yield one failed response, not a crashed
	// process — server-side, a crashed shared enrichment server.
	d, mgr := enricherFixture(t)
	fam := mgr.Family("TweetData", "sentiment")
	saved := fam.Functions[0].Model
	fam.Functions[0].Model = &panicClassifier{classes: 2}
	defer func() { fam.Functions[0].Model = saved }()

	for _, workers := range []int{0, 4} {
		e := &LocalEnricher{Mgr: mgr, Workers: workers}
		reqs := buildBatch(t, d, 8)
		resps, _, err := e.EnrichBatch(reqs)
		if err != nil {
			t.Fatalf("workers=%d: panic must not fail the batch: %v", workers, err)
		}
		if len(resps) != 8 {
			t.Fatalf("workers=%d: responses: %d", workers, len(resps))
		}
		for i, r := range resps {
			if !r.Failed() {
				t.Fatalf("workers=%d response %d: expected failure, got %+v", workers, i, r)
			}
			if r.Probs != nil {
				t.Errorf("workers=%d response %d: failed response must carry no probs", workers, i)
			}
		}
	}
}

func TestBatchDeduplicatesRequests(t *testing.T) {
	// The server-side state cache of §3.2: a self-join's probe queries list
	// the same tuple under both aliases; the function must execute once.
	d, mgr := enricherFixture(t)
	reqs := buildBatch(t, d, 10)
	doubled := append(append([]Request{}, reqs...), reqs...) // every request twice

	fam := mgr.Family("TweetData", "sentiment")
	before, _ := fam.Functions[0].Stats()
	e := &LocalEnricher{Mgr: mgr}
	resps, _, err := e.EnrichBatch(doubled)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := fam.Functions[0].Stats()
	if got := after - before; got != 10 {
		t.Errorf("server executed %d times for 10 unique requests", got)
	}
	if len(resps) != 20 {
		t.Fatalf("responses: %d", len(resps))
	}
	// Duplicate slots carry the canonical output.
	for i := 0; i < 10; i++ {
		if resps[i].TID != resps[i+10].TID {
			t.Fatalf("slot %d: tids differ", i)
		}
		for c := range resps[i].Probs {
			if resps[i].Probs[c] != resps[i+10].Probs[c] {
				t.Fatalf("slot %d: duplicate response differs", i)
			}
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	_, mgr := enricherFixture(t)
	e := &LocalEnricher{Mgr: mgr, Workers: 8}
	resps, _, err := e.EnrichBatch(nil)
	if err != nil || len(resps) != 0 {
		t.Errorf("empty batch: %d, %v", len(resps), err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
