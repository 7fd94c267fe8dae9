package progressive

import (
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/loose/remote"
)

// TestProgressiveLooseOverTCP runs the loose progressive design against a
// real TCP enrichment server: epochs must report network time and the final
// answer must match the in-process run.
func TestProgressiveLooseOverTCP(t *testing.T) {
	build := func() (*dataset.Data, *enrich.Manager) {
		d, err := dataset.Generate(dataset.Config{
			Seed: 19, Tweets: 250, Images: 120, TopicDomain: 4, TrainPerClass: 15,
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
	q := "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"

	// In-process reference.
	dLocal, mgrLocal := build()
	local, err := Run(Config{
		Design: Loose, Analysis: analyze(t, dLocal, q), DB: dLocal.DB, Mgr: mgrLocal,
		Strategy: SBFO, EpochBudget: 2 * time.Millisecond, MaxEpochs: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Over TCP.
	dRemote, mgrRemote := build()
	srv, addr, err := remote.Serve("127.0.0.1:0", mgrRemote)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := Run(Config{
		Design: Loose, Analysis: analyze(t, dRemote, q), DB: dRemote.DB, Mgr: mgrRemote,
		Enricher: client,
		Strategy: SBFO, EpochBudget: 2 * time.Millisecond, MaxEpochs: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(local.Rows) {
		t.Errorf("TCP run %d rows vs local %d", len(res.Rows), len(local.Rows))
	}
	if res.TotalEnrichments != local.TotalEnrichments {
		t.Errorf("TCP enrichments %d vs local %d", res.TotalEnrichments, local.TotalEnrichments)
	}
	var network time.Duration
	for _, ep := range res.Epochs {
		network += ep.NetworkTime
	}
	if network <= 0 {
		t.Error("TCP epochs must report network time")
	}
}
