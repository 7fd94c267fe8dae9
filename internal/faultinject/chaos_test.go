package faultinject_test

import (
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/faultinject"
	"enrichdb/internal/loose"
	"enrichdb/internal/loose/remote"
)

func fixture(t *testing.T) (*dataset.Data, *enrich.Manager) {
	t.Helper()
	d, err := dataset.Generate(dataset.Config{
		Seed: 11, Tweets: 200, Images: 80, TopicDomain: 3, TrainPerClass: 15,
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

const chaosQuery = "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 5000"

// nullDerived counts probe-eligible tuples (TweetTime < 5000) whose
// sentiment is still NULL — the paper's "not yet enriched" state.
func nullDerived(t *testing.T, d *dataset.Data) int {
	t.Helper()
	tbl := d.DB.MustTable("TweetData")
	schema := tbl.Schema()
	ti := schema.ColIndex("TweetTime")
	si := schema.ColIndex("sentiment")
	n := 0
	for tid := int64(1); ; tid++ {
		tu := tbl.Get(tid)
		if tu == nil {
			break
		}
		if tu.Vals[ti].Int() < 5000 && tu.Vals[si].IsNull() {
			n++
		}
	}
	return n
}

// transport abstracts how the chaos plans reach the loose driver: in
// process, or through a real TCP enrichment server.
type transport struct {
	name string
	// wire turns an enricher into the driver-side Enricher; cleanup tears
	// down any server/client pair it created.
	wire func(t *testing.T, e loose.Enricher) (loose.Enricher, func())
}

func transports() []transport {
	return []transport{
		{name: "local", wire: func(t *testing.T, e loose.Enricher) (loose.Enricher, func()) {
			return e, func() { e.Close() }
		}},
		{name: "tcp", wire: func(t *testing.T, e loose.Enricher) (loose.Enricher, func()) {
			srv, addr, err := remote.ServeEnricher("127.0.0.1:0", e,
				remote.ServerOptions{DrainTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			client, err := remote.DialOptions(addr, remote.Options{
				CallTimeout: 5 * time.Second, BaseBackoff: 2 * time.Millisecond,
			})
			if err != nil {
				srv.Close()
				t.Fatal(err)
			}
			return client, func() { client.Close(); srv.Close() }
		}},
	}
}

// TestChaosErrorRateAndPanic is the acceptance scenario: with a 20%
// injected per-request error rate plus one injected model panic, a loose
// query over a derived attribute still answers, reports how many
// enrichments failed, leaves exactly those attributes NULL, and a retry of
// the same query enriches only the previously failed tuples.
func TestChaosErrorRateAndPanic(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			d, mgr := fixture(t)

			// One injected panic: the first PredictProba call explodes.
			fam := mgr.Family("TweetData", "sentiment")
			pm := &faultinject.PanicModel{Inner: fam.Functions[0].Model}
			saved := fam.Functions[0].Model
			fam.Functions[0].Model = pm
			defer func() { fam.Functions[0].Model = saved }()

			chaotic := faultinject.Wrap(
				&loose.LocalEnricher{Mgr: mgr, Workers: 4},
				faultinject.Plan{Seed: 7, ErrorRate: 0.20})
			enricher, cleanup := tr.wire(t, chaotic)

			drv := loose.NewDriver(d.DB, mgr)
			drv.Enricher = enricher
			res1, err := drv.Execute(chaosQuery)
			cleanup()
			if err != nil {
				t.Fatalf("chaotic run must still answer: %v", err)
			}
			if res1.FailedEnrichments == 0 {
				t.Fatal("20% error rate + panic must fail some enrichments")
			}
			if !pm.Fired() {
				t.Error("injected panic did not fire")
			}
			if got := nullDerived(t, d); got != res1.FailedEnrichments {
				t.Errorf("NULL derived attrs: %d, failed enrichments: %d", got, res1.FailedEnrichments)
			}
			if len(res1.EnrichErrors) == 0 {
				t.Error("degraded result must sample failure messages")
			}

			// Retry through a clean enricher over the same transport: only
			// the previously failed tuples are (re-)enriched.
			enricher2, cleanup2 := tr.wire(t, &loose.LocalEnricher{Mgr: mgr})
			drv.Enricher = enricher2
			res2, err := drv.Execute(chaosQuery)
			if err != nil {
				t.Fatalf("retry run: %v", err)
			}
			if res2.FailedEnrichments != 0 {
				t.Errorf("clean retry failed %d enrichments: %v", res2.FailedEnrichments, res2.EnrichErrors)
			}
			if res2.Enrichments != int64(res1.FailedEnrichments) {
				t.Errorf("retry enriched %d, want exactly the %d previously failed",
					res2.Enrichments, res1.FailedEnrichments)
			}
			if got := nullDerived(t, d); got != 0 {
				t.Errorf("%d derived attrs still NULL after clean retry", got)
			}

			// Third run: everything enriched, nothing left to do.
			res3, err := drv.Execute(chaosQuery)
			cleanup2()
			if err != nil {
				t.Fatal(err)
			}
			if res3.Enrichments != 0 {
				t.Errorf("third run re-enriched %d tuples", res3.Enrichments)
			}
		})
	}
}

// TestChaosLatencyPlan: a slow server delays but does not degrade.
func TestChaosLatencyPlan(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			d, mgr := fixture(t)
			slow := faultinject.Wrap(&loose.LocalEnricher{Mgr: mgr}, faultinject.Plan{Latency: 5 * time.Millisecond})
			enricher, cleanup := tr.wire(t, slow)
			defer cleanup()

			drv := loose.NewDriver(d.DB, mgr)
			drv.Enricher = enricher
			res, err := drv.Execute(chaosQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedEnrichments != 0 {
				t.Errorf("latency must not fail enrichments: %d", res.FailedEnrichments)
			}
			if res.Enrichments == 0 {
				t.Error("slow run must still enrich")
			}
		})
	}
}

// TestChaosBatchFailure: a wholesale lost batch degrades the query to NULL
// derived attributes; the next query enriches everything.
func TestChaosBatchFailure(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			d, mgr := fixture(t)
			flaky := faultinject.Wrap(&loose.LocalEnricher{Mgr: mgr}, faultinject.Plan{FailBatches: 1})
			enricher, cleanup := tr.wire(t, flaky)
			defer cleanup()

			drv := loose.NewDriver(d.DB, mgr)
			drv.Enricher = enricher
			res1, err := drv.Execute(chaosQuery)
			if err != nil {
				t.Fatalf("lost batch must degrade, not fail: %v", err)
			}
			if res1.FailedEnrichments == 0 || res1.Enrichments != 0 {
				t.Errorf("first run: failed=%d enriched=%d", res1.FailedEnrichments, res1.Enrichments)
			}
			if got := nullDerived(t, d); got != res1.FailedEnrichments {
				t.Errorf("NULL derived attrs: %d, failed: %d", got, res1.FailedEnrichments)
			}

			// Batch 2 succeeds: same transport, same enricher.
			res2, err := drv.Execute(chaosQuery)
			if err != nil {
				t.Fatal(err)
			}
			if res2.FailedEnrichments != 0 || res2.Enrichments != int64(res1.FailedEnrichments) {
				t.Errorf("second run: failed=%d enriched=%d want enriched=%d",
					res2.FailedEnrichments, res2.Enrichments, res1.FailedEnrichments)
			}
		})
	}
}

// TestChaosHungServerTCP: a server that hangs on the first batch is cut off
// by the client's call deadline and the automatic retry (batch 2 at the
// server) succeeds — a transparent recovery, bounded in wall-clock.
func TestChaosHungServerTCP(t *testing.T) {
	d, mgr := fixture(t)
	hang := faultinject.Wrap(&loose.LocalEnricher{Mgr: mgr}, faultinject.Plan{HangBatches: 1})
	srv, addr, err := remote.ServeEnricher("127.0.0.1:0", hang,
		remote.ServerOptions{DrainTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.DialOptions(addr, remote.Options{
		CallTimeout: 300 * time.Millisecond, MaxRetries: 2, BaseBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	drv := loose.NewDriver(d.DB, mgr)
	drv.Enricher = client
	start := time.Now()
	res, err := drv.Execute(chaosQuery)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hung first batch must be retried transparently: %v", err)
	}
	if res.FailedEnrichments != 0 || res.Enrichments == 0 {
		t.Errorf("recovered run: failed=%d enriched=%d", res.FailedEnrichments, res.Enrichments)
	}
	if elapsed > 10*time.Second {
		t.Errorf("recovery not bounded: %v", elapsed)
	}
	s := client.Stats()
	if s.Timeouts == 0 || s.Retries == 0 || s.Dials < 2 {
		t.Errorf("expected timeout+retry+re-dial, got %+v", s)
	}
	// The failed attempt's wall-clock (≥ the 300ms deadline) must land in
	// the network column, not vanish.
	if res.Timing.Network < 300*time.Millisecond {
		t.Errorf("retried attempt not accounted as network time: %v", res.Timing.Network)
	}
}
