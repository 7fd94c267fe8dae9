package remote

import (
	"strings"
	"testing"
	"time"

	"enrichdb/internal/loose"
)

// fastOpts keeps failure tests snappy: short deadline, quick retries.
func fastOpts() Options {
	return Options{CallTimeout: 2 * time.Second, MaxRetries: 2, BaseBackoff: 2 * time.Millisecond}
}

// TestServerShutdownMidStream: a client whose server died must surface an
// error from EnrichBatch (bounded, not hanging), and the loose driver must
// degrade — the query still answers, with every requested enrichment
// counted as failed and the derived attributes left NULL.
func TestServerShutdownMidStream(t *testing.T) {
	d, mgr := setup(t)
	srv, addr, err := Serve("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialOptions(addr, fastOpts())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()

	// First batch works.
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := []loose.Request{{
		Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0,
		Feature: tbl.Get(1).Vals[fi].Vector(),
	}}
	if _, _, err := client.EnrichBatch(reqs); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}

	// Kill the server; the next batch must fail, not hang.
	srv.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := client.EnrichBatch(reqs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("batch against a dead server must fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch against a dead server hung")
	}

	// The driver degrades: the query answers over the unenriched state.
	drv := loose.NewDriver(d.DB, mgr)
	drv.Enricher = client
	res, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 9000")
	if err != nil {
		t.Fatalf("driver must degrade, not fail: %v", err)
	}
	if res.FailedEnrichments == 0 {
		t.Error("degraded run must count its failed enrichments")
	}
	if len(res.Rows) != 0 {
		// sentiment stayed NULL, so the derived predicate matches nothing.
		t.Errorf("unenriched derived predicate matched %d rows", len(res.Rows))
	}
}

// TestServerErrorLeavesStateClean: a failing batch must not half-apply
// state, and a later run with a healthy enricher enriches from scratch.
func TestServerErrorLeavesStateClean(t *testing.T) {
	d, mgr := setup(t)
	srv, addr, err := Serve("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialOptions(addr, fastOpts())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close() // dead before first use
	defer client.Close()

	drv := loose.NewDriver(d.DB, mgr)
	drv.Enricher = client
	res, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 1")
	if err != nil {
		t.Fatalf("dead server must degrade, not fail: %v", err)
	}
	if res.FailedEnrichments == 0 {
		t.Error("degraded run must report failures")
	}
	if c := mgr.Counters(); c.Enrichments != 0 {
		t.Errorf("failed run applied %d enrichments", c.Enrichments)
	}
	// Recovery: switch to a local enricher and the same query succeeds.
	drv.Enricher = &loose.LocalEnricher{Mgr: mgr}
	res2, err := drv.Execute("SELECT * FROM TweetData WHERE sentiment = 1")
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if res2.Enrichments == 0 {
		t.Error("recovery run should enrich from scratch")
	}
	if res2.FailedEnrichments != 0 {
		t.Errorf("recovery run failed %d enrichments", res2.FailedEnrichments)
	}
}

// TestPartialBatchFailureIsPerRequest: an invalid request inside an
// otherwise valid batch fails only itself, with a useful message, while the
// valid request still succeeds — across the RPC transport.
func TestPartialBatchFailureIsPerRequest(t *testing.T) {
	d, mgr := setup(t)
	srv, addr, err := Serve("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := []loose.Request{
		{Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0, Feature: tbl.Get(1).Vals[fi].Vector()},
		{Relation: "TweetData", TID: 2, Attr: "sentiment", FnID: 42, Feature: tbl.Get(2).Vals[fi].Vector()},
	}
	resps, _, err := client.EnrichBatch(reqs)
	if err != nil {
		t.Fatalf("partial failure must not fail the batch: %v", err)
	}
	if resps[0].Failed() || len(resps[0].Probs) == 0 {
		t.Errorf("valid request must succeed: %+v", resps[0])
	}
	if !resps[1].Failed() {
		t.Fatal("invalid function id must fail its request")
	}
	if !strings.Contains(resps[1].Err, "function 42") {
		t.Errorf("error should name the bad function: %v", resps[1].Err)
	}
}

// TestCallDeadlineAndRedial: a hung server (drained listener that accepts
// but a service that never replies) must bound the client call at the
// configured deadline, and once the server is healthy again the client must
// automatically re-dial and succeed.
func TestCallDeadlineAndRedial(t *testing.T) {
	d, mgr := setup(t)

	// A server whose enricher hangs forever on the first batch.
	hang := &hangingEnricher{inner: &loose.LocalEnricher{Mgr: mgr}, stop: make(chan struct{})}
	srv, addr, err := ServeEnricher("127.0.0.1:0", hang, ServerOptions{DrainTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialOptions(addr, Options{
		CallTimeout: 200 * time.Millisecond,
		MaxRetries:  -1, // isolate the deadline: no retries
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := []loose.Request{{
		Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0,
		Feature: tbl.Get(1).Vals[fi].Vector(),
	}}

	start := time.Now()
	_, timing, err := client.EnrichBatch(reqs)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung server must time the call out")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline not honored: call took %v", elapsed)
	}
	if timing.Network <= 0 {
		t.Error("failed attempt's wall-clock must be accounted as network time")
	}
	if s := client.Stats(); s.Timeouts == 0 {
		t.Errorf("timeout not counted: %+v", s)
	}

	// Un-hang the server; the timed-out client must re-dial transparently
	// and the same batch must now succeed — the stale pending call cannot
	// poison it.
	hang.release()
	resps, _, err := client.EnrichBatch(reqs)
	if err != nil {
		t.Fatalf("client must recover after timeout: %v", err)
	}
	if len(resps) != 1 || resps[0].Failed() {
		t.Fatalf("recovered batch: %+v", resps)
	}
	if s := client.Stats(); s.Dials < 2 {
		t.Errorf("recovery must have re-dialed: %+v", s)
	}
}

// hangingEnricher blocks every batch until released.
type hangingEnricher struct {
	inner loose.Enricher
	stop  chan struct{}
}

func (h *hangingEnricher) release() { close(h.stop) }

func (h *hangingEnricher) EnrichBatch(reqs []loose.Request) ([]loose.Response, loose.BatchTiming, error) {
	<-h.stop
	return h.inner.EnrichBatch(reqs)
}

func (h *hangingEnricher) Close() error { return h.inner.Close() }

// TestRedialAfterConnectionDrop: severing every connection mid-lifetime
// (server restart / network partition) must be transparent — the next batch
// re-dials and retries, and the lost attempt's time lands in the network
// column, not nowhere.
func TestRedialAfterConnectionDrop(t *testing.T) {
	d, mgr := setup(t)
	srv, addr, err := Serve("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := []loose.Request{{
		Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0,
		Feature: tbl.Get(1).Vals[fi].Vector(),
	}}
	if _, _, err := client.EnrichBatch(reqs); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}

	if n := srv.DropConnections(); n == 0 {
		t.Fatal("expected a live connection to drop")
	}

	resps, timing, err := client.EnrichBatch(reqs)
	if err != nil {
		t.Fatalf("drop must be transparent: %v", err)
	}
	if len(resps) != 1 || resps[0].Failed() {
		t.Fatalf("post-drop batch: %+v", resps)
	}
	if timing.Compute <= 0 || timing.Network < 0 {
		t.Errorf("post-drop timing: %+v", timing)
	}
	s := client.Stats()
	if s.Dials < 2 {
		t.Errorf("drop must force a re-dial: %+v", s)
	}
	if s.Retries == 0 {
		t.Errorf("lost attempt must be retried: %+v", s)
	}
}

// TestMaxConnsCap: connections beyond the server cap are refused while the
// cap holds, and the count is observable.
func TestMaxConnsCap(t *testing.T) {
	_, mgr := setup(t)
	srv, addr, err := ServeEnricher("127.0.0.1:0", &loose.LocalEnricher{Mgr: mgr},
		ServerOptions{MaxConns: 1, DrainTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, _, err := c1.EnrichBatch(nil); err != nil {
		t.Fatalf("first client: %v", err)
	}

	// A second client dials fine (TCP accepts) but its connection is closed
	// by the cap; the first call must fail rather than hang. Retries are
	// disabled so the refusal is visible instead of masked by backoff.
	c2, err := DialOptions(addr, Options{CallTimeout: 2 * time.Second, MaxRetries: -1})
	if err == nil {
		defer c2.Close()
		if _, _, err := c2.EnrichBatch(nil); err == nil {
			t.Error("capped connection must not serve batches")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.RejectedConns() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.RejectedConns() == 0 {
		t.Error("cap must count rejected connections")
	}
}

// TestClosedClientDoesNotRedial: a closed client fails every later batch at
// once and opens no connection for it, so a client the database replaced
// leaves nothing open behind it.
func TestClosedClientDoesNotRedial(t *testing.T) {
	d, mgr := setup(t)
	srv, addr, err := Serve("127.0.0.1:0", mgr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOptions(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	reqs := []loose.Request{{
		Relation: "TweetData", TID: 1, Attr: "sentiment", FnID: 0,
		Feature: tbl.Get(1).Vals[fi].Vector(),
	}}
	client.Close()
	if _, _, err := client.EnrichBatch(reqs); err == nil || !strings.Contains(err.Error(), "client closed") {
		t.Errorf("batch on a closed client: got %v, want a client closed error", err)
	}
	if st := client.Stats(); st.Dials != 1 || st.Retries != 0 {
		t.Errorf("closed client stats = %+v, want the one initial dial and no retries", st)
	}
}
