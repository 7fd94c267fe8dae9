package faultinject

import (
	"strings"
	"testing"
	"time"

	"enrichdb/internal/loose"
	"enrichdb/internal/ml"
)

// echoEnricher succeeds every request with a fixed distribution.
type echoEnricher struct{ batches int }

func (e *echoEnricher) EnrichBatch(reqs []loose.Request) ([]loose.Response, loose.BatchTiming, error) {
	e.batches++
	resps := make([]loose.Response, len(reqs))
	for i, r := range reqs {
		resps[i] = loose.Response{Relation: r.Relation, TID: r.TID, Attr: r.Attr, FnID: r.FnID, Probs: []float64{1}}
	}
	return resps, loose.BatchTiming{Compute: time.Microsecond}, nil
}

func (e *echoEnricher) Close() error { return nil }

func mkReqs(n int) []loose.Request {
	reqs := make([]loose.Request, n)
	for i := range reqs {
		reqs[i] = loose.Request{Relation: "R", TID: int64(i + 1), Attr: "a", FnID: 0}
	}
	return reqs
}

func TestZeroPlanIsTransparent(t *testing.T) {
	e := Wrap(&echoEnricher{}, Plan{})
	resps, _, err := e.EnrichBatch(mkReqs(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Failed() || r.TID != int64(i+1) {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	if e.Injected() != 0 || e.Batches() != 1 {
		t.Errorf("counters: injected=%d batches=%d", e.Injected(), e.Batches())
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestErrorRateInjectsPerRequest(t *testing.T) {
	e := Wrap(&echoEnricher{}, Plan{Seed: 42, ErrorRate: 0.3})
	reqs := mkReqs(1000)
	resps, _, err := e.EnrichBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, r := range resps {
		if r.TID != reqs[i].TID {
			t.Fatalf("response %d out of order: %+v", i, r)
		}
		if r.Failed() {
			failed++
			if !strings.Contains(r.Err, "injected error") {
				t.Fatalf("unexpected message: %s", r.Err)
			}
		} else if len(r.Probs) == 0 {
			t.Fatalf("survivor %d lost its probs", i)
		}
	}
	if failed != int(e.Injected()) {
		t.Errorf("failed=%d injected counter=%d", failed, e.Injected())
	}
	// 30% of 1000 within a loose tolerance.
	if failed < 200 || failed > 400 {
		t.Errorf("error rate 0.3 injected %d/1000 failures", failed)
	}
	// Determinism: the same seed injects the same victims.
	e2 := Wrap(&echoEnricher{}, Plan{Seed: 42, ErrorRate: 0.3})
	resps2, _, _ := e2.EnrichBatch(reqs)
	for i := range resps {
		if resps[i].Failed() != resps2[i].Failed() {
			t.Fatalf("seeded plans diverged at %d", i)
		}
	}
}

func TestFailBatchesThenRecover(t *testing.T) {
	inner := &echoEnricher{}
	e := Wrap(inner, Plan{FailBatches: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := e.EnrichBatch(mkReqs(3)); err == nil {
			t.Fatalf("batch %d must fail wholesale", i+1)
		}
	}
	if _, _, err := e.EnrichBatch(mkReqs(3)); err != nil {
		t.Fatalf("batch 3 must succeed: %v", err)
	}
	if e.FailedBatches() != 2 || inner.batches != 1 {
		t.Errorf("failed=%d forwarded=%d", e.FailedBatches(), inner.batches)
	}
}

func TestHangBatchReleasedByClose(t *testing.T) {
	e := Wrap(&echoEnricher{}, Plan{HangBatches: 1})
	done := make(chan error, 1)
	go func() {
		_, _, err := e.EnrichBatch(mkReqs(1))
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("hung batch returned before Close")
	case <-time.After(50 * time.Millisecond):
	}
	e.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("released hung batch must report an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the hung batch")
	}
	if e.HungBatches() != 1 {
		t.Errorf("hung counter: %d", e.HungBatches())
	}
}

func TestPanicModelFiresOnce(t *testing.T) {
	inner := ml.NewGNB()
	if err := inner.Fit([][]float64{{0}, {1}}, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	pm := &PanicModel{Inner: inner, PanicOn: 2}
	if pm.Name() == "" {
		t.Errorf("metadata passthrough: name=%q", pm.Name())
	}
	if p := pm.PredictProba([]float64{0}); len(p) != 2 {
		t.Fatalf("call 1 must pass through, got %v", p)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("call 2 must panic")
			}
		}()
		pm.PredictProba([]float64{0})
	}()
	if !pm.Fired() {
		t.Error("Fired must report the panic")
	}
	if p := pm.PredictProba([]float64{1}); len(p) != 2 {
		t.Fatalf("call 3 must pass through again, got %v", p)
	}
}
