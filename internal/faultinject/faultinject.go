// Package faultinject wraps a loose.Enricher with configurable fault plans
// — per-request errors, whole-batch failures, latency spikes, indefinite
// hangs — plus a panicking classifier wrapper. The chaos tests drive the
// loose driver through these plans over both the in-process and TCP
// transports to prove queries degrade to NULL derived attributes instead of
// hanging or failing.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/loose"
	"enrichdb/internal/ml"
)

// Plan configures which faults an Enricher injects. The zero value injects
// nothing and is a transparent pass-through.
type Plan struct {
	// Seed makes the per-request error sampling deterministic.
	Seed int64
	// ErrorRate is the probability in [0, 1] that an individual request
	// fails with an injected error instead of reaching the inner enricher.
	ErrorRate float64
	// FailBatches makes the first N batches fail wholesale (simulating a
	// dead transport) before the enricher starts succeeding.
	FailBatches int
	// HangBatches makes the first N batches block until the enricher is
	// closed (simulating a hung server; the caller's deadline must fire).
	HangBatches int
	// Latency is added to every batch before delegating (a slow server).
	Latency time.Duration
}

// Enricher injects the plan's faults in front of an inner loose.Enricher.
type Enricher struct {
	inner loose.Enricher
	plan  Plan

	mu  sync.Mutex
	rng *rand.Rand

	batches     atomic.Int64 // batches seen
	failed      atomic.Int64 // whole batches failed by FailBatches
	hung        atomic.Int64 // batches parked by HangBatches
	injected    atomic.Int64 // individual requests failed by ErrorRate
	stop        chan struct{}
	stopOnce    sync.Once
	closedInner atomic.Bool
}

// Wrap builds a fault-injecting Enricher around inner.
func Wrap(inner loose.Enricher, plan Plan) *Enricher {
	return &Enricher{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		stop:  make(chan struct{}),
	}
}

// Batches returns how many EnrichBatch calls the wrapper has seen.
func (e *Enricher) Batches() int64 { return e.batches.Load() }

// Injected returns how many individual requests the ErrorRate plan failed.
func (e *Enricher) Injected() int64 { return e.injected.Load() }

// FailedBatches returns how many whole batches the FailBatches plan failed.
func (e *Enricher) FailedBatches() int64 { return e.failed.Load() }

// HungBatches returns how many batches the HangBatches plan parked.
func (e *Enricher) HungBatches() int64 { return e.hung.Load() }

// EnrichBatch implements loose.Enricher with the plan's faults applied.
func (e *Enricher) EnrichBatch(reqs []loose.Request) ([]loose.Response, loose.BatchTiming, error) {
	n := e.batches.Add(1)
	if int(n) <= e.plan.HangBatches {
		e.hung.Add(1)
		// Park until Close — the caller's call deadline must cut this off.
		<-e.stop
		return nil, loose.BatchTiming{}, fmt.Errorf("faultinject: hung batch released by shutdown")
	}
	hangOffset := int64(e.plan.HangBatches)
	if int(n-hangOffset) <= e.plan.FailBatches {
		e.failed.Add(1)
		return nil, loose.BatchTiming{}, fmt.Errorf("faultinject: injected batch failure %d", n)
	}
	if e.plan.Latency > 0 {
		select {
		case <-time.After(e.plan.Latency):
		case <-e.stop:
			return nil, loose.BatchTiming{}, fmt.Errorf("faultinject: closed during latency injection")
		}
	}

	// Sample per-request victims, forward the survivors, then merge the
	// injected failures back in request order — exactly what a server whose
	// model backends flake per item would return.
	victim := make([]bool, len(reqs))
	forward := make([]loose.Request, 0, len(reqs))
	fwdIdx := make([]int, 0, len(reqs))
	e.mu.Lock()
	for i := range reqs {
		if e.plan.ErrorRate > 0 && e.rng.Float64() < e.plan.ErrorRate {
			victim[i] = true
			continue
		}
		forward = append(forward, reqs[i])
		fwdIdx = append(fwdIdx, i)
	}
	e.mu.Unlock()

	inner, timing, err := e.inner.EnrichBatch(forward)
	if err != nil {
		return nil, timing, err
	}
	resps := make([]loose.Response, len(reqs))
	for i, r := range reqs {
		if victim[i] {
			e.injected.Add(1)
			resps[i] = loose.FailResponse(r, fmt.Sprintf(
				"faultinject: injected error for %s.%s tuple %d", r.Relation, r.Attr, r.TID))
		}
	}
	for j, i := range fwdIdx {
		resps[i] = inner[j]
	}
	return resps, timing, nil
}

// Close releases parked batches and closes the inner enricher (once).
func (e *Enricher) Close() error {
	e.stopOnce.Do(func() { close(e.stop) })
	if e.closedInner.CompareAndSwap(false, true) {
		return e.inner.Close()
	}
	return nil
}

// PanicModel wraps an ml.Classifier and panics on the Nth PredictProba call
// (1-based), exercising the worker pool's per-request recovery. It panics
// exactly once; later calls delegate normally.
type PanicModel struct {
	Inner ml.Classifier
	// PanicOn is the 1-based PredictProba call that panics (default 1).
	PanicOn int64

	calls   atomic.Int64
	fired   atomic.Bool
	Message string
}

// Name implements ml.Classifier.
func (m *PanicModel) Name() string { return "panic(" + m.Inner.Name() + ")" }

// Fit implements ml.Classifier.
func (m *PanicModel) Fit(X [][]float64, y []int, classes int) error {
	return m.Inner.Fit(X, y, classes)
}

// PredictProba implements ml.Classifier, panicking on the configured call.
func (m *PanicModel) PredictProba(x []float64) []float64 {
	n := m.calls.Add(1)
	target := m.PanicOn
	if target <= 0 {
		target = 1
	}
	if n == target && m.fired.CompareAndSwap(false, true) {
		msg := m.Message
		if msg == "" {
			msg = "faultinject: injected model panic"
		}
		panic(msg)
	}
	return m.Inner.PredictProba(x)
}

// Fired reports whether the injected panic has happened.
func (m *PanicModel) Fired() bool { return m.fired.Load() }

// SlowModel wraps an ml.Classifier, sleeping Delay before every PredictProba
// call. Enrichment-heavy queries over a SlowModel run long enough for
// cancellation, kill and drain tests to land mid-execution deterministically.
type SlowModel struct {
	Inner ml.Classifier
	Delay time.Duration
}

// Name implements ml.Classifier.
func (m *SlowModel) Name() string { return "slow(" + m.Inner.Name() + ")" }

// Fit implements ml.Classifier.
func (m *SlowModel) Fit(X [][]float64, y []int, classes int) error {
	return m.Inner.Fit(X, y, classes)
}

// PredictProba implements ml.Classifier with the configured delay.
func (m *SlowModel) PredictProba(x []float64) []float64 {
	if m.Delay > 0 {
		time.Sleep(m.Delay)
	}
	return m.Inner.PredictProba(x)
}
