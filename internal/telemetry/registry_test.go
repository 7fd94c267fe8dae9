package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many workers — counter
// adds, gauge sets, histogram observes, interleaved snapshots — and checks
// the final totals. Run under -race (the Makefile's race targets include
// this package).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("test.adds")
			g := reg.Gauge("test.level")
			h := reg.Histogram("test.lat_ms", LatencyBucketsMs)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%10) + 0.5)
				if i%100 == 0 {
					_ = reg.Snapshot() // readers must not race writers
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["test.adds"]; got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := snap.Histograms["test.lat_ms"]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	wantSum := float64(workers) * perWorker / 10 * (0.5 + 1.5 + 2.5 + 3.5 + 4.5 + 5.5 + 6.5 + 7.5 + 8.5 + 9.5)
	if h.Sum < wantSum-1 || h.Sum > wantSum+1 {
		t.Errorf("histogram sum = %v, want ~%v", h.Sum, wantSum)
	}
}

func TestNilRegistryIsFree(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", LatencyBucketsMs)
	reg.GaugeFunc("f", func() int64 { return 1 })
	c.Add(5)
	c.Inc()
	c.AddDuration(time.Second)
	g.Set(3)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 {
		t.Errorf("nil instruments must read zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot must be empty: %+v", snap)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		reg.Counter("hot").Add(1)
	})
	if allocs != 0 {
		t.Errorf("nil-registry counter path allocates %v/op, want 0", allocs)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := int64(41)
	reg.GaugeFunc("test.computed", func() int64 { return v })
	v = 42
	if got := reg.Snapshot().Gauges["test.computed"]; got != 42 {
		t.Errorf("GaugeFunc gauge = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; overflow: {500}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestSnapshotStringAndCompact(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("enrich.executions").Add(7)
	reg.Counter("enrich.exec_ns").AddDuration(3 * time.Millisecond)
	reg.Counter("zero.counter").Add(0)
	reg.Gauge("enrich.state_bytes").Set(1024)
	reg.Histogram("enrich.latency_ms", LatencyBucketsMs).Observe(0.2)
	snap := reg.Snapshot()

	s := snap.String()
	for _, want := range []string{"enrich.executions", "7", "enrich.state_bytes", "1024 B", "3ms", "enrich.latency_ms", "count=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}

	if snap.Counters["enrich.executions"] != 7 || snap.Gauges["enrich.state_bytes"] != 1024 || snap.Counters["zero.counter"] != 0 {
		t.Errorf("snapshot values: counters %v gauges %v", snap.Counters, snap.Gauges)
	}
	// String is sorted, so repeated renders are byte-identical.
	if s != snap.String() {
		t.Errorf("String() not deterministic")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Gauge("g").Set(10)
	a.Histogram("h", []float64{1, 10}).Observe(0.5)
	b := NewRegistry()
	b.Counter("c").Add(2)
	b.Counter("only_b").Add(3)
	b.Gauge("g").Set(5)
	b.Histogram("h", []float64{1, 10}).Observe(5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 3 || s.Counters["only_b"] != 3 {
		t.Errorf("merged counters: %+v", s.Counters)
	}
	if s.Gauges["g"] != 15 {
		t.Errorf("merged gauge = %d", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 5.5 {
		t.Errorf("merged histogram: %+v", h)
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.count").Add(9)

	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics endpoint returned invalid JSON: %v", err)
	}
	if snap.Counters["test.count"] != 9 {
		t.Errorf("JSON snapshot counters = %+v", snap.Counters)
	}

	rec = httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if !strings.Contains(rec.Body.String(), "test.count") {
		t.Errorf("text snapshot = %q", rec.Body.String())
	}
}
