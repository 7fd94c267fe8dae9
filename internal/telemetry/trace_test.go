package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	if !tr.Enabled() {
		t.Fatal("tracer with sink must be enabled")
	}
	tr.Start("epoch.plan").Epoch(1).Int("planned", 12).Str("design", "loose").End()
	tr.Start("worker.enrich").Epoch(1).Worker(3).Int("items", 4).End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["name"] != "epoch.plan" || first["epoch"] != float64(1) {
		t.Errorf("span 0 = %v", first)
	}
	attrs := first["attrs"].(map[string]interface{})
	if attrs["planned"] != float64(12) || attrs["design"] != "loose" {
		t.Errorf("span 0 attrs = %v", attrs)
	}
	if _, hasWorker := first["worker"]; hasWorker {
		t.Errorf("non-worker span must omit worker field: %v", first)
	}
	var second map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if second["worker"] != float64(3) {
		t.Errorf("span 1 worker = %v", second["worker"])
	}
}

// TestDisabledTracerZeroAlloc pins the acceptance requirement that disabled
// telemetry is zero-allocation-cheap: the full span construction chain on a
// nil tracer must not allocate.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must be disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Start("epoch.enrich").Epoch(3).Worker(1).
			Int("executed", 42).Str("design", "tight").End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer span chain allocates %v/op, want 0", allocs)
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) must return the disabled (nil) tracer")
	}
}

// TestTracerConcurrent emits spans from many goroutines into one sink; run
// under -race.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Start("worker.span").Worker(w).Int("i", int64(i)).End()
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*200)
	}
	for _, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved or corrupt line %q: %v", line, err)
		}
	}
}

func TestCollectSink(t *testing.T) {
	var sink CollectSink
	tr := NewTracer(&sink)
	tr.Start("a").End()
	tr.Start("b").Epoch(2).End()
	spans := sink.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Epoch != 2 {
		t.Errorf("collected spans = %+v", spans)
	}
}

func TestFormatSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	tr.Start("query.setup").Int("probe_tuples", 10).End()
	tr.Start("epoch.plan").Epoch(1).Int("planned", 5).End()
	tr.Start("worker.determinize").Epoch(1).Worker(0).Int("items", 5).End()

	var out bytes.Buffer
	if err := FormatSpans(&buf, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"— setup —", "— epoch 1 —", "query.setup", "probe_tuples=10", "[worker 0]", "3 spans"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatSpans missing %q:\n%s", want, text)
		}
	}
}

// TestFormatSpansGolden: both tracefmt modes render the committed trace
// (setup and epoch spans, workers, two traces, attributes of every JSON
// kind, a blank line and an unknown key) byte for byte as the golden files
// hold.
func TestFormatSpansGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		format func(io.Reader, io.Writer) error
	}{
		{"spans.golden", FormatSpans},
		{"spans.query.golden", func(r io.Reader, w io.Writer) error { return FormatQueryTrace(r, w, "a1") }},
		{"spans.query-b2.golden", func(r io.Reader, w io.Writer) error { return FormatQueryTrace(r, w, "00000000000000b2") }},
	} {
		in, err := os.Open(filepath.Join("testdata", "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = tc.format(in, &out)
		in.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", tc.golden, out.Bytes(), want)
		}
	}
}

func TestSpanDuration(t *testing.T) {
	var sink CollectSink
	tr := NewTracer(&sink)
	sp := tr.Start("timed")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if got := sink.Spans()[0].Dur; got < time.Millisecond {
		t.Errorf("span duration = %v, want >= 1ms", got)
	}
}
