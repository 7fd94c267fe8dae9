package progressive

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceFixture is the deterministic variant of fixture: every function cost
// is pinned, so planning never drifts with measured wall-clock and a given
// (seed, budget, strategy) always yields the same epoch trace.
func traceFixture(tb testing.TB) (*dataset.Data, *enrich.Manager) {
	tb.Helper()
	d, err := dataset.Generate(dataset.Config{
		Seed: 19, Tweets: 250, Images: 120, TopicDomain: 4, TrainPerClass: 15,
	})
	if err != nil {
		tb.Fatal(err)
	}
	mgr := enrich.NewManager()
	specs := map[[2]string][]dataset.ModelSpec{
		{"TweetData", "sentiment"}: {{Kind: "gnb"}, {Kind: "dt", Param: 6}, {Kind: "mlp", Param: 10}},
		{"TweetData", "topic"}:     {{Kind: "gnb"}, {Kind: "lr"}},
		{"MultiPie", "gender"}:     {{Kind: "gnb"}, {Kind: "mlp", Param: 10}},
		{"MultiPie", "expression"}: {{Kind: "gnb"}, {Kind: "dt", Param: 8}},
	}
	if err := d.RegisterFamilies(mgr, specs); err != nil {
		tb.Fatal(err)
	}
	for _, rel := range []string{"TweetData", "MultiPie"} {
		for _, attr := range []string{"sentiment", "topic", "gender", "expression"} {
			fam := mgr.Family(rel, attr)
			if fam == nil {
				continue
			}
			for _, fn := range fam.Functions {
				fn.PinCost = true
				fn.CostEst = time.Duration(fn.ID+1) * 50 * time.Microsecond
			}
		}
	}
	return d, mgr
}

// spansByName groups collected spans by name, preserving emission order.
func spansByName(spans []*telemetry.Span) map[string][]*telemetry.Span {
	out := make(map[string][]*telemetry.Span)
	for _, sp := range spans {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

func attrInt(tb testing.TB, sp *telemetry.Span, key string) int64 {
	tb.Helper()
	for _, a := range sp.Attrs {
		if a.Key == key {
			v, ok := a.Val.(int64)
			if !ok {
				tb.Fatalf("span %s attr %s is %T, want int64", sp.Name, key, a.Val)
			}
			return v
		}
	}
	tb.Fatalf("span %s has no attr %s: %+v", sp.Name, key, sp.Attrs)
	return 0
}

// TestTraceCountersMatchManager is the PR's acceptance check: a traced
// progressive run emits one span per epoch phase, and the executed/skipped
// annotations on the epoch.enrich spans sum exactly to the manager's counter
// deltas for the run.
func TestTraceCountersMatchManager(t *testing.T) {
	d, mgr := traceFixture(t)
	var sink telemetry.CollectSink
	before := mgr.Counters()

	var reports []EpochReport
	res, err := Run(Config{
		Design:      Loose,
		Analysis:    analyze(t, d, "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"),
		DB:          d.DB,
		Mgr:         mgr,
		Strategy:    SBFO,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   300,
		Seed:        5,
		Workers:     1,
		Tracer:      telemetry.NewTracer(&sink),
		OnEpoch:     func(ep EpochReport) { reports = append(reports, ep) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 {
		t.Fatalf("want a multi-epoch run, got %d epochs", len(res.Epochs))
	}

	groups := spansByName(sink.Spans())
	if len(groups["query.setup"]) != 1 {
		t.Errorf("setup spans = %d, want 1", len(groups["query.setup"]))
	}
	// One plan/enrich/refresh span per completed epoch. The loop may emit one
	// extra epoch.plan span for the final empty plan that terminates the run.
	n := len(res.Epochs)
	if got := len(groups["epoch.plan"]); got != n && got != n+1 {
		t.Errorf("epoch.plan spans = %d, want %d (or %d with terminal empty plan)", got, n, n+1)
	}
	for _, name := range []string{"epoch.enrich", "epoch.refresh"} {
		if got := len(groups[name]); got != n {
			t.Errorf("%s spans = %d, want %d", name, got, n)
		}
		for i, sp := range groups[name] {
			if sp.Epoch != i+1 {
				t.Errorf("%s[%d] tagged epoch %d, want %d", name, i, sp.Epoch, i+1)
			}
		}
	}
	// Workers:1 loose determinization: one worker span per epoch that had
	// write-back work.
	if got := len(groups["epoch.determinize"]); got == 0 || got > n {
		t.Errorf("epoch.determinize spans = %d, want 1..%d", got, n)
	}
	for _, sp := range groups["epoch.determinize"] {
		if sp.Worker != 0 {
			t.Errorf("determinize worker = %d, want 0 at Workers:1", sp.Worker)
		}
	}

	// The acceptance sum: span annotations vs the manager's own counters.
	var executed, skipped int64
	for _, sp := range groups["epoch.enrich"] {
		executed += attrInt(t, sp, "executed")
		skipped += attrInt(t, sp, "skipped")
	}
	delta := mgr.Counters()
	if want := delta.Enrichments - before.Enrichments; executed != want {
		t.Errorf("sum of epoch.enrich executed = %d, manager delta = %d", executed, want)
	}
	if want := delta.Skipped - before.Skipped; skipped != want {
		t.Errorf("sum of epoch.enrich skipped = %d, manager delta = %d", skipped, want)
	}
	if executed != res.TotalEnrichments {
		t.Errorf("span sum %d != Result.TotalEnrichments %d", executed, res.TotalEnrichments)
	}

	// OnEpoch fired once per epoch, in order, with the same reports.
	if len(reports) != n {
		t.Fatalf("OnEpoch fired %d times, want %d", len(reports), n)
	}
	var cbExecuted int64
	for i, ep := range reports {
		if ep.Epoch != i+1 {
			t.Errorf("OnEpoch[%d].Epoch = %d", i, ep.Epoch)
		}
		if ep.Executed != res.Epochs[i].Executed || ep.Inserted != res.Epochs[i].Inserted {
			t.Errorf("OnEpoch[%d] diverges from Result.Epochs[%d]", i, i)
		}
		cbExecuted += ep.Executed
	}
	if cbExecuted != executed {
		t.Errorf("OnEpoch executed sum %d != span sum %d", cbExecuted, executed)
	}

	// The registry's epoch counter and wall-clock histogram saw every epoch.
	if got := mgr.Telemetry().Counter("epoch.count").Value(); got != int64(n) {
		t.Errorf("epoch.count = %d, want %d", got, n)
	}
}

// TestTraceTightMarkers checks the tight design's span shape: determinization
// happens inside read_udf, so each epoch carries a zero-duration marker span
// plus per-worker tight.select spans, and epoch.enrich reports coalesced
// invocations.
func TestTraceTightMarkers(t *testing.T) {
	d, mgr := traceFixture(t)
	var sink telemetry.CollectSink
	res, err := Run(Config{
		Design:      Tight,
		Analysis:    analyze(t, d, "SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 8"),
		DB:          d.DB,
		Mgr:         mgr,
		Strategy:    SBFO,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   300,
		Seed:        5,
		Workers:     2,
		Tracer:      telemetry.NewTracer(&sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := spansByName(sink.Spans())
	n := len(res.Epochs)
	if n == 0 {
		t.Fatal("no epochs ran")
	}
	if got := len(groups["epoch.determinize"]); got != n {
		t.Errorf("tight determinize markers = %d, want one per epoch (%d)", got, n)
	}
	for _, sp := range groups["epoch.determinize"] {
		if attrInt(t, sp, "embedded") != 1 {
			t.Errorf("tight determinize marker must carry embedded=1: %+v", sp.Attrs)
		}
	}
	if len(groups["tight.select"]) == 0 {
		t.Error("no tight.select worker spans emitted")
	}
	for _, sp := range groups["tight.select"] {
		if sp.Worker < 0 || sp.Worker > 1 {
			t.Errorf("tight.select worker = %d with Workers:2", sp.Worker)
		}
	}
	for _, sp := range groups["epoch.enrich"] {
		attrInt(t, sp, "coalesced") // must be present on the tight path
	}
}

// normalizeTrace rewrites the run-dependent fields of a JSONL trace (start
// timestamps, durations) to fixed values, leaving names, epochs, workers and
// attributes — the deterministic shape the golden file pins.
func normalizeTrace(tb testing.TB, raw []byte) string {
	tb.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			tb.Fatalf("bad trace line %q: %v", line, err)
		}
		m["start"] = "NORMALIZED"
		m["dur_us"] = 0
		b, err := json.Marshal(m) // map keys marshal sorted: stable output
		if err != nil {
			tb.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

// TestTraceGoldenTwoEpochs pins the exact span sequence of a two-epoch loose
// run: with pinned costs, a fixed seed and one worker, the trace is
// deterministic down to the plan targets and delta sizes. Regenerate with
// `go test ./internal/progressive -run TraceGolden -update`.
func TestTraceGoldenTwoEpochs(t *testing.T) {
	d, mgr := traceFixture(t)
	var buf bytes.Buffer
	_, err := Run(Config{
		Design:      Loose,
		Analysis:    analyze(t, d, "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"),
		DB:          d.DB,
		Mgr:         mgr,
		Strategy:    SBFO,
		EpochBudget: 2 * time.Millisecond,
		MaxEpochs:   2,
		Seed:        5,
		Workers:     1,
		Tracer:      telemetry.NewTracer(telemetry.NewJSONLSink(&buf)),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeTrace(t, buf.Bytes())

	golden := filepath.Join("testdata", "trace_two_epoch.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("trace diverges from golden (regenerate with -update if intended)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// benchmarkRun measures one full progressive run; the fixture rebuild is
// excluded from the timer. Comparing the Off/On variants bounds the telemetry
// overhead (the acceptance bar: disabled telemetry costs <2% on the Exp
// 1f-shaped workload).
func benchmarkRun(b *testing.B, tracer *telemetry.Tracer) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, mgr := traceFixture(b)
		b.StartTimer()
		_, err := Run(Config{
			Design:      Loose,
			Analysis:    analyze(b, d, "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000"),
			DB:          d.DB,
			Mgr:         mgr,
			Strategy:    SBFO,
			EpochBudget: 2 * time.Millisecond,
			MaxEpochs:   300,
			Seed:        5,
			Workers:     4,
			Tracer:      tracer,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) { benchmarkRun(b, nil) }

func BenchmarkRunTelemetryOn(b *testing.B) {
	benchmarkRun(b, telemetry.NewTracer(telemetry.NewJSONLSink(io.Discard)))
}
