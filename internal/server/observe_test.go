package server

// End-to-end observability tests: one JSONL trace spanning
// handshake→admission→plan→epoch→result-stream (the `make trace-e2e`
// contract), EXPLAIN ANALYZE over the wire for every design, the
// slow-query log, and the /statusz page.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"enrichdb/internal/telemetry"
	"enrichdb/internal/testutil"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// syncBuf is a mutex-guarded buffer: server goroutines write trace/slow-log
// lines while the test goroutine reads, so a bare bytes.Buffer would race.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// jsonLines parses every non-empty JSONL line in the buffer.
func (s *syncBuf) jsonLines(t *testing.T) []map[string]interface{} {
	t.Helper()
	var out []map[string]interface{}
	for _, line := range strings.Split(s.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestTraceE2E runs one sampled progressive query against a traced server
// and asserts a single JSONL trace covers the full lifecycle: handshake,
// admission, planning, the per-epoch enrich/determinize/refresh loop, and
// the result stream — all sharing one trace ID.
func TestTraceE2E(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var buf syncBuf
	_, _, addr := start(t, 40, nil, func(cfg *Config) {
		cfg.Tracer = telemetry.NewTracer(telemetry.NewJSONLSink(&buf))
	})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := "SELECT id, label FROM events WHERE label = 1"
	res, err := c.QueryTrace(context.Background(), wire.DesignProgressive, sql,
		wire.TraceContext{Sampled: true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The sampled query streams its span summaries back in a Profile frame.
	if res.Profile == nil {
		t.Fatal("sampled query returned no Profile frame")
	}
	if res.Profile.TraceID == 0 {
		t.Fatal("Profile frame carries a zero trace ID")
	}
	if len(res.Profile.Spans) == 0 {
		t.Fatal("Profile frame carries no sampled spans")
	}
	spanNames := make(map[string]bool)
	for _, sp := range res.Profile.Spans {
		spanNames[sp.Name] = true
	}
	if !spanNames["epoch.enrich"] {
		t.Fatalf("Profile spans missing epoch.enrich: %v", spanNames)
	}

	// Progressive epochs report per-phase timing deltas on the Epoch frame.
	if len(res.Epochs) == 0 {
		t.Fatal("progressive run reported no epochs")
	}
	var phaseNs int64
	for _, ep := range res.Epochs {
		phaseNs += ep.PlanNs + ep.EnrichNs + ep.DeltaNs
	}
	if phaseNs <= 0 {
		t.Fatal("no epoch reported plan/enrich/delta timing")
	}

	// The server-side JSONL trace has the full span chain under one ID.
	spans := buf.jsonLines(t)
	byName := make(map[string]string) // span name -> trace id
	for _, sp := range spans {
		name, _ := sp["name"].(string)
		trace, _ := sp["trace"].(string)
		byName[name] = trace
	}
	want := []string{
		"server.handshake", "server.admission",
		"progressive.execute", "query.setup",
		"epoch.plan", "epoch.enrich", "epoch.determinize", "epoch.refresh",
		"server.result_stream",
	}
	trace := byName["server.handshake"]
	if trace == "" {
		t.Fatalf("handshake span has no trace ID; spans: %v", byName)
	}
	for _, name := range want {
		got, ok := byName[name]
		if !ok {
			t.Errorf("trace missing span %q", name)
			continue
		}
		if got != trace {
			t.Errorf("span %q trace %s != handshake trace %s", name, got, trace)
		}
	}
	if wireTrace := telemetry.FormatTraceID(res.Profile.TraceID); wireTrace != trace {
		t.Errorf("Profile frame trace %s != JSONL trace %s", wireTrace, trace)
	}
}

// TestExplainAnalyzeOverWire checks that EXPLAIN ANALYZE returns an operator
// profile for all four designs: a single "plan" text column plus the
// structured node tree on the Profile frame.
func TestExplainAnalyzeOverWire(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 40, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := "EXPLAIN ANALYZE SELECT id, label FROM events WHERE label = 1"
	roots := map[wire.Design]string{
		wire.DesignPlain:       "",
		wire.DesignLoose:       "LooseQuery",
		wire.DesignTight:       "",
		wire.DesignProgressive: "ProgressiveQuery",
	}
	for _, design := range []wire.Design{wire.DesignPlain, wire.DesignLoose, wire.DesignTight, wire.DesignProgressive} {
		res, err := c.Query(context.Background(), design, sql)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if len(res.Columns) != 1 || res.Columns[0] != "plan" {
			t.Fatalf("%s: columns = %v, want [plan]", design, res.Columns)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: EXPLAIN ANALYZE returned no plan lines", design)
		}
		if res.Profile == nil || len(res.Profile.Nodes) == 0 {
			t.Fatalf("%s: no structured profile on the wire", design)
		}
		if res.Profile.Design != design {
			t.Fatalf("%s: profile design = %s", design, res.Profile.Design)
		}
		root := res.Profile.Nodes[0]
		if root.Depth != 0 {
			t.Fatalf("%s: first profile node depth = %d, want 0", design, root.Depth)
		}
		if want := roots[design]; want != "" && root.Name != want {
			t.Fatalf("%s: profile root = %q, want %q", design, root.Name, want)
		}
		if root.WallNs <= 0 {
			t.Fatalf("%s: profile root wall = %d, want > 0", design, root.WallNs)
		}
	}
}

// TestExplainPlanOverWire checks plan-only EXPLAIN (no ANALYZE): the server
// returns the annotated operator tree the design runs as a "plan" text column
// without executing the query — zero enrichments, zero UDF calls, no profile
// frame.
func TestExplainPlanOverWire(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 40, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := "EXPLAIN SELECT id, label FROM events WHERE label = 1"
	for _, design := range []wire.Design{wire.DesignPlain, wire.DesignLoose, wire.DesignTight, wire.DesignProgressive} {
		res, err := c.Query(context.Background(), design, sql)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if len(res.Columns) != 1 || res.Columns[0] != "plan" {
			t.Fatalf("%s: columns = %v, want [plan]", design, res.Columns)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: EXPLAIN returned no plan lines", design)
		}
		text := ""
		for _, row := range res.Rows {
			text += row[0].String() + "\n"
		}
		if !strings.Contains(text, "est_rows=") || !strings.Contains(text, "est_cost=") {
			t.Fatalf("%s: plan lines missing cost annotations:\n%s", design, text)
		}
		// Tight runs the rewritten plan, so that is the plan it shows; the
		// other designs run the query as written.
		if rewritten := strings.Contains(text, "read_udf"); rewritten != (design == wire.DesignTight) {
			t.Fatalf("%s: plan shows read_udf = %v, want %v:\n%s", design, rewritten, design == wire.DesignTight, text)
		}
		if res.Enrichments != 0 || res.UDFCalls != 0 {
			t.Fatalf("%s: plan-only EXPLAIN executed work: enrichments=%d udf=%d",
				design, res.Enrichments, res.UDFCalls)
		}
		if res.Profile != nil {
			t.Fatalf("%s: plan-only EXPLAIN sent an execution profile", design)
		}
	}
}

// TestSlowQueryLog drives one query over a threshold of 1ns so it must be
// logged, then checks the JSONL record's shape.
func TestSlowQueryLog(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var buf syncBuf
	_, _, addr := start(t, 40, nil, func(cfg *Config) {
		cfg.SlowQueryThreshold = time.Nanosecond
		cfg.SlowQueryLog = &buf
	})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := "SELECT id, label FROM events WHERE label = 1"
	if _, err := c.Query(context.Background(), wire.DesignLoose, sql); err != nil {
		t.Fatal(err)
	}

	recs := buf.jsonLines(t)
	if len(recs) != 1 {
		t.Fatalf("slow-query log has %d records, want 1:\n%s", len(recs), buf.String())
	}
	rec := recs[0]
	if got, _ := rec["sql"].(string); got != sql {
		t.Fatalf("slow-query sql = %q, want %q", got, sql)
	}
	if got, _ := rec["design"].(string); got != "loose" {
		t.Fatalf("slow-query design = %q, want loose", got)
	}
	if wall, _ := rec["wall_ms"].(float64); wall <= 0 {
		t.Fatalf("slow-query wall_ms = %v, want > 0", rec["wall_ms"])
	}
	if _, ok := rec["ts"].(string); !ok {
		t.Fatalf("slow-query record missing ts: %v", rec)
	}
}

// TestStatusz checks the /statusz page shows the live connection and the
// admission section.
func TestStatusz(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, s, addr := start(t, 40, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One finished query so counters are warm and the conn is handshaken.
	if _, err := c.Query(context.Background(), wire.DesignPlain, "SELECT id FROM events"); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	s.StatusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "server: conns=1 in_flight=0") {
		t.Fatalf("statusz missing server line:\n%s", body)
	}
	if !strings.Contains(body, "conn 1: tenant=(default)") {
		t.Fatalf("statusz missing conn line:\n%s", body)
	}
	if !strings.Contains(body, "trace=") {
		t.Fatalf("statusz conn line missing trace ID:\n%s", body)
	}

	// The programmatic snapshot agrees.
	st := s.Status()
	if len(st.Conns) != 1 || st.Conns[0].ID != 1 {
		t.Fatalf("Status conns = %+v", st.Conns)
	}
	if len(st.Queries) != 0 {
		t.Fatalf("Status reports %d in-flight queries, want 0", len(st.Queries))
	}
}
