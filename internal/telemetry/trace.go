package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are created through the
// typed ActiveSpan setters so the disabled path never boxes.
type Attr struct {
	Key string
	Val interface{}
}

// Span is one completed unit of pipeline work. Epoch 0 means "outside the
// epoch loop" (setup-phase spans); Worker -1 means "not a worker span".
// Trace 0 means "not part of a query trace" (in-process pipeline spans).
type Span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Epoch  int
	Worker int
	Trace  uint64
	Attrs  []Attr
}

// FormatTraceID renders a trace ID the way it appears in JSONL traces and
// the tracefmt -query flag: 16 lowercase hex digits.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses a hex trace ID (with or without leading zeros).
func ParseTraceID(s string) (uint64, error) {
	var id uint64
	if _, err := fmt.Sscanf(strings.ToLower(strings.TrimSpace(s)), "%x", &id); err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return id, nil
}

// Sink receives completed spans. Implementations must be safe for concurrent
// Emit calls — epoch workers finish spans in parallel.
type Sink interface {
	Emit(sp *Span)
}

// Tracer hands out spans and forwards completed ones to its sink. The nil
// tracer is the disabled state: Start returns nil, every ActiveSpan method
// no-ops on nil, and the whole path performs zero allocations (asserted by
// TestDisabledTracerZeroAlloc).
type Tracer struct {
	sink  Sink
	trace uint64
}

// NewTracer builds a tracer over a sink; a nil sink yields a nil (disabled)
// tracer.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// WithTrace returns a derived tracer (same sink) that stamps every span it
// starts with the given trace ID — the unit of propagation for one wire
// query or one connection. Nil-safe: a disabled tracer stays disabled.
func (t *Tracer) WithTrace(id uint64) *Tracer {
	if !t.Enabled() {
		return nil
	}
	return &Tracer{sink: t.sink, trace: id}
}

// Tee returns a tracer that emits every span to both this tracer's sink and
// extra, preserving the trace ID. A nil extra returns the receiver; a nil
// receiver with a non-nil extra yields a tracer over extra alone — this is
// how the server collects per-query span summaries even when no server-wide
// trace sink is configured.
func (t *Tracer) Tee(extra Sink) *Tracer {
	if extra == nil {
		return t
	}
	if !t.Enabled() {
		return &Tracer{sink: extra}
	}
	return &Tracer{sink: TeeSink{A: t.sink, B: extra}, trace: t.trace}
}

// TeeSink forwards each span to two sinks, in order.
type TeeSink struct {
	A, B Sink
}

// Emit implements Sink.
func (s TeeSink) Emit(sp *Span) {
	s.A.Emit(sp)
	s.B.Emit(sp)
}

// ActiveSpan is a span under construction. All methods are nil-safe.
type ActiveSpan struct {
	t  *Tracer
	sp Span
}

// Start opens a span. On a disabled tracer it returns nil, and the returned
// nil *ActiveSpan accepts the full method chain for free.
func (t *Tracer) Start(name string) *ActiveSpan {
	if !t.Enabled() {
		return nil
	}
	return &ActiveSpan{t: t, sp: Span{Name: name, Start: time.Now(), Worker: -1, Trace: t.trace}}
}

// Epoch tags the span with its epoch number.
func (s *ActiveSpan) Epoch(e int) *ActiveSpan {
	if s != nil {
		s.sp.Epoch = e
	}
	return s
}

// Worker tags the span with a worker ID.
func (s *ActiveSpan) Worker(w int) *ActiveSpan {
	if s != nil {
		s.sp.Worker = w
	}
	return s
}

// Int attaches an integer annotation.
func (s *ActiveSpan) Int(key string, v int64) *ActiveSpan {
	if s != nil {
		s.sp.Attrs = append(s.sp.Attrs, Attr{Key: key, Val: v})
	}
	return s
}

// Str attaches a string annotation.
func (s *ActiveSpan) Str(key, v string) *ActiveSpan {
	if s != nil {
		s.sp.Attrs = append(s.sp.Attrs, Attr{Key: key, Val: v})
	}
	return s
}

// End closes the span and emits it to the sink.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.sp.Dur = time.Since(s.sp.Start)
	s.t.sink.Emit(&s.sp)
}

// spanJSON is the JSONL wire form. Attrs marshal as a JSON object, whose
// keys encoding/json sorts — the golden tests rely on the deterministic
// field order.
type spanJSON struct {
	Name   string                 `json:"name"`
	Start  string                 `json:"start"`
	DurUS  int64                  `json:"dur_us"`
	Epoch  int                    `json:"epoch,omitempty"`
	Worker *int                   `json:"worker,omitempty"`
	Trace  string                 `json:"trace,omitempty"`
	Attrs  map[string]interface{} `json:"attrs,omitempty"`
}

func toJSON(sp *Span) spanJSON {
	j := spanJSON{
		Name:  sp.Name,
		Start: sp.Start.UTC().Format(time.RFC3339Nano),
		DurUS: sp.Dur.Microseconds(),
		Epoch: sp.Epoch,
	}
	if sp.Trace != 0 {
		j.Trace = FormatTraceID(sp.Trace)
	}
	if sp.Worker >= 0 {
		w := sp.Worker
		j.Worker = &w
	}
	if len(sp.Attrs) > 0 {
		j.Attrs = make(map[string]interface{}, len(sp.Attrs))
		for _, a := range sp.Attrs {
			j.Attrs[a.Key] = a.Val
		}
	}
	return j
}

// JSONLSink writes one JSON object per span to a writer. Emissions are
// serialized by an internal mutex so concurrent workers never interleave
// lines.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLSink builds a sink over w (typically a file or a buffer).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(sp *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(toJSON(sp)) // sink errors must never fail a query
}

// CollectSink retains spans in memory, for tests and for in-process
// consumers that post-process a run's trace.
type CollectSink struct {
	mu    sync.Mutex
	spans []*Span
}

// Emit implements Sink.
func (s *CollectSink) Emit(sp *Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// Spans returns the collected spans in emission order.
func (s *CollectSink) Spans() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.spans...)
}

// FormatSpans reads JSONL spans from r and pretty-prints them to w: spans
// grouped under epoch headers, with durations, worker and trace tags and
// sorted attributes — the renderer behind cmd/tracefmt and `make
// trace-demo`.
func FormatSpans(r io.Reader, w io.Writer) error {
	return renderSpans(r, w, false, 0)
}

// FormatQueryTrace reads JSONL spans from r and prints only the spans whose
// trace ID matches, as an indented tree: connection/setup-phase spans at the
// top level, per-epoch spans nested under "epoch N" headers. Unknown span
// keys in the input are ignored, not errors — newer servers may emit fields
// this renderer does not know. Backs the tracefmt -query flag.
func FormatQueryTrace(r io.Reader, w io.Writer, traceID string) error {
	want, err := ParseTraceID(traceID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s\n", FormatTraceID(want))
	return renderSpans(r, w, true, want)
}

// renderSpans is the one JSONL span renderer. Without a filter every span
// prints under "— setup —"/"— epoch N —" section headers, tagged with its
// trace; with one (tree) only trace want's spans print, epoch spans
// indented under an "epoch N" line. Both end with a totals line.
func renderSpans(r io.Reader, w io.Writer, tree bool, want uint64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lastEpoch := -1
	n := 0
	var total time.Duration
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var j spanJSON
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			return fmt.Errorf("telemetry: bad span line %q: %w", line, err)
		}
		if tree {
			if got, err := ParseTraceID(j.Trace); j.Trace == "" || err != nil || got != want {
				continue
			}
		}
		indent, width := "  ", 20
		switch {
		case tree:
			width = 22
			if j.Epoch != 0 {
				if j.Epoch != lastEpoch {
					fmt.Fprintf(w, "  epoch %d\n", j.Epoch)
				}
				indent = "    "
			}
		case j.Epoch != lastEpoch && j.Epoch == 0:
			fmt.Fprintln(w, "— setup —")
		case j.Epoch != lastEpoch:
			fmt.Fprintf(w, "— epoch %d —\n", j.Epoch)
		}
		lastEpoch = j.Epoch
		dur := time.Duration(j.DurUS) * time.Microsecond
		total += dur
		tag := ""
		if j.Worker != nil {
			tag = fmt.Sprintf(" [worker %d]", *j.Worker)
		}
		if !tree && j.Trace != "" {
			tag += fmt.Sprintf(" [trace %s]", j.Trace)
		}
		fmt.Fprintf(w, "%s%-*s %10v%s", indent, width, j.Name, dur, tag)
		if len(j.Attrs) > 0 {
			keys := make([]string, 0, len(j.Attrs))
			for k := range j.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%v", k, j.Attrs[k])
			}
			fmt.Fprintf(w, "  %s", strings.Join(parts, " "))
		}
		fmt.Fprintln(w)
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d spans, %v total span time\n", n, total.Round(time.Microsecond))
	return nil
}
