package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"enrichdb/internal/types"
)

// sampleFrames is one instance of every frame type with non-trivial field
// values, shared by the round-trip test and the fuzz seed corpus.
func sampleFrames() []Frame {
	return []Frame{
		&Hello{Proto: ProtoVersion, Token: "tok-alpha", Client: "loadgen/1"},
		&Welcome{Proto: ProtoVersion},
		&Query{ID: 7, Design: DesignTight, SQL: "SELECT * FROM T WHERE label = 3"},
		&Query{ID: 11, Design: DesignProgressive, SQL: "SELECT id FROM T",
			Trace: TraceContext{TraceID: 0xdeadbeefcafe, SpanID: 17, Sampled: true}},
		&Prepare{ID: 8, Name: "q1", Design: DesignLoose, SQL: "SELECT id FROM T"},
		&Prepare{ID: 12, Name: "q2", Design: DesignPlain, SQL: "SELECT id FROM T",
			Trace: TraceContext{TraceID: 1, Sampled: false}},
		&PrepareOK{ID: 8, Name: "q1"},
		&Execute{ID: 9, Name: "q1"},
		&Execute{ID: 13, Name: "q2", Trace: TraceContext{SpanID: 5, Sampled: true}},
		&Cancel{Query: 7},
		&ResultHeader{Query: 7, Columns: []string{"id", "grp", "label"}},
		BatchFromValues(7, [][]types.Value{
			{types.NewInt(1), types.NewString("a"), types.Null},
			{types.NewInt(2), types.Null, types.NewInt(5)},
			{types.Null, types.NewString("c"), types.NewInt(-3)},
		}),
		BatchFromValues(7, [][]types.Value{
			{types.NewString("t"), types.NewVector([]float64{1, 2})},
			{types.NewString("f"), types.NewInt(3)}, // mixed → generic col
		}),
		&ResultBatch{Query: 3, NRows: 0},
		&ResultDone{Query: 7, Rows: 1000, Enrichments: 12, Failed: 1, UDFCalls: 30, Epochs: 4, WallNs: 5_000_000},
		&Epoch{Query: 7, N: 2, Planned: 64, Enrichments: 64, Inserted: 5, Deleted: 1, Quality: 0.75, WallNs: 25_000_000},
		&Epoch{Query: 11, N: 3, Planned: 32, Enrichments: 32, Quality: 1,
			WallNs: 9_000_000, PlanNs: 1_000_000, EnrichNs: 7_500_000, DeltaNs: 500_000},
		&Profile{Query: 11, TraceID: 0xdeadbeefcafe, Design: DesignProgressive,
			Nodes: []ProfileNode{
				{Depth: 0, Name: "Filter", Detail: "R.a < 50", RowsIn: 1000, RowsOut: 500, Batches: 1, WallNs: 12345},
				{Depth: 1, Name: "Scan", Detail: "R AS R", RowsIn: 1000, RowsOut: 1000, FallbackRows: 3, WallNs: 9876},
			},
			Spans: []ProfileSpan{
				{Name: "query.setup", Epoch: 0, DurUS: 42},
				{Name: "epoch.enrich", Epoch: 1, DurUS: 1234},
			}},
		&Profile{Query: 12, Design: DesignPlain},
		&Error{Query: 7, Code: CodeQuery, Msg: "unknown relation Q"},
	}
}

// TestFrameRoundTrip: decode(encode(f)) == f for a representative of every
// frame type, through the full length-prefixed stream path.
func TestFrameRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatalf("write %s: %v", f.Type(), err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&stream, 0)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", want.Type(), got, want)
		}
	}
	if _, err := ReadFrame(&stream, 0); err != io.EOF {
		t.Errorf("stream end: got %v, want io.EOF", err)
	}
}

// TestBatchValuesRoundTrip: row-major → columnar → row-major preserves
// every value, including NULLs, negative zero, and vectors.
func TestBatchValuesRoundTrip(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(-5), types.NewVector([]float64{math.Inf(1)}), types.NewString(""), types.NewInt(1), types.NewVector([]float64{1.5})},
		{types.Null, types.Null, types.Null, types.Null, types.Null},
		{types.NewInt(1 << 40), types.NewVector([]float64{math.Copysign(0, -1)}), types.NewString("héllo"), types.NewInt(0), types.NewVector(nil)},
	}
	b := BatchFromValues(9, rows)
	got, err := b.Values()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: got %d want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if !reflect.DeepEqual(got[i][j], rows[i][j]) {
				t.Errorf("cell (%d,%d): got %#v want %#v", i, j, got[i][j], rows[i][j])
			}
		}
	}
	// The typed layout must actually engage: column 0 is INT, not generic.
	if b.Cols[0].Kind != types.KindInt || b.Cols[0].Vals != nil {
		t.Errorf("column 0 should use the typed INT layout, got kind %v", b.Cols[0].Kind)
	}
	// All-NULL column 0 of a single-row batch collapses to a typed layout too.
	nb := BatchFromValues(1, [][]types.Value{{types.Null}})
	if nb.Cols[0].Kind != types.KindInt || len(nb.Cols[0].Ints) != 0 {
		t.Errorf("all-NULL column should be typed with empty payload: %#v", nb.Cols[0])
	}
}

// TestDecodeRejectsMalformed: corrupted frames error instead of panicking
// or desynchronizing.
func TestDecodeRejectsMalformed(t *testing.T) {
	// Truncated payloads of every sample frame, at every cut point.
	for _, f := range sampleFrames() {
		full, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		payload := full[5:] // strip length + type
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeFrame(f.Type(), payload[:cut]); err == nil {
				// Some prefixes happen to decode (e.g. trailing empty string
				// fields are the only truncation-visible part) — but then the
				// decode must have consumed everything, which DecodeFrame
				// enforces via the trailing-bytes check, so reaching here
				// means the prefix was a complete valid payload of a shorter
				// frame. That is acceptable only if re-encoding matches.
				g, _ := DecodeFrame(f.Type(), payload[:cut])
				re, _ := AppendFrame(nil, g)
				if !bytes.Equal(re[5:], payload[:cut]) {
					t.Errorf("%s: truncation at %d/%d decoded inconsistently", f.Type(), cut, len(payload))
				}
			}
		}
	}
	// Unknown type.
	if _, err := DecodeFrame(Type(200), nil); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
		t.Errorf("unknown type: %v", err)
	}
	// Oversized frame header.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TypeCancel)}
	if _, err := ReadFrame(bytes.NewReader(big), 0); err == nil {
		t.Error("oversized frame must be rejected")
	}
	// Zero-length frame.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0); err == nil {
		t.Error("zero-length frame must be rejected")
	}
	// Forged batch row count.
	forged := appendUvarint(nil, 1)                // query
	forged = appendUvarint(forged, MaxBatchRows+1) // rows over cap
	forged = appendUvarint(forged, 0)              // cols
	if _, err := DecodeFrame(TypeResultBatch, forged); err == nil {
		t.Error("batch over the row cap must be rejected")
	}
	// Forged column count larger than the payload can hold.
	forged = appendUvarint(nil, 1)
	forged = appendUvarint(forged, 4)
	forged = appendUvarint(forged, 1<<40)
	if _, err := DecodeFrame(TypeResultBatch, forged); err == nil {
		t.Error("forged column count must be rejected")
	}
	// A batch column of kind 2 or 4 (FLOAT and BOOL once) is refused by
	// name, as is a VECTOR column outside the generic layout.
	for kind, want := range map[byte]string{2: "FLOAT is not supported", 4: "BOOL is not supported", 5: "VECTOR has no columnar layout"} {
		forged = appendUvarint(nil, 1)                    // query
		forged = appendUvarint(forged, 1)                 // rows
		forged = appendUvarint(forged, 1)                 // cols
		forged = appendVarint(append(forged, kind, 0), 1) // kind, NULL bitmap, one lane
		if _, err := DecodeFrame(TypeResultBatch, forged); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("column kind %d: got %v, want an error naming %q", kind, err, want)
		}
	}
	// Trailing garbage after a valid frame payload.
	cancel, _ := AppendFrame(nil, &Cancel{Query: 1})
	if _, err := DecodeFrame(TypeCancel, append(cancel[5:], 0xAA)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

// TestReadFrameShortStream: a frame cut off mid-body surfaces
// io.ErrUnexpectedEOF, distinguishing a torn connection from a clean close.
func TestReadFrameShortStream(t *testing.T) {
	full, err := AppendFrame(nil, &Error{Code: CodeDraining, Msg: "test"})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if err == nil {
			t.Fatalf("short stream at %d decoded", cut)
		}
		if cut >= 4 && err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// removedFrames are protocol-1 payloads of the frame types protocol 2
// removed (Kill, Killed, Ping, Pong, Drain). Their numbers stay reserved,
// not reused, and decode as unknown whatever their payload; FuzzFrame seeds
// the rejection path with them.
var removedFrames = []struct {
	typ     Type
	payload []byte
}{
	{8, []byte{10, 42, 7}}, // Kill{ID: 10, TargetConn: 42, TargetQuery: 7}
	{9, []byte{10, 1}},     // Killed{ID: 10, Count: 1}
	{15, []byte{99}},       // Ping{Nonce: 99}
	{16, []byte{99}},       // Pong{Nonce: 99}
	{17, []byte{1, 'x'}},   // Drain{Reason: "x"}
}

// rawFrame frames a payload under a type byte, whether or not the type
// exists.
func rawFrame(typ Type, payload []byte) []byte {
	img := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(img, byte(typ)), payload...)
}

// TestDecodeRejectsRemovedTypes: DecodeFrame and ReadFrame reject every
// removed frame type as unknown.
func TestDecodeRejectsRemovedTypes(t *testing.T) {
	for _, tc := range removedFrames {
		if _, err := DecodeFrame(tc.typ, tc.payload); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("type %d: got %v, want an unknown frame type error", tc.typ, err)
		}
		if _, err := ReadFrame(bytes.NewReader(rawFrame(tc.typ, tc.payload)), 0); err == nil {
			t.Errorf("type %d: ReadFrame accepted a removed frame type", tc.typ)
		}
	}
}
