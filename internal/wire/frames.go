package wire

import (
	"fmt"
)

// Type discriminates frames on the wire.
type Type uint8

// Frame types. The numbering is part of the protocol; append, never renumber.
// Numbers 8 and 9 (Kill, Killed: cancel a query on another connection) and
// 15, 16 and 17 (Ping, Pong, Drain) belonged to frames protocol 1 had and
// protocol 2 removed; they stay reserved, and DecodeFrame rejects them as
// unknown.
const (
	TypeHello        Type = 1  // client→server: handshake open
	TypeWelcome      Type = 2  // server→client: handshake accept
	TypeQuery        Type = 3  // client→server: run SQL under a design
	TypePrepare      Type = 4  // client→server: register a named statement
	TypePrepareOK    Type = 5  // server→client: statement accepted
	TypeExecute      Type = 6  // client→server: run a prepared statement
	TypeCancel       Type = 7  // client→server: cancel own in-flight query
	TypeResultHeader Type = 10 // server→client: result columns
	TypeResultBatch  Type = 11 // server→client: one columnar row batch
	TypeResultDone   Type = 12 // server→client: end of result + stats
	TypeEpoch        Type = 13 // server→client: progressive epoch report
	TypeError        Type = 14 // server→client: query or connection error
	TypeProfile      Type = 18 // server→client: sampled spans + operator profile
)

// String names a frame type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeWelcome:
		return "WELCOME"
	case TypeQuery:
		return "QUERY"
	case TypePrepare:
		return "PREPARE"
	case TypePrepareOK:
		return "PREPARE_OK"
	case TypeExecute:
		return "EXECUTE"
	case TypeCancel:
		return "CANCEL"
	case TypeResultHeader:
		return "RESULT_HEADER"
	case TypeResultBatch:
		return "RESULT_BATCH"
	case TypeResultDone:
		return "RESULT_DONE"
	case TypeEpoch:
		return "EPOCH"
	case TypeError:
		return "ERROR"
	case TypeProfile:
		return "PROFILE"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Design selects the execution architecture for a Query/Prepare frame.
type Design uint8

// Wire designs mirror the public query API.
const (
	DesignPlain       Design = 0 // no enrichment: read determined state
	DesignLoose       Design = 1 // probe → batch enrich → run
	DesignTight       Design = 2 // UDF-rewritten lazy enrichment
	DesignProgressive Design = 3 // epoch-budgeted refinement, Epoch frames
)

// String names a design.
func (d Design) String() string {
	switch d {
	case DesignPlain:
		return "plain"
	case DesignLoose:
		return "loose"
	case DesignTight:
		return "tight"
	case DesignProgressive:
		return "progressive"
	default:
		return fmt.Sprintf("design(%d)", uint8(d))
	}
}

// Error codes carried by Error frames.
const (
	CodeInternal     uint16 = 1  // unexpected server-side failure
	CodeBadFrame     uint16 = 2  // malformed or out-of-order frame
	CodeAuth         uint16 = 3  // unknown token / refused handshake
	CodeQuery        uint16 = 4  // SQL parse/analyze/execute error
	CodeCanceled     uint16 = 5  // query canceled
	CodeDraining     uint16 = 6  // server shutting down
	CodeAdmission    uint16 = 7  // session admission timed out
	CodeUnknownStmt  uint16 = 8  // Execute of an unprepared name
	CodeUnsupported  uint16 = 9  // protocol version or feature mismatch
	CodeSlowConsumer uint16 = 10 // write timeout streaming to the client
)

// Frame is one protocol message. Concrete frames are plain structs; the
// interface carries only typing and codec hooks so frames stay comparable
// and fuzz-friendly.
type Frame interface {
	Type() Type
	appendPayload(dst []byte) []byte
}

// Hello opens a connection: protocol version, the tenant auth token, and a
// free-form client name for diagnostics.
type Hello struct {
	Proto  uint32
	Token  string
	Client string
}

// Welcome accepts a handshake: the server's protocol version, the one
// field clients read.
type Welcome struct {
	Proto uint32
}

// Query runs SQL under a design. ID is chosen by the client, must be nonzero
// and unused on this connection; every response frame for the query echoes
// it. Trace is optional client-supplied trace context (zero = absent on the
// wire — pre-trace peers interoperate unchanged).
type Query struct {
	ID     uint32
	Design Design
	SQL    string
	Trace  TraceContext
}

// Prepare registers a named statement (parse/analyze once, execute many).
type Prepare struct {
	ID     uint32 // response correlation, like Query.ID
	Name   string
	Design Design
	SQL    string
	Trace  TraceContext
}

// PrepareOK acknowledges a Prepare.
type PrepareOK struct {
	ID   uint32
	Name string
}

// Execute runs a prepared statement; responses carry ID like a Query.
type Execute struct {
	ID    uint32
	Name  string
	Trace TraceContext
}

// Cancel aborts the connection's own in-flight query with the given ID. The
// query answers with an Error frame (CodeCanceled); canceling a finished or
// unknown query is a no-op.
type Cancel struct {
	Query uint32
}

// ResultHeader starts a result stream: the column names of every following
// batch.
type ResultHeader struct {
	Query   uint32
	Columns []string
}

// ResultDone ends a result stream with its summary statistics.
type ResultDone struct {
	Query       uint32
	Rows        uint64
	Enrichments int64
	Failed      int64 // failed enrichments (loose)
	UDFCalls    int64 // UDF invocations (tight)
	Epochs      uint32
	WallNs      int64
}

// Epoch is one progressive epoch's report, streamed while the query is
// still refining. PlanNs/EnrichNs/DeltaNs split the epoch's wall time into
// its pipeline phases (plan / enrich+determinize / IVM refresh); all-zero
// means absent on the wire, keeping pre-profile peers compatible.
type Epoch struct {
	Query       uint32
	N           uint32
	Planned     uint32
	Enrichments int64
	Inserted    uint32
	Deleted     uint32
	Quality     float64
	WallNs      int64
	PlanNs      int64
	EnrichNs    int64
	DeltaNs     int64
}

// Error reports a failure. Query 0 addresses the connection itself
// (handshake or framing errors, which also end the connection).
type Error struct {
	Query uint32
	Code  uint16
	Msg   string
}

// Error implements the error interface so servers/clients can return Error
// frames directly.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: remote error (code %d): %s", e.Code, e.Msg)
}

// Type implementations.

func (*Hello) Type() Type        { return TypeHello }
func (*Welcome) Type() Type      { return TypeWelcome }
func (*Query) Type() Type        { return TypeQuery }
func (*Prepare) Type() Type      { return TypePrepare }
func (*PrepareOK) Type() Type    { return TypePrepareOK }
func (*Execute) Type() Type      { return TypeExecute }
func (*Cancel) Type() Type       { return TypeCancel }
func (*ResultHeader) Type() Type { return TypeResultHeader }
func (*ResultBatch) Type() Type  { return TypeResultBatch }
func (*ResultDone) Type() Type   { return TypeResultDone }
func (*Epoch) Type() Type        { return TypeEpoch }
func (*Error) Type() Type        { return TypeError }

// Payload codecs. Encode and decode are kept adjacent per frame so the two
// sides of the format cannot drift apart silently; FuzzFrame enforces the
// round trip mechanically.

func (f *Hello) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Proto))
	dst = appendStr(dst, f.Token)
	return appendStr(dst, f.Client)
}

func decodeHello(r *buf) (Frame, error) {
	var f Hello
	var err error
	if f.Proto, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Token, err = r.str(); err != nil {
		return nil, err
	}
	if f.Client, err = r.str(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Welcome) appendPayload(dst []byte) []byte {
	return appendUvarint(dst, uint64(f.Proto))
}

func decodeWelcome(r *buf) (Frame, error) {
	var f Welcome
	var err error
	if f.Proto, err = r.u32(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Query) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.ID))
	dst = append(dst, byte(f.Design))
	dst = appendStr(dst, f.SQL)
	return f.Trace.appendOptional(dst)
}

func decodeQuery(r *buf) (Frame, error) {
	var f Query
	var err error
	if f.ID, err = r.u32(); err != nil {
		return nil, err
	}
	d, err := r.u8()
	if err != nil {
		return nil, err
	}
	f.Design = Design(d)
	if f.SQL, err = r.str(); err != nil {
		return nil, err
	}
	if err = f.Trace.decodeOptional(r); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Prepare) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.ID))
	dst = appendStr(dst, f.Name)
	dst = append(dst, byte(f.Design))
	dst = appendStr(dst, f.SQL)
	return f.Trace.appendOptional(dst)
}

func decodePrepare(r *buf) (Frame, error) {
	var f Prepare
	var err error
	if f.ID, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Name, err = r.str(); err != nil {
		return nil, err
	}
	d, err := r.u8()
	if err != nil {
		return nil, err
	}
	f.Design = Design(d)
	if f.SQL, err = r.str(); err != nil {
		return nil, err
	}
	if err = f.Trace.decodeOptional(r); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *PrepareOK) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.ID))
	return appendStr(dst, f.Name)
}

func decodePrepareOK(r *buf) (Frame, error) {
	var f PrepareOK
	var err error
	if f.ID, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Name, err = r.str(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Execute) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.ID))
	dst = appendStr(dst, f.Name)
	return f.Trace.appendOptional(dst)
}

func decodeExecute(r *buf) (Frame, error) {
	var f Execute
	var err error
	if f.ID, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Name, err = r.str(); err != nil {
		return nil, err
	}
	if err = f.Trace.decodeOptional(r); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Cancel) appendPayload(dst []byte) []byte {
	return appendUvarint(dst, uint64(f.Query))
}

func decodeCancel(r *buf) (Frame, error) {
	var f Cancel
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *ResultHeader) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Query))
	return appendStrs(dst, f.Columns)
}

func decodeResultHeader(r *buf) (Frame, error) {
	var f ResultHeader
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Columns, err = r.strs(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *ResultDone) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Query))
	dst = appendUvarint(dst, f.Rows)
	dst = appendVarint(dst, f.Enrichments)
	dst = appendVarint(dst, f.Failed)
	dst = appendVarint(dst, f.UDFCalls)
	dst = appendUvarint(dst, uint64(f.Epochs))
	return appendVarint(dst, f.WallNs)
}

func decodeResultDone(r *buf) (Frame, error) {
	var f ResultDone
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Rows, err = r.uvarint(); err != nil {
		return nil, err
	}
	if f.Enrichments, err = r.varint(); err != nil {
		return nil, err
	}
	if f.Failed, err = r.varint(); err != nil {
		return nil, err
	}
	if f.UDFCalls, err = r.varint(); err != nil {
		return nil, err
	}
	if f.Epochs, err = r.u32(); err != nil {
		return nil, err
	}
	if f.WallNs, err = r.varint(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *Epoch) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Query))
	dst = appendUvarint(dst, uint64(f.N))
	dst = appendUvarint(dst, uint64(f.Planned))
	dst = appendVarint(dst, f.Enrichments)
	dst = appendUvarint(dst, uint64(f.Inserted))
	dst = appendUvarint(dst, uint64(f.Deleted))
	dst = appendF64(dst, f.Quality)
	dst = appendVarint(dst, f.WallNs)
	// Optional phase-timing suffix: present only when some phase is nonzero,
	// so the canonical encoding of a timing-free epoch is byte-identical to
	// the pre-profile format.
	if f.PlanNs != 0 || f.EnrichNs != 0 || f.DeltaNs != 0 {
		dst = appendVarint(dst, f.PlanNs)
		dst = appendVarint(dst, f.EnrichNs)
		dst = appendVarint(dst, f.DeltaNs)
	}
	return dst
}

func decodeEpoch(r *buf) (Frame, error) {
	var f Epoch
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	if f.N, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Planned, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Enrichments, err = r.varint(); err != nil {
		return nil, err
	}
	if f.Inserted, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Deleted, err = r.u32(); err != nil {
		return nil, err
	}
	if f.Quality, err = r.f64(); err != nil {
		return nil, err
	}
	if f.WallNs, err = r.varint(); err != nil {
		return nil, err
	}
	if r.remaining() > 0 {
		if f.PlanNs, err = r.varint(); err != nil {
			return nil, err
		}
		if f.EnrichNs, err = r.varint(); err != nil {
			return nil, err
		}
		if f.DeltaNs, err = r.varint(); err != nil {
			return nil, err
		}
	}
	return &f, nil
}

func (f *Error) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Query))
	dst = appendUvarint(dst, uint64(f.Code))
	return appendStr(dst, f.Msg)
}

func decodeError(r *buf) (Frame, error) {
	var f Error
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	code, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if code > math16 {
		return nil, fmt.Errorf("wire: error code %d overflows uint16", code)
	}
	f.Code = uint16(code)
	if f.Msg, err = r.str(); err != nil {
		return nil, err
	}
	return &f, nil
}

const math16 = 1<<16 - 1

// DecodeFrame decodes one frame payload. Trailing bytes after a complete
// payload are an error: a frame is exactly its content, so length confusion
// is caught at the first corrupted frame instead of desynchronizing later.
func DecodeFrame(t Type, payload []byte) (Frame, error) {
	r := &buf{b: payload}
	var f Frame
	var err error
	switch t {
	case TypeHello:
		f, err = decodeHello(r)
	case TypeWelcome:
		f, err = decodeWelcome(r)
	case TypeQuery:
		f, err = decodeQuery(r)
	case TypePrepare:
		f, err = decodePrepare(r)
	case TypePrepareOK:
		f, err = decodePrepareOK(r)
	case TypeExecute:
		f, err = decodeExecute(r)
	case TypeCancel:
		f, err = decodeCancel(r)
	case TypeResultHeader:
		f, err = decodeResultHeader(r)
	case TypeResultBatch:
		f, err = decodeResultBatch(r)
	case TypeResultDone:
		f, err = decodeResultDone(r)
	case TypeEpoch:
		f, err = decodeEpoch(r)
	case TypeError:
		f, err = decodeError(r)
	case TypeProfile:
		f, err = decodeProfile(r)
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", uint8(t))
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", t, err)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: decode %s: %d trailing bytes", t, r.remaining())
	}
	return f, nil
}
