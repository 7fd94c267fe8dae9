// Package server is enrichdb's network front end: a TCP listener speaking
// the wire protocol, binding one snapshot-isolated session per connection
// and streaming columnar result batches back to clients.
//
// Connection lifecycle: accept → handshake (Hello/Welcome under a deadline,
// token → tenant) → session bind (db.SessionFor, so per-tenant quotas and
// priorities admit or queue the connection) → serve loop (frames dispatched,
// queries run in per-query goroutines with their own cancel contexts) →
// drain (session closed, quota released — also on abrupt disconnect).
//
// Queries are killable: a Cancel frame aborts the sender's own in-flight
// query, a Kill frame aborts queries on another connection of the same
// tenant. Cancellation reaches plain and progressive executions mid-flight
// (the engine polls the context between batches; the progressive loop checks
// it per epoch); loose and tight executions cancel at stream boundaries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"enrichdb"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
	"enrichdb/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the database to serve. Required.
	DB *enrichdb.DB
	// Tokens maps handshake auth tokens to tenant names. With a nil map any
	// token is accepted and bound to the default tenant ""; with a non-nil
	// map, unknown tokens are refused (CodeAuth).
	Tokens map[string]string
	// HandshakeTimeout bounds the Hello/Welcome exchange (default 5s) — a
	// peer trickling its handshake one byte at a time is cut off here.
	HandshakeTimeout time.Duration
	// IdleTimeout closes connections with no inbound frame for this long;
	// zero means no idle limit. In-flight queries extend the allowance: the
	// deadline is re-armed per frame *and* while queries are outstanding.
	IdleTimeout time.Duration
	// WriteTimeout bounds each outbound frame write (default 10s); a
	// consumer stalling the stream longer loses the connection
	// (CodeSlowConsumer is sent on a best-effort basis).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight queries before
	// force-closing connections (default 5s).
	DrainTimeout time.Duration
	// MaxFrame caps accepted frame sizes (default wire.MaxFrameLen).
	MaxFrame int
	// BatchRows is the result-stream stride (default wire.DefaultBatchRows).
	BatchRows int
	// Progressive is the option template for progressive queries (Design,
	// OnEpoch, Quality and Cancel are overridden per query).
	Progressive enrichdb.ProgressiveOptions
	// Tracer, when non-nil, receives the serving tier's spans: handshake and
	// admission per connection, and — for sampled queries — the full
	// execution chain (plan/probe/enrich/epoch spans down in the drivers plus
	// the result-stream span), every span stamped with the query's trace ID.
	Tracer *telemetry.Tracer
	// SampleEvery traces every Nth query per connection even when the client
	// didn't set the sampled flag (1 samples everything, 0 disables
	// server-side sampling). A sampled query also gets a Profile frame with
	// its span summaries.
	SampleEvery int
	// SlowQueryThreshold, together with SlowQueryLog, logs every query whose
	// wall time reaches the threshold.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one JSON line per slow query: tenant, connection,
	// query text, design, wall time, row/enrichment counts, trace ID, and the
	// operator profile when one was collected. Writes are serialized.
	SlowQueryLog io.Writer
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server is the TCP serving tier.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	mu          sync.Mutex
	ln          net.Listener
	conns       map[uint64]*conn
	nextConn    uint64
	draining    bool
	drainReason string
	closed      bool

	slowMu sync.Mutex // serializes SlowQueryLog writes

	wg sync.WaitGroup // accept loop + connection handlers
}

// New builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.BatchRows <= 0 || cfg.BatchRows > wire.MaxBatchRows {
		cfg.BatchRows = wire.DefaultBatchRows
	}
	return &Server{cfg: cfg, reg: cfg.DB.Telemetry(), conns: make(map[uint64]*conn)}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen binds addr and starts accepting in the background. Use Addr for
// the bound address (addr may use port 0).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed by Drain/Close
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.nextConn++
		c := &conn{
			s:       s,
			id:      s.nextConn,
			nc:      nc,
			queries: make(map[uint32]*liveQuery),
			stmts:   make(map[string]stmt),
			// The connection's trace ID covers handshake, admission and every
			// query the client didn't stamp with its own trace ID, so one
			// JSONL trace spans the connection end to end.
			trace: uint64(time.Now().UnixNano()) ^ (s.nextConn * 0x9e3779b97f4a7c15),
		}
		s.conns[c.id] = c
		s.mu.Unlock()
		s.reg.Counter("serve.conn_total").Add(1)
		s.reg.Gauge("serve.conn_open").Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.handle()
		}()
	}
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c.id)
	s.mu.Unlock()
	s.reg.Gauge("serve.conn_open").Add(-1)
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: stop accepting, announce Drain on
// every connection, refuse new queries (CodeDraining), wait up to
// DrainTimeout for in-flight queries, then close all connections. Safe to
// call once; it blocks until every connection handler returned.
func (s *Server) Drain(reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.drainReason = reason
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.reg.Counter("serve.drains").Add(1)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.write(&wire.Drain{Reason: reason})
	}
	// Wait for in-flight queries, bounded.
	done := make(chan struct{})
	go func() {
		for _, c := range conns {
			c.qwg.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.logf("server: drain timeout after %v, force-closing", s.cfg.DrainTimeout)
	}
	s.Close()
}

// Close shuts down immediately: the listener and every connection are
// closed, in-flight queries are canceled, and all handlers are awaited.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	s.wg.Wait()
}

// stmt is one prepared statement.
type stmt struct {
	design wire.Design
	sql    string
}

// liveQuery is one in-flight query's control block: the cancel hook plus
// what /statusz shows about it.
type liveQuery struct {
	cancel context.CancelFunc
	sql    string
	design wire.Design
	start  time.Time
}

// conn is one client connection's server-side state.
type conn struct {
	s     *Server
	id    uint64
	nc    net.Conn
	trace uint64            // connection-level trace ID
	tr    *telemetry.Tracer // cfg.Tracer stamped with trace (nil when untraced)
	qn    uint64            // queries started (read-loop only; drives SampleEvery)

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	sess    *enrichdb.Session
	tenant  string
	queries map[uint32]*liveQuery
	stmts   map[string]stmt
	closed  bool

	qwg sync.WaitGroup // in-flight query goroutines
}

// write sends one frame under the write lock and deadline. A failed write
// tears the connection down (the read loop unblocks on the closed socket).
func (c *conn) write(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := wire.AppendFrame(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	if _, err := c.nc.Write(buf); err != nil {
		c.s.reg.Counter("serve.write_errors").Add(1)
		c.nc.Close()
		return err
	}
	c.s.reg.Counter("serve.frames_out").Add(1)
	return nil
}

// shutdown force-closes the connection and cancels its queries.
func (c *conn) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cancels := make([]context.CancelFunc, 0, len(c.queries))
	for _, q := range c.queries {
		cancels = append(cancels, q.cancel)
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	c.nc.Close()
}

// handle runs the connection lifecycle; it owns the read side.
func (c *conn) handle() {
	defer c.s.removeConn(c)
	defer c.nc.Close()
	if !c.handshake() {
		c.s.reg.Counter("serve.handshake_rejected").Add(1)
		return
	}
	// The session is the connection's admission slot: release it however the
	// connection ends — clean close, abrupt disconnect, drain, kill.
	defer c.sess.Close()
	defer func() {
		// Disconnect aborts the connection's in-flight queries and waits for
		// their goroutines, so no query outlives its session.
		c.shutdown()
		c.qwg.Wait()
	}()
	c.serveLoop()
}

// handshake performs Hello → (Welcome | Error) under HandshakeTimeout and
// binds the session. Reports success.
func (c *conn) handshake() bool {
	cfg := &c.s.cfg
	c.tr = cfg.Tracer.WithTrace(c.trace)
	sp := c.tr.Start("server.handshake").Int("conn", int64(c.id))
	c.nc.SetReadDeadline(time.Now().Add(cfg.HandshakeTimeout))
	fr, err := wire.ReadFrame(c.nc, cfg.MaxFrame)
	if err != nil {
		sp.Str("error", "read: "+err.Error()).End()
		return false // slowloris, garbage, or disconnect: no reply owed
	}
	hello, ok := fr.(*wire.Hello)
	if !ok {
		c.write(&wire.Error{Code: wire.CodeBadFrame, Msg: fmt.Sprintf("expected Hello, got %s", fr.Type())})
		sp.Str("error", "bad first frame").End()
		return false
	}
	if hello.Proto != wire.ProtoVersion {
		c.write(&wire.Error{Code: wire.CodeUnsupported, Msg: fmt.Sprintf("protocol %d not supported", hello.Proto)})
		sp.Str("error", "unsupported proto").End()
		return false
	}
	tenant := ""
	if cfg.Tokens != nil {
		t, ok := cfg.Tokens[hello.Token]
		if !ok {
			c.write(&wire.Error{Code: wire.CodeAuth, Msg: "unknown token"})
			sp.Str("error", "unknown token").End()
			return false
		}
		tenant = t
	}
	if c.s.Draining() {
		c.write(&wire.Error{Code: wire.CodeDraining, Msg: "server is draining"})
		sp.Str("error", "draining").End()
		return false
	}
	// Admission control queues here: the wait is the gap between this span
	// and the handshake span's end, and lands in serve.admission_wait_ms.
	spAdm := c.tr.Start("server.admission").Str("tenant", tenant)
	sess, err := cfg.DB.SessionFor(tenant)
	if err != nil {
		spAdm.Str("error", err.Error()).End()
		sp.End()
		code := wire.CodeInternal
		if errors.Is(err, enrichdb.ErrSessionTimeout) {
			code = wire.CodeAdmission
		}
		c.write(&wire.Error{Code: code, Msg: err.Error()})
		return false
	}
	spAdm.End()
	c.mu.Lock()
	c.sess = sess
	c.tenant = tenant
	c.mu.Unlock()
	if err := c.write(&wire.Welcome{Proto: wire.ProtoVersion, ConnID: c.id, Tenant: tenant, Version: sess.Version()}); err != nil {
		sp.Str("error", "welcome write").End()
		return false
	}
	sp.Str("tenant", tenant).Int("version", int64(sess.Version())).End()
	return true
}

// serveLoop reads and dispatches frames until the connection ends.
func (c *conn) serveLoop() {
	cfg := &c.s.cfg
	cr := &countReader{r: c.nc}
	for {
		if cfg.IdleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		} else {
			c.nc.SetReadDeadline(time.Time{})
		}
		before := cr.n
		fr, err := wire.ReadFrame(cr, cfg.MaxFrame)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && cr.n == before && c.inFlight() > 0 {
				// Idle timeout at a frame boundary with queries still
				// running: the client is waiting on us, not gone. A timeout
				// mid-frame falls through — the stream is desynchronized.
				continue
			}
			return
		}
		c.s.reg.Counter("serve.frames_in").Add(1)
		switch f := fr.(type) {
		case *wire.Query:
			c.startQuery(f.ID, f.Design, f.SQL, f.Trace)
		case *wire.Prepare:
			c.prepare(f)
		case *wire.Execute:
			c.mu.Lock()
			st, ok := c.stmts[f.Name]
			c.mu.Unlock()
			if !ok {
				c.write(&wire.Error{Query: f.ID, Code: wire.CodeUnknownStmt, Msg: fmt.Sprintf("statement %q not prepared", f.Name)})
				continue
			}
			c.startQuery(f.ID, st.design, st.sql, f.Trace)
		case *wire.Cancel:
			c.cancelQuery(f.Query)
		case *wire.Kill:
			c.kill(f)
		case *wire.Ping:
			c.write(&wire.Pong{Nonce: f.Nonce})
		case *wire.Pong:
			// Liveness reply; nothing to correlate server-side yet.
		default:
			// Server-bound protocol violation (e.g. a second Hello or a
			// result frame): connection-level error, then hang up.
			c.write(&wire.Error{Code: wire.CodeBadFrame, Msg: fmt.Sprintf("unexpected frame %s", fr.Type())})
			return
		}
	}
}

func (c *conn) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queries)
}

// prepare validates and registers a named statement.
func (c *conn) prepare(f *wire.Prepare) {
	if f.Name == "" {
		c.write(&wire.Error{Query: f.ID, Code: wire.CodeBadFrame, Msg: "empty statement name"})
		return
	}
	c.mu.Lock()
	c.stmts[f.Name] = stmt{design: f.Design, sql: f.SQL}
	c.mu.Unlock()
	c.write(&wire.PrepareOK{ID: f.ID, Name: f.Name})
}

// startQuery admits and launches one query goroutine.
func (c *conn) startQuery(id uint32, design wire.Design, sql string, tc wire.TraceContext) {
	if id == 0 {
		c.write(&wire.Error{Code: wire.CodeBadFrame, Msg: "query ID 0 is reserved"})
		return
	}
	if c.s.Draining() {
		c.s.reg.Counter("serve.queries_rejected").Add(1)
		c.write(&wire.Error{Query: id, Code: wire.CodeDraining, Msg: "server is draining"})
		return
	}
	// Resolve the query's trace identity on the read loop: the client's
	// trace ID when it sent one, the connection's otherwise (so an untraced
	// client's whole connection still forms one trace). Sampling is the
	// client's flag OR'd with the server-side every-Nth rotation.
	c.qn++
	traceID := tc.TraceID
	if traceID == 0 {
		traceID = c.trace
	}
	sampled := tc.Sampled
	if n := c.s.cfg.SampleEvery; !sampled && n > 0 && (c.qn-1)%uint64(n) == 0 {
		sampled = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return
	}
	if _, dup := c.queries[id]; dup {
		c.mu.Unlock()
		cancel()
		c.write(&wire.Error{Query: id, Code: wire.CodeBadFrame, Msg: "query ID already in flight"})
		return
	}
	c.queries[id] = &liveQuery{cancel: cancel, sql: sql, design: design, start: time.Now()}
	c.qwg.Add(1)
	c.mu.Unlock()
	c.s.reg.Counter("serve.queries_started").Add(1)
	go func() {
		defer c.qwg.Done()
		defer func() {
			c.mu.Lock()
			delete(c.queries, id)
			c.mu.Unlock()
			cancel()
		}()
		c.runQuery(ctx, id, design, sql, traceID, sampled)
	}()
}

// cancelQuery aborts the connection's own in-flight query.
func (c *conn) cancelQuery(id uint32) {
	c.mu.Lock()
	q := c.queries[id]
	c.mu.Unlock()
	if q != nil {
		q.cancel()
	}
}

// kill aborts queries on another connection of the same tenant.
func (c *conn) kill(f *wire.Kill) {
	c.s.mu.Lock()
	target := c.s.conns[f.TargetConn]
	c.s.mu.Unlock()
	if target == nil || target.sess == nil || target.tenant != c.tenant {
		// Unknown connections and other tenants' connections are
		// indistinguishable on purpose.
		c.write(&wire.Killed{ID: f.ID, Count: 0})
		return
	}
	target.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(target.queries))
	if f.TargetQuery != 0 {
		if q := target.queries[f.TargetQuery]; q != nil {
			cancels = append(cancels, q.cancel)
		}
	} else {
		for _, q := range target.queries {
			cancels = append(cancels, q.cancel)
		}
	}
	target.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	c.s.reg.Counter("serve.kills").Add(int64(len(cancels)))
	c.write(&wire.Killed{ID: f.ID, Count: uint32(len(cancels))})
}

// queryError maps an execution error to a wire error frame.
func (c *conn) queryError(ctx context.Context, id uint32, err error) {
	code := wire.CodeQuery
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		code = wire.CodeCanceled
		err = fmt.Errorf("query canceled")
		c.s.reg.Counter("serve.queries_canceled").Add(1)
	case errors.Is(err, enrichdb.ErrSessionTimeout):
		code = wire.CodeAdmission
	}
	c.write(&wire.Error{Query: id, Code: code, Msg: err.Error()})
}

// streamRows sends header + batches for a complete result set, polling ctx
// between batches so kills interrupt long streams.
func (c *conn) streamRows(ctx context.Context, id uint32, cols []string, numRows int, at func(int) []enrichdb.Value) error {
	if err := c.write(&wire.ResultHeader{Query: id, Columns: cols}); err != nil {
		return err
	}
	stride := c.s.cfg.BatchRows
	for lo := 0; lo < numRows; lo += stride {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		hi := lo + stride
		if hi > numRows {
			hi = numRows
		}
		chunk := make([][]enrichdb.Value, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, at(i))
		}
		if err := c.write(wire.BatchFromValues(id, chunk)); err != nil {
			return err
		}
	}
	return nil
}

// observeLatency records one finished (or failed) query in the SLO
// histograms: the global serve.latency_ms and the tenant's
// serve.tenant.<name>.latency_ms, whose p50/p95/p99 /metrics exports.
func (c *conn) observeLatency(wall time.Duration) {
	reg := c.s.reg
	reg.Histogram("serve.latency_ms", telemetry.LatencyBucketsMs).ObserveDuration(wall)
	if c.tenant != "" {
		reg.Histogram("serve.tenant."+c.tenant+".latency_ms", telemetry.LatencyBucketsMs).ObserveDuration(wall)
	}
}

// flattenProfile serializes an operator tree preorder for the Profile frame.
func flattenProfile(root *enrichdb.OpProfile) []wire.ProfileNode {
	var nodes []wire.ProfileNode
	var walk func(n *enrichdb.OpProfile, depth uint32)
	walk = func(n *enrichdb.OpProfile, depth uint32) {
		if n == nil {
			return
		}
		nodes = append(nodes, wire.ProfileNode{
			Depth: depth, Name: n.Name, Detail: n.Detail,
			RowsIn: n.RowsIn, RowsOut: n.RowsOut,
			Batches: n.Batches, FallbackRows: n.FallbackRows,
			WallNs: n.Wall.Nanoseconds(),
		})
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
	return nodes
}

// profileSpans summarizes collected spans for the Profile frame (full
// attributes stay in the server-side JSONL trace).
func profileSpans(spans []*telemetry.Span) []wire.ProfileSpan {
	out := make([]wire.ProfileSpan, 0, len(spans))
	for _, sp := range spans {
		out = append(out, wire.ProfileSpan{Name: sp.Name, Epoch: uint32(sp.Epoch), DurUS: sp.Dur.Microseconds()})
	}
	return out
}

// slowQueryRecord is one SlowQueryLog line.
type slowQueryRecord struct {
	TS          string  `json:"ts"`
	Tenant      string  `json:"tenant"`
	Conn        uint64  `json:"conn"`
	Query       uint32  `json:"query"`
	Design      string  `json:"design"`
	SQL         string  `json:"sql"`
	WallMS      float64 `json:"wall_ms"`
	Rows        uint64  `json:"rows"`
	Enrichments int64   `json:"enrichments,omitempty"`
	UDFCalls    int64   `json:"udf_calls,omitempty"`
	Epochs      uint32  `json:"epochs,omitempty"`
	Trace       string  `json:"trace,omitempty"`
	Profile     string  `json:"profile,omitempty"`
}

// maybeSlowLog appends one JSONL record when the query crossed the slow
// threshold.
func (s *Server) maybeSlowLog(rec slowQueryRecord, wall time.Duration) {
	if s.cfg.SlowQueryLog == nil || s.cfg.SlowQueryThreshold <= 0 || wall < s.cfg.SlowQueryThreshold {
		return
	}
	rec.TS = time.Now().UTC().Format(time.RFC3339Nano)
	rec.WallMS = float64(wall.Microseconds()) / 1000
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.reg.Counter("serve.slow_queries").Add(1)
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	s.cfg.SlowQueryLog.Write(append(b, '\n'))
}

// libraryDesign maps the wire's non-progressive designs onto the library's.
var libraryDesign = [...]enrichdb.Design{
	wire.DesignPlain: enrichdb.PlainDesign,
	wire.DesignLoose: enrichdb.LooseDesign,
	wire.DesignTight: enrichdb.TightDesign,
}

// runQuery executes one query under its cancel context and streams the
// result. A leading EXPLAIN ANALYZE turns the query into its own profile:
// the inner SELECT runs with the operator profiler attached and the result
// set is the rendered tree (one "plan" column), with the structured nodes on
// the Profile frame. A sampled query executes under a trace-ID-stamped
// tracer teeing into a collector, and its span summaries ride the Profile
// frame too.
func (c *conn) runQuery(ctx context.Context, id uint32, design wire.Design, sql string, traceID uint64, sampled bool) {
	start := time.Now()
	defer func() { c.observeLatency(time.Since(start)) }()
	explain := false
	if st, perr := sqlparser.ParseStatement(sql); perr == nil {
		if st.ExplainPlan {
			// Plan-only EXPLAIN: render the annotated operator tree without
			// executing — no scans, no enrichment, zero result-side effects.
			// The tree is the plain (unrewritten) plan regardless of the
			// requested design.
			c.runExplainPlan(ctx, id, st.Select.String(), start)
			return
		}
		if st.ExplainAnalyze {
			explain = true
			sql = st.Select.String()
		}
	}
	var collect *telemetry.CollectSink
	qtr := c.s.cfg.Tracer.WithTrace(traceID)
	if sampled {
		collect = &telemetry.CollectSink{}
		qtr = qtr.Tee(collect) // works even with no server tracer configured
	}
	obs := enrichdb.QueryObs{Tracer: qtr, Profile: explain}

	done := wire.ResultDone{Query: id}
	var cols []string
	var numRows int
	var at func(int) []enrichdb.Value
	var prof *enrichdb.QueryProfile
	var err error

	switch design {
	case wire.DesignPlain, wire.DesignLoose, wire.DesignTight:
		var res *enrichdb.Result
		res, err = c.sess.Run(ctx, libraryDesign[design], sql, obs)
		if err == nil {
			cols, numRows, at = res.Rows.Columns(), res.Rows.Len(), res.Rows.At
			done.Enrichments = res.Enrichments
			done.Failed = int64(res.FailedEnrichments)
			done.UDFCalls = res.UDFInvocations
			prof = res.Profile
		}
	case wire.DesignProgressive:
		opts := c.s.cfg.Progressive
		opts.Cancel = ctx.Done()
		opts.Tracer = qtr
		opts.Profile = explain
		opts.OnEpoch = func(ep enrichdb.Epoch) {
			c.write(&wire.Epoch{
				Query: id, N: uint32(ep.N), Planned: uint32(ep.Planned),
				Enrichments: ep.Enrichments,
				Inserted:    uint32(ep.Inserted), Deleted: uint32(ep.Deleted),
				Quality: ep.Quality, WallNs: ep.Wall.Nanoseconds(),
				PlanNs:   ep.PlanTime.Nanoseconds(),
				EnrichNs: ep.EnrichTime.Nanoseconds(),
				DeltaNs:  ep.DeltaTime.Nanoseconds(),
			})
		}
		var res *enrichdb.ProgressiveResult
		res, err = c.sess.QueryProgressive(sql, opts)
		if err == nil {
			cols, numRows, at = res.Rows.Columns(), res.Rows.Len(), res.Rows.At
			done.Enrichments = res.TotalEnrichments
			done.Epochs = uint32(len(res.Epochs))
			prof = res.Profile
		}
	default:
		err = fmt.Errorf("unknown design %d", design)
	}
	if err != nil {
		c.queryError(ctx, id, err)
		return
	}
	// A canceled query whose execution finished anyway still reports the
	// cancellation — the client asked for no more frames on this ID.
	if ctx.Err() != nil {
		c.queryError(ctx, id, ctx.Err())
		return
	}
	if explain {
		// The EXPLAIN ANALYZE result set is the rendered operator tree.
		lines := strings.Split(strings.TrimRight(prof.String(), "\n"), "\n")
		cols, numRows = []string{"plan"}, len(lines)
		at = func(i int) []enrichdb.Value { return []enrichdb.Value{types.NewString(lines[i])} }
	}
	spStream := qtr.Start("server.result_stream").Int("rows", int64(numRows))
	if err := c.streamRows(ctx, id, cols, numRows, at); err != nil {
		spStream.Str("error", err.Error()).End()
		if ctx.Err() != nil {
			c.queryError(ctx, id, err)
		}
		return // write errors already tore the conn down
	}
	spStream.End()
	if sampled || explain {
		pf := &wire.Profile{Query: id, TraceID: traceID, Design: design}
		if prof != nil {
			pf.Nodes = flattenProfile(prof.Root)
		}
		if collect != nil {
			pf.Spans = profileSpans(collect.Spans())
		}
		c.write(pf)
	}
	wall := time.Since(start)
	done.Rows = uint64(numRows)
	done.WallNs = wall.Nanoseconds()
	c.write(&done)
	c.s.reg.Counter("serve.queries_done").Add(1)
	c.s.maybeSlowLog(slowQueryRecord{
		Tenant: c.tenant, Conn: c.id, Query: id, Design: design.String(), SQL: sql,
		Rows: uint64(numRows), Enrichments: done.Enrichments, UDFCalls: done.UDFCalls,
		Epochs: done.Epochs, Trace: telemetry.FormatTraceID(traceID), Profile: prof.String(),
	}, wall)
}

// runExplainPlan answers a plan-only `EXPLAIN SELECT ...`: the result set is
// the annotated plan tree (one "plan" column), produced without executing
// the query — ResultDone reports zero enrichments and zero UDF calls.
func (c *conn) runExplainPlan(ctx context.Context, id uint32, sql string, start time.Time) {
	plan, err := c.sess.ExplainPlan(sql)
	if err != nil {
		c.queryError(ctx, id, err)
		return
	}
	lines := strings.Split(strings.TrimRight(plan, "\n"), "\n")
	at := func(i int) []enrichdb.Value { return []enrichdb.Value{types.NewString(lines[i])} }
	if err := c.streamRows(ctx, id, []string{"plan"}, len(lines), at); err != nil {
		if ctx.Err() != nil {
			c.queryError(ctx, id, err)
		}
		return
	}
	done := wire.ResultDone{Query: id, Rows: uint64(len(lines)), WallNs: time.Since(start).Nanoseconds()}
	c.write(&done)
	c.s.reg.Counter("serve.queries_done").Add(1)
}

// countReader counts consumed bytes, letting the serve loop distinguish a
// pure idle timeout (nothing read — safe to keep serving while queries run)
// from a timeout mid-frame (stream desynchronized — the connection must
// close).
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
