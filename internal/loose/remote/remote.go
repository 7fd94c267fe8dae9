// Package remote runs the loose design's enrichment server as a separate
// process (or goroutine) reachable over TCP via net/rpc with gob encoding.
// It physically incurs the data-movement cost the paper's Table 11 measures
// — feature vectors are serialized, shipped, and the outputs shipped back.
//
// The transport is built for a production setting where the enrichment
// server is a remote inference service that can stall, crash or restart:
// every client call carries a deadline, transport failures are retried with
// exponential backoff and jitter over a freshly dialed connection, and the
// server bounds concurrent connections and drains in-flight batches on
// shutdown. Enrichment stays best-effort end to end — a failed batch costs
// the query nothing but NULL derived attributes (the paper's "not yet
// enriched" state).
package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/loose"
	"enrichdb/internal/telemetry"
)

// BatchArgs is the RPC request payload.
type BatchArgs struct {
	Reqs []loose.Request
}

// BatchReply is the RPC response payload. ComputeTime lets the client split
// wall-clock into server compute vs. network transfer.
type BatchReply struct {
	Resps       []loose.Response
	ComputeTime time.Duration
}

// Service is the RPC-exposed enrichment service.
type Service struct {
	enricher loose.Enricher
	inflight atomic.Int64
	draining atomic.Bool

	batches     *telemetry.Counter // remote.server.batches
	batchErrors *telemetry.Counter // remote.server.batch_errors (incl. recovered panics)
}

// Enrich executes a batch. The method shape follows net/rpc conventions. A
// panic escaping the enricher (the per-request recovery in the worker pool
// covers model panics, but a buggy Enricher implementation can still blow
// up at batch level) is converted to an RPC error so one bad batch cannot
// crash a shared enrichment server.
func (s *Service) Enrich(args *BatchArgs, reply *BatchReply) (err error) {
	if s.draining.Load() {
		return fmt.Errorf("remote: server draining")
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.batches.Inc()
	defer func() {
		if p := recover(); p != nil {
			s.batchErrors.Inc()
			err = fmt.Errorf("remote: enrichment batch panicked: %v", p)
		}
	}()
	resps, timing, err := s.enricher.EnrichBatch(args.Reqs)
	if err != nil {
		s.batchErrors.Inc()
		return err
	}
	reply.Resps = resps
	reply.ComputeTime = timing.Compute
	return nil
}

// ServerOptions tunes the enrichment server's robustness knobs. The zero
// value means unlimited connections and a 5s shutdown drain.
type ServerOptions struct {
	// MaxConns caps concurrently served connections; dials beyond the cap
	// are accepted and immediately closed. 0 means unlimited.
	MaxConns int
	// DrainTimeout bounds how long Close waits for in-flight batches to
	// finish before severing connections. 0 uses DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Telemetry is the registry the server's counters publish to
	// (remote.server.batches, remote.server.batch_errors,
	// remote.server.rejected_conns, gauge remote.server.active_conns).
	// Nil creates a private registry so the counters still count.
	Telemetry *telemetry.Registry
}

// DefaultDrainTimeout is the shutdown drain bound when ServerOptions leaves
// DrainTimeout zero.
const DefaultDrainTimeout = 5 * time.Second

// Server is a running enrichment server.
type Server struct {
	lis    net.Listener
	svc    *Service
	opts   ServerOptions
	reg    *telemetry.Registry
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// rejected counts connections refused by the MaxConns cap.
	rejected *telemetry.Counter
}

// Serve starts an enrichment server on addr (e.g. "127.0.0.1:0") backed by
// the manager's registered families. Server counters publish onto the
// manager's telemetry registry. It returns once the listener is bound;
// connections are served on background goroutines.
func Serve(addr string, mgr *enrich.Manager) (*Server, string, error) {
	return ServeEnricher(addr, &loose.LocalEnricher{Mgr: mgr}, ServerOptions{Telemetry: mgr.Telemetry()})
}

// ServeEnricher starts an enrichment server over an arbitrary Enricher —
// a parallel LocalEnricher, or a fault-injecting wrapper in chaos tests.
// Closing the server also closes the enricher.
func ServeEnricher(addr string, e loose.Enricher, opts ServerOptions) (*Server, string, error) {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	svc := &Service{
		enricher:    e,
		batches:     reg.Counter("remote.server.batches"),
		batchErrors: reg.Counter("remote.server.batch_errors"),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Enrichment", svc); err != nil {
		return nil, "", err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s := &Server{
		lis: lis, svc: svc, opts: opts, reg: reg,
		conns:    make(map[net.Conn]struct{}),
		rejected: reg.Counter("remote.server.rejected_conns"),
	}
	reg.GaugeFunc("remote.server.active_conns", func() int64 { return int64(s.ActiveConns()) })
	go s.acceptLoop(srv)
	return s, lis.Addr().String(), nil
}

// Telemetry returns the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

func (s *Server) acceptLoop(srv *rpc.Server) {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			s.rejected.Add(1)
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			srv.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ActiveConns returns the number of currently served connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// RejectedConns returns how many connections the MaxConns cap refused.
func (s *Server) RejectedConns() int64 { return s.rejected.Value() }

// DropConnections severs every live connection without stopping the
// listener — a chaos hook emulating a network partition or a server
// restart. Clients re-dial on their next call. It returns the number of
// connections dropped.
func (s *Server) DropConnections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
	return len(s.conns)
}

// Close stops the server: it stops accepting, rejects new batches, waits up
// to the drain timeout for in-flight batches to finish, then severs the
// remaining connections and closes the enricher.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	err := s.lis.Close()
	s.svc.draining.Store(true)
	drain := s.opts.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	deadline := time.Now().Add(drain)
	for s.svc.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.svc.enricher.Close()
	return err
}

// Options tunes the client's fault tolerance. The zero value applies the
// defaults below; set a field negative to disable that mechanism.
type Options struct {
	// CallTimeout bounds each RPC attempt (and each dial). A timed-out call
	// abandons its connection — the pending call cannot poison later
	// batches — and the next attempt re-dials. 0 uses DefaultCallTimeout;
	// negative disables the deadline.
	CallTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first for
	// transport failures (broken connection, timeout, failed dial).
	// Server-side application errors are not retried — they are
	// deterministic. 0 uses DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// BaseBackoff is the delay before the first retry, doubled per further
	// retry up to MaxBackoff, each scaled by a random jitter in [0.5, 1.0)
	// so many recovering clients do not stampede the server at once.
	// 0 uses DefaultBaseBackoff; negative disables backoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. 0 uses DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Telemetry is the registry the client's recovery counters publish to
	// (remote.client.dials, remote.client.retries, remote.client.timeouts).
	// Nil creates a private registry so Stats() keeps counting.
	Telemetry *telemetry.Registry
}

// Client fault-tolerance defaults.
const (
	DefaultCallTimeout = 30 * time.Second
	DefaultMaxRetries  = 2
	DefaultBaseBackoff = 10 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
)

func (o Options) normalized() Options {
	switch {
	case o.CallTimeout == 0:
		o.CallTimeout = DefaultCallTimeout
	case o.CallTimeout < 0:
		o.CallTimeout = 0
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = DefaultMaxRetries
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	switch {
	case o.BaseBackoff == 0:
		o.BaseBackoff = DefaultBaseBackoff
	case o.BaseBackoff < 0:
		o.BaseBackoff = 0
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	return o
}

// ClientStats counts the client's recovery activity.
type ClientStats struct {
	// Dials counts connections established (1 for a healthy client).
	Dials int64
	// Retries counts extra attempts made after transport failures.
	Retries int64
	// Timeouts counts attempts abandoned at the call deadline.
	Timeouts int64
}

// Client is an Enricher that calls a remote enrichment server. It survives
// server restarts and stalls: broken connections are re-dialed, calls carry
// deadlines, and transport failures are retried with backoff.
type Client struct {
	addr string
	opts Options
	// ExtraLatency is added (and accounted as network time) per batch; the
	// benchmarks use it to emulate the paper's cross-server AWS link on top
	// of the loopback transport.
	ExtraLatency time.Duration

	mu     sync.Mutex
	rpc    *rpc.Client // nil while disconnected; re-dialed on demand
	closed bool        // set by Close: no more dials
	rng    *rand.Rand

	dials    *telemetry.Counter // remote.client.dials
	retries  *telemetry.Counter // remote.client.retries
	timeouts *telemetry.Counter // remote.client.timeouts
}

// Dial connects to a server started with Serve, with default fault
// tolerance (30s call deadline, 2 retries with backoff, auto re-dial).
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions is Dial with explicit fault-tolerance options. The initial
// connection is attempted once so misconfiguration fails fast; later broken
// connections re-dial automatically.
func DialOptions(addr string, opts Options) (*Client, error) {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Client{
		addr:     addr,
		opts:     opts.normalized(),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		dials:    reg.Counter("remote.client.dials"),
		retries:  reg.Counter("remote.client.retries"),
		timeouts: reg.Counter("remote.client.timeouts"),
	}
	if _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a snapshot of the client's recovery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{Dials: c.dials.Value(), Retries: c.retries.Value(), Timeouts: c.timeouts.Value()}
}

// conn returns the live connection, dialing a fresh one if needed.
func (c *Client) conn() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rpc != nil {
		return c.rpc, nil
	}
	if c.closed {
		return nil, errClientClosed
	}
	var (
		nc  net.Conn
		err error
	)
	if c.opts.CallTimeout > 0 {
		nc, err = net.DialTimeout("tcp", c.addr, c.opts.CallTimeout)
	} else {
		nc, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	c.rpc = rpc.NewClient(nc)
	c.dials.Add(1)
	return c.rpc, nil
}

// invalidate discards a connection after a transport failure so the next
// attempt re-dials instead of reusing a poisoned stream.
func (c *Client) invalidate(cl *rpc.Client) {
	c.mu.Lock()
	if c.rpc == cl {
		c.rpc = nil
	}
	c.mu.Unlock()
	cl.Close()
}

// call performs one RPC attempt under the configured deadline.
func (c *Client) call(cl *rpc.Client, args *BatchArgs, reply *BatchReply) error {
	if c.opts.CallTimeout <= 0 {
		return cl.Call("Enrichment.Enrich", args, reply)
	}
	call := cl.Go("Enrichment.Enrich", args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(c.opts.CallTimeout)
	defer t.Stop()
	select {
	case done := <-call.Done:
		return done.Error
	case <-t.C:
		c.timeouts.Add(1)
		return fmt.Errorf("remote: call to %s timed out after %v", c.addr, c.opts.CallTimeout)
	}
}

// backoff returns the jittered delay before retry attempt n (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	if c.opts.BaseBackoff <= 0 {
		return 0
	}
	d := c.opts.BaseBackoff << uint(attempt-1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	jitter := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// EnrichBatch implements loose.Enricher over the RPC transport. Transport
// failures (timeout, broken or refused connection) are retried on a fresh
// connection up to MaxRetries times; server-side application errors are
// returned immediately. All wall-clock not spent computing on the server —
// including failed attempts and backoff — is accounted as network time, so
// Table 11's split stays truthful under retries.
func (c *Client) EnrichBatch(reqs []loose.Request) ([]loose.Response, loose.BatchTiming, error) {
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if d := c.backoff(attempt); d > 0 {
				time.Sleep(d)
			}
		}
		cl, err := c.conn()
		if err != nil {
			lastErr = err
			if err == errClientClosed {
				break
			}
			continue
		}
		var reply BatchReply
		if err := c.call(cl, &BatchArgs{Reqs: reqs}, &reply); err != nil {
			lastErr = err
			if _, isApp := err.(rpc.ServerError); isApp {
				break // deterministic server-side error; retrying cannot help
			}
			c.invalidate(cl)
			continue
		}
		total := time.Since(start)
		network := total - reply.ComputeTime
		if network < 0 {
			network = 0
		}
		if c.ExtraLatency > 0 {
			time.Sleep(c.ExtraLatency)
			network += c.ExtraLatency
		}
		return reply.Resps, loose.BatchTiming{Compute: reply.ComputeTime, Network: network}, nil
	}
	return nil, loose.BatchTiming{Network: time.Since(start)},
		fmt.Errorf("remote: enrich batch of %d failed after %d attempt(s): %w",
			len(reqs), c.opts.MaxRetries+1, lastErr)
}

// errClientClosed fails every batch a closed client is asked to send.
var errClientClosed = errors.New("remote: client closed")

// Close releases the RPC connection. A batch still in flight fails, and the
// client dials no new connection for it or for any later one.
func (c *Client) Close() error {
	c.mu.Lock()
	cl := c.rpc
	c.rpc = nil
	c.closed = true
	c.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}
