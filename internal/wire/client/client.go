// Package client is the enrichdb network client: it dials a wire server,
// performs the handshake, and multiplexes concurrent queries over one
// connection. Responses are matched to requests by the client-chosen query
// ID, so any number of goroutines can share a Client; a dedicated read loop
// dispatches frames to the waiting calls.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"enrichdb/internal/types"
	"enrichdb/internal/wire"
)

// ErrClosed is returned for calls on a closed client.
var ErrClosed = errors.New("wire client: connection closed")

// Options configures Dial.
type Options struct {
	// Token authenticates the handshake; the server maps it to a tenant.
	Token string
	// Client is a free-form client name sent in the handshake (shows up in
	// server logs); defaults to "enrichdb-client".
	Client string
	// DialTimeout bounds the TCP connect plus the handshake round trip
	// (default 10s).
	DialTimeout time.Duration
	// MaxFrame caps accepted frame sizes (default wire.MaxFrameLen).
	MaxFrame int
}

// Result is one query's complete answer.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	// Epochs holds the progressive run's per-epoch reports (progressive
	// design only).
	Epochs []wire.Epoch
	// Stats from the terminal frame.
	RowCount    uint64
	Enrichments int64
	Failed      int64
	UDFCalls    int64
	NumEpochs   uint32
	Wall        time.Duration
	// Profile is the server's observability payload — the trace ID its spans
	// carry, the EXPLAIN ANALYZE operator tree, sampled span summaries. Sent
	// only for sampled or EXPLAIN ANALYZE queries; nil otherwise.
	Profile *wire.Profile
}

// call is one in-flight request awaiting its terminal frame.
type call struct {
	id      uint32
	res     *Result
	err     error
	onEpoch func(wire.Epoch)
	onBatch func(*wire.ResultBatch)
	done    chan struct{}
	// batches holds the result stream until its ResultDone, which expands
	// it once.
	batches []*wire.ResultBatch
}

func (cl *call) finish(err error) {
	cl.err = err
	close(cl.done)
}

// Client is a connection to a wire server, safe for concurrent use.
type Client struct {
	conn     net.Conn
	maxFrame int

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint32]*call
	nextID  uint32
	sticky  error // transport-level failure, set once
	closed  bool

	readDone chan struct{}
}

// Dial connects to a wire server and completes the handshake.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.Client == "" {
		opts.Client = "enrichdb-client"
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		maxFrame: opts.MaxFrame,
		pending:  make(map[uint32]*call),
		readDone: make(chan struct{}),
	}
	deadline := time.Now().Add(opts.DialTimeout)
	conn.SetDeadline(deadline)
	if err := wire.WriteFrame(conn, &wire.Hello{Proto: wire.ProtoVersion, Token: opts.Token, Client: opts.Client}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire client: handshake write: %w", err)
	}
	fr, err := wire.ReadFrame(conn, c.maxFrame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire client: handshake read: %w", err)
	}
	switch f := fr.(type) {
	case *wire.Welcome: // accepted; the client keeps nothing of it
	case *wire.Error:
		conn.Close()
		return nil, f
	default:
		conn.Close()
		return nil, fmt.Errorf("wire client: unexpected handshake frame %s", fr.Type())
	}
	conn.SetDeadline(time.Time{})
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readDone
	return err
}

// readLoop dispatches incoming frames to their calls until the connection
// fails or closes.
func (c *Client) readLoop() {
	defer close(c.readDone)
	for {
		fr, err := wire.ReadFrame(c.conn, c.maxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		switch f := fr.(type) {
		case *wire.ResultHeader:
			if cl := c.lookup(f.Query); cl != nil {
				cl.res.Columns = f.Columns
			}
		case *wire.ResultBatch:
			if cl := c.lookup(f.Query); cl != nil {
				if cl.onBatch != nil {
					cl.onBatch(f)
				}
				cl.batches = append(cl.batches, f)
			}
		case *wire.Epoch:
			if cl := c.lookup(f.Query); cl != nil {
				cl.res.Epochs = append(cl.res.Epochs, *f)
				if cl.onEpoch != nil {
					cl.onEpoch(*f)
				}
			}
		case *wire.Profile:
			if cl := c.lookup(f.Query); cl != nil {
				cl.res.Profile = f
			}
		case *wire.ResultDone:
			if cl := c.take(f.Query); cl != nil {
				cl.res.RowCount = f.Rows
				cl.res.Enrichments = f.Enrichments
				cl.res.Failed = f.Failed
				cl.res.UDFCalls = f.UDFCalls
				cl.res.NumEpochs = f.Epochs
				cl.res.Wall = time.Duration(f.WallNs)
				cl.finish(cl.expand())
			}
		case *wire.PrepareOK:
			if cl := c.take(f.ID); cl != nil {
				cl.finish(nil)
			}
		case *wire.Error:
			if f.Query == 0 {
				// Connection-level error: the server is about to hang up.
				c.fail(f)
				return
			}
			if cl := c.take(f.Query); cl != nil {
				cl.finish(f)
			}
		default:
			// Unexpected but well-formed frame: ignore (forward compatible
			// within a protocol version).
		}
	}
}

// expand turns the call's result stream into Result.Rows. A batch that does
// not expand, or a row count other than the one ResultDone reports, fails
// the call: the answer is not the server's.
func (cl *call) expand() error {
	rows, err := wire.ExpandBatches(cl.batches, len(cl.res.Columns))
	cl.batches = nil
	if err != nil {
		return fmt.Errorf("wire client: query %d: %w", cl.id, err)
	}
	if uint64(len(rows)) != cl.res.RowCount {
		return fmt.Errorf("wire client: query %d: received %d rows, server reported %d", cl.id, len(rows), cl.res.RowCount)
	}
	cl.res.Rows = rows
	return nil
}

// fail poisons the client: every pending call completes with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		err = ErrClosed
	}
	if c.sticky == nil {
		c.sticky = err
	}
	pend := c.pending
	c.pending = make(map[uint32]*call)
	c.mu.Unlock()
	for _, cl := range pend {
		cl.finish(err)
	}
}

// lookup returns the in-flight call for a query ID (nil if finished).
func (c *Client) lookup(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[id]
}

// take removes and returns the call — used on terminal frames.
func (c *Client) take(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.pending[id]
	delete(c.pending, id)
	return cl
}

// register allocates a query ID and parks a call on it.
func (c *Client) register(onEpoch func(wire.Epoch), onBatch func(*wire.ResultBatch)) (*call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sticky != nil {
		return nil, c.sticky
	}
	if c.closed {
		return nil, ErrClosed
	}
	c.nextID++
	if c.nextID == 0 { // ID 0 is reserved for connection-level errors
		c.nextID = 1
	}
	cl := &call{
		id:      c.nextID,
		res:     &Result{},
		onEpoch: onEpoch,
		onBatch: onBatch,
		done:    make(chan struct{}),
	}
	c.pending[cl.id] = cl
	return cl, nil
}

// send encodes and writes one frame, serialized across goroutines.
func (c *Client) send(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := wire.AppendFrame(c.wbuf[:0], f)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	_, err = c.conn.Write(buf)
	return err
}

// cancelGrace bounds how long a canceled call waits for the server's
// terminal frame before giving up locally.
const cancelGrace = 5 * time.Second

// wait blocks until the call completes or ctx fires; on ctx it sends Cancel
// and keeps waiting (bounded) for the server's terminal frame so the
// connection stays usable.
func (c *Client) wait(ctx context.Context, cl *call) error {
	select {
	case <-cl.done:
		return cl.err
	case <-ctx.Done():
	}
	c.send(&wire.Cancel{Query: cl.id})
	t := time.NewTimer(cancelGrace)
	defer t.Stop()
	select {
	case <-cl.done:
		var we *wire.Error
		if errors.As(cl.err, &we) && we.Code == wire.CodeCanceled {
			return ctx.Err()
		}
		return cl.err
	case <-t.C:
		// The server never acknowledged: abandon the call. A late terminal
		// frame for this ID is dropped by lookup/take returning nil.
		if cl2 := c.take(cl.id); cl2 != nil {
			cl2.finish(ctx.Err())
		}
		<-cl.done
		return ctx.Err()
	}
}

// roundTrip registers a call, sends the frame built from its ID, and waits.
func (c *Client) roundTrip(ctx context.Context, build func(id uint32) wire.Frame,
	onEpoch func(wire.Epoch), onBatch func(*wire.ResultBatch)) (*call, error) {
	cl, err := c.register(onEpoch, onBatch)
	if err != nil {
		return nil, err
	}
	if err := c.send(build(cl.id)); err != nil {
		if cl2 := c.take(cl.id); cl2 != nil {
			cl2.finish(err)
		}
		<-cl.done
		if cl.err != nil {
			return nil, cl.err
		}
		// The write failed after the server already answered — rare, but the
		// call did complete.
		return cl, nil
	}
	if err := c.wait(ctx, cl); err != nil {
		return nil, err
	}
	return cl, nil
}

// Query runs SQL under the given design and returns the complete result.
// Canceling ctx sends a Cancel frame; the call returns once the server
// acknowledges (ctx.Err()) and the connection remains usable.
func (c *Client) Query(ctx context.Context, design wire.Design, sql string) (*Result, error) {
	return c.QueryTrace(ctx, design, sql, wire.TraceContext{}, nil, nil)
}

// QueryTrace is Query with a trace context on the Query frame and streaming
// callbacks. The server stamps the query's spans with tc.TraceID (its own
// otherwise), and tc.Sampled forces span collection — the Result then
// carries a Profile with the span summaries. The zero context encodes to
// nothing. onEpoch fires per progressive epoch report, onBatch per raw
// result batch, both from the read loop — keep them fast, they gate every
// other response on the connection.
func (c *Client) QueryTrace(ctx context.Context, design wire.Design, sql string,
	tc wire.TraceContext, onEpoch func(wire.Epoch), onBatch func(*wire.ResultBatch)) (*Result, error) {
	cl, err := c.roundTrip(ctx, func(id uint32) wire.Frame {
		return &wire.Query{ID: id, Design: design, SQL: sql, Trace: tc}
	}, onEpoch, onBatch)
	if err != nil {
		return nil, err
	}
	return cl.res, nil
}

// Prepare registers a named statement on the server.
func (c *Client) Prepare(ctx context.Context, name string, design wire.Design, sql string) error {
	_, err := c.roundTrip(ctx, func(id uint32) wire.Frame {
		return &wire.Prepare{ID: id, Name: name, Design: design, SQL: sql}
	}, nil, nil)
	return err
}

// ExecuteTrace runs a previously prepared statement with a trace context
// (see QueryTrace; the zero context encodes to nothing).
func (c *Client) ExecuteTrace(ctx context.Context, name string, tc wire.TraceContext) (*Result, error) {
	cl, err := c.roundTrip(ctx, func(id uint32) wire.Frame {
		return &wire.Execute{ID: id, Name: name, Trace: tc}
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	return cl.res, nil
}
