package server

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"enrichdb"
	"enrichdb/internal/faultinject"
	"enrichdb/internal/testutil"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// newRawConn dials the server without the wire client, for tests that need
// to misbehave at the byte level.
func newRawConn(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// waitMetric polls a telemetry counter or gauge until it reads want or the
// deadline passes. want must be a value the metric reaches only through the
// event under test: serve.conn_open already reads 0 before the server has
// accepted a fresh dial, so waiting for 0 then proves nothing.
func waitMetric(t *testing.T, name string, m interface{ Value() int64 }, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := m.Value()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosHalfOpenPeer: a client that connects and never speaks is evicted
// by the handshake deadline instead of pinning a connection slot forever.
func TestChaosHalfOpenPeer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 4, nil, func(cfg *Config) {
		cfg.HandshakeTimeout = 50 * time.Millisecond
	})
	nc, err := newRawConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reg := db.Telemetry()
	waitMetric(t, "serve.handshake_rejected", reg.Counter("serve.handshake_rejected"), 1)
	// The rejected connection was open, so its close is now the event.
	waitMetric(t, "serve.conn_open", reg.Gauge("serve.conn_open"), 0)
	// No session was ever bound for the silent peer.
	if got := db.Telemetry().Gauge("serve.sessions_active").Value(); got != 0 {
		t.Errorf("serve.sessions_active = %d, want 0", got)
	}
}

// TestChaosSlowloris: a valid Hello trickled one byte at a time cannot
// outlast the handshake deadline — the deadline bounds the whole handshake,
// not the gap between bytes.
func TestChaosSlowloris(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 4, nil, func(cfg *Config) {
		cfg.HandshakeTimeout = 100 * time.Millisecond
	})
	nc, err := newRawConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame, err := wire.AppendFrame(nil, &wire.Hello{Proto: wire.ProtoVersion, Client: "slowloris"})
	if err != nil {
		t.Fatal(err)
	}
	dripped := 0
	for _, b := range frame {
		if _, err := nc.Write([]byte{b}); err != nil {
			break // server hung up — exactly what we want
		}
		dripped++
		time.Sleep(20 * time.Millisecond)
	}
	if dripped == len(frame) {
		t.Fatalf("server accepted the full %d-byte handshake at 1 byte per 20ms", len(frame))
	}
	// The server hung up on an accepted connection, so reaching 0 is its
	// close, not the state before the accept.
	waitMetric(t, "serve.conn_open", db.Telemetry().Gauge("serve.conn_open"), 0)
	if got := db.Telemetry().Counter("serve.handshake_rejected").Value(); got < 1 {
		t.Errorf("serve.handshake_rejected = %d, want >= 1", got)
	}
	if got := db.Telemetry().Gauge("serve.sessions_active").Value(); got != 0 {
		t.Errorf("serve.sessions_active = %d, want 0", got)
	}
}

// TestChaosMidQueryDisconnect: a client that vanishes mid-query releases its
// session slot — proved by capping MaxSessions at 1 and requiring a new
// connection to be admitted afterwards.
func TestChaosMidQueryDisconnect(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 60,
		&faultinject.SlowModel{Inner: testutil.StepModel(), Delay: 2 * time.Millisecond}, nil)
	db.SetServing(enrichdb.ServingConfig{MaxSessions: 1, QueueTimeout: 2 * time.Second})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	go c.Query(context.Background(), wire.DesignLoose, "SELECT id FROM events WHERE label = 1")
	time.Sleep(15 * time.Millisecond)
	// Abrupt disconnect: no Cancel, no goodbye, just a closed socket.
	c.Close()

	// Dial returned after the handshake bound the session, so 0 is its release.
	waitMetric(t, "serve.sessions_active", db.Telemetry().Gauge("serve.sessions_active"), 0)

	// The single session slot is free again: a new connection is admitted and
	// can run a query end to end.
	c2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial after abrupt disconnect: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Query(context.Background(), wire.DesignPlain, "SELECT id FROM events WHERE grp = 1"); err != nil {
		t.Fatalf("query after abrupt disconnect: %v", err)
	}
}

// TestChaosCancelDuringStream: canceling a progressive query's context
// once its first Epoch frame arrived ends the call in ctx.Err(), not a
// stall; the server counts the query canceled, the connection serves the
// next query, and no goroutine outlives the test.
func TestChaosCancelDuringStream(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 80,
		&faultinject.SlowModel{Inner: testutil.StepModel(), Delay: time.Millisecond},
		func(cfg *Config) {
			cfg.Progressive = enrichdb.ProgressiveOptions{
				EpochBudget: 5 * time.Millisecond,
				MaxEpochs:   1000,
				Seed:        7,
			}
		})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Enrich one group first: a progressive epoch is budgeted on the
	// function's measured cost, and with none measured the first epoch
	// plans (and finishes) every row before its report goes out.
	if _, err := c.Query(context.Background(), wire.DesignLoose, "SELECT id FROM events WHERE grp = 0 AND label = 1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epochs := 0
	errc := make(chan error, 1)
	go func() {
		// The callback runs on the client's read loop: the first epoch
		// report cancels the call while the server is still refining.
		_, err := c.QueryTrace(ctx, wire.DesignProgressive,
			"SELECT id, label FROM events WHERE label = 0", wire.TraceContext{},
			func(wire.Epoch) {
				epochs++
				cancel()
			}, nil)
		errc <- err
	}()
	select {
	case qerr := <-errc:
		if epochs == 0 {
			t.Fatalf("the stream ended before any epoch frame: %v", qerr)
		}
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("canceled stream: got %v, want context.Canceled", qerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled stream did not terminate")
	}
	waitMetric(t, "serve.queries_canceled", db.Telemetry().Counter("serve.queries_canceled"), 1)
	if _, err := c.Query(context.Background(), wire.DesignPlain, "SELECT id FROM events WHERE grp = 1"); err != nil {
		t.Fatalf("query after the canceled stream: %v", err)
	}
}

// TestChaosIdleConnSurvives: an idle-timeout-free server keeps quiet
// connections; with IdleTimeout set, a quiet connection is reaped but an
// active one is not.
func TestChaosIdleTimeout(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 8, nil, func(cfg *Config) {
		cfg.IdleTimeout = 60 * time.Millisecond
	})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Stay quiet past the idle deadline with nothing in flight: reaped. Dial
	// returned after the handshake, so both gauges were 1.
	waitMetric(t, "serve.conn_open", db.Telemetry().Gauge("serve.conn_open"), 0)
	waitMetric(t, "serve.sessions_active", db.Telemetry().Gauge("serve.sessions_active"), 0)
}
