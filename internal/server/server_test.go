package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"enrichdb"
	"enrichdb/internal/faultinject"
	"enrichdb/internal/ml"
	"enrichdb/internal/testutil"
	"enrichdb/internal/testutil/servedb"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// start spins up a server over a fresh workload DB and returns both plus the
// dial address. Cleanup closes server then DB.
func start(t *testing.T, rows int, model ml.Classifier, mut func(*Config)) (*enrichdb.DB, *Server, string) {
	t.Helper()
	db, err := servedb.New(rows, 1, model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DB: db,
		Progressive: enrichdb.ProgressiveOptions{
			EpochBudget: 2 * time.Millisecond,
			MaxEpochs:   25,
			Seed:        7,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		db.Close()
	})
	return db, s, s.Addr().String()
}

// render canonicalizes client rows for comparison.
func render(rows [][]enrichdb.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// renderRows canonicalizes direct *Rows results the same way.
func renderRows(rows *enrichdb.Rows) []string {
	out := make([]string, rows.Len())
	for i := range out {
		parts := make([]string, len(rows.At(i)))
		for j, v := range rows.At(i) {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryDesigns runs one query through every design over the wire and
// checks the answers against a direct in-process session.
func TestQueryDesigns(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 40, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sql := "SELECT id, label FROM events WHERE label = 1"

	loose, err := c.Query(ctx, wire.DesignLoose, sql)
	if err != nil {
		t.Fatalf("loose: %v", err)
	}
	if len(loose.Columns) != 2 || loose.Columns[0] != "id" {
		t.Fatalf("loose columns: %v", loose.Columns)
	}
	if loose.RowCount != uint64(len(loose.Rows)) {
		t.Fatalf("loose stats: RowCount %d != %d rows", loose.RowCount, len(loose.Rows))
	}

	// A direct session over the now-determined state agrees.
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	direct, err := sess.Run(ctx, enrichdb.LooseDesign, sql, enrichdb.QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := renderRows(direct.Rows), render(loose.Rows); !equalStrings(want, got) {
		t.Fatalf("loose over the wire diverged:\n got %v\nwant %v", got, want)
	}

	tight, err := c.Query(ctx, wire.DesignTight, sql)
	if err != nil {
		t.Fatalf("tight: %v", err)
	}
	if !equalStrings(render(loose.Rows), render(tight.Rows)) {
		t.Fatalf("tight diverged from loose:\n%v\n%v", render(tight.Rows), render(loose.Rows))
	}

	// Plain sees the session snapshot's determined state (enriched above).
	plain, err := c.Query(ctx, wire.DesignPlain, sql)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	if !equalStrings(render(loose.Rows), render(plain.Rows)) {
		t.Fatalf("plain after enrichment diverged:\n%v\n%v", render(plain.Rows), render(loose.Rows))
	}

	prog, err := c.Query(ctx, wire.DesignProgressive, sql)
	if err != nil {
		t.Fatalf("progressive: %v", err)
	}
	if !equalStrings(render(loose.Rows), render(prog.Rows)) {
		t.Fatalf("progressive final answer diverged:\n%v\n%v", render(prog.Rows), render(loose.Rows))
	}
	if prog.Wall <= 0 {
		t.Error("progressive: missing wall time in ResultDone")
	}
}

// TestPrepareExecute registers a named statement and runs it repeatedly.
func TestPrepareExecute(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 24, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Prepare(ctx, "q1", wire.DesignLoose, "SELECT id FROM events WHERE label = 2"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	first, err := c.ExecuteTrace(ctx, "q1", wire.TraceContext{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	second, err := c.ExecuteTrace(ctx, "q1", wire.TraceContext{})
	if err != nil {
		t.Fatalf("re-execute: %v", err)
	}
	if !equalStrings(render(first.Rows), render(second.Rows)) {
		t.Error("prepared statement is not stable across executions")
	}
	var we *wire.Error
	if _, err := c.ExecuteTrace(ctx, "nope", wire.TraceContext{}); !errors.As(err, &we) || we.Code != wire.CodeUnknownStmt {
		t.Errorf("unprepared name: got %v, want CodeUnknownStmt", err)
	}
}

// TestAuthTokens: tokens bind tenants, as each tenant's serve.tenant.*
// gauges show; the Welcome carries only the protocol; unknown tokens are
// refused.
func TestAuthTokens(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 8, nil, func(cfg *Config) {
		cfg.Tokens = map[string]string{"tok-alpha": "alpha", "tok-beta": "beta"}
	})
	active := func(tenant string) int64 {
		return db.Telemetry().Gauge("serve.tenant." + tenant + ".active").Value()
	}
	c, err := client.Dial(addr, client.Options{Token: "tok-alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := active("alpha"), active("beta"); a != 1 || b != 0 {
		t.Errorf("after a tok-alpha dial: alpha.active = %d, beta.active = %d; want 1, 0", a, b)
	}
	c.Close()

	nc, err := newRawConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Hello{Proto: wire.ProtoVersion, Token: "tok-beta"}); err != nil {
		t.Fatal(err)
	}
	fr, err := wire.ReadFrame(nc, 0)
	if w, ok := fr.(*wire.Welcome); err != nil || !ok || *w != (wire.Welcome{Proto: wire.ProtoVersion}) {
		t.Errorf("handshake answered %#v, %v; want Welcome{Proto: %d}", fr, err, wire.ProtoVersion)
	}
	if b := active("beta"); b != 1 {
		t.Errorf("after a tok-beta handshake: beta.active = %d, want 1", b)
	}

	var we *wire.Error
	if _, err := client.Dial(addr, client.Options{Token: "wrong"}); !errors.As(err, &we) || we.Code != wire.CodeAuth {
		t.Errorf("bad token: got %v, want CodeAuth", err)
	}
}

// TestBadFrameOnHandshake: a non-Hello first frame is refused, and so is a
// Hello of another protocol version (a protocol-1 or -2 peer is turned away
// at the handshake, before it can send a frame type or read a column kind
// a later protocol removed).
func TestBadFrameOnHandshake(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 4, nil, nil)
	for _, tc := range []struct {
		first wire.Frame
		code  uint16
	}{
		{&wire.Cancel{Query: 1}, wire.CodeBadFrame},
		{&wire.Hello{Proto: 1}, wire.CodeUnsupported},
		{&wire.Hello{Proto: 2}, wire.CodeUnsupported},
	} {
		nc, err := newRawConn(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(nc, tc.first); err != nil {
			t.Fatal(err)
		}
		fr, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("%s: expected an Error frame, got %v", tc.first.Type(), err)
		}
		if we, ok := fr.(*wire.Error); !ok || we.Code != tc.code {
			t.Fatalf("%s: got %#v, want code %d", tc.first.Type(), fr, tc.code)
		}
		// The server hangs up after the refusal.
		if _, err := wire.ReadFrame(nc, 0); err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("%s: after refusal: got %v, want EOF", tc.first.Type(), err)
		}
		nc.Close()
	}
}

// TestCancelQuery: canceling the context mid-query surfaces ctx.Err() and
// leaves the connection usable.
func TestCancelQuery(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 60, &faultinject.SlowModel{Inner: testutil.StepModel(), Delay: 2 * time.Millisecond}, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, wire.DesignLoose, "SELECT id FROM events WHERE label = 0")
		errc <- err
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query: got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled query did not return")
	}
	// The connection survives and serves the next query.
	if _, err := c.Query(context.Background(), wire.DesignPlain, "SELECT id FROM events WHERE grp = 0"); err != nil {
		t.Fatalf("post-cancel query: %v", err)
	}
}

// TestRemovedFrameTypeHangsUp: a frame of a type number protocol 2
// removed (here 8, the old Kill) is corruption: the server answers a
// connection-level BadFrame error that says why, hangs up that connection
// only, and a query running on another connection completes.
func TestRemovedFrameTypeHangsUp(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 60, &faultinject.SlowModel{Inner: testutil.StepModel(), Delay: time.Millisecond}, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), wire.DesignLoose, "SELECT id FROM events WHERE label = 1")
		errc <- err
	}()

	nc, err := newRawConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Hello{Proto: wire.ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if fr, err := wire.ReadFrame(nc, 0); err != nil {
		t.Fatal(err)
	} else if _, ok := fr.(*wire.Welcome); !ok {
		t.Fatalf("handshake answered %s, want WELCOME", fr.Type())
	}
	// Kill{ID: 1, TargetConn: 1, TargetQuery: 0} as protocol 1 encoded it.
	if _, err := nc.Write([]byte{0, 0, 0, 4, 8, 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := wire.ReadFrame(nc, 0)
	if we, ok := fr.(*wire.Error); err != nil || !ok || we.Code != wire.CodeBadFrame || we.Query != 0 || we.Msg == "" {
		t.Fatalf("after a removed frame type: got %v, %v; want a connection-level BadFrame error", fr, err)
	}
	if fr, err := wire.ReadFrame(nc, 0); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("after the BadFrame error: got %v, %v; want the server to hang up", fr, err)
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("query on the other connection: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query on the other connection did not return")
	}
}

// isDrainErr classifies errors acceptable while the server shuts down.
func isDrainErr(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeDraining || we.Code == wire.CodeCanceled
	}
	if errors.Is(err, client.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	msg := fmt.Sprint(err)
	return strings.Contains(msg, "connection refused") ||
		strings.Contains(msg, "connection reset") ||
		strings.Contains(msg, "use of closed network connection") ||
		strings.Contains(msg, "broken pipe")
}

// TestDrainUnderLoad runs the shared drain battery against the wire server:
// workers hammer queries over fresh connections while the server drains.
func TestDrainUnderLoad(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, s, addr := start(t, 24, nil, nil)
	testutil.DrainBattery(t, testutil.DrainSpec{
		Workers: 6,
		Work: func(w int) error {
			c, err := client.Dial(addr, client.Options{DialTimeout: 2 * time.Second})
			if err != nil {
				return err
			}
			defer c.Close()
			for i := 0; i < 4; i++ {
				if _, err := c.Query(context.Background(), wire.DesignLoose, servedb.SampleQuery(w*4+i)); err != nil {
					return err
				}
			}
			return nil
		},
		Drain:       s.Drain,
		DrainingErr: isDrainErr,
	})
	// Every session was released: the active gauge settled back to zero.
	waitMetric(t, "serve.sessions_active", db.Telemetry().Gauge("serve.sessions_active"), 0)
}
