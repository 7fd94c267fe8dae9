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
	direct, err := sess.QueryLoose(sql)
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
	first, err := c.Execute(ctx, "q1")
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	second, err := c.Execute(ctx, "q1")
	if err != nil {
		t.Fatalf("re-execute: %v", err)
	}
	if !equalStrings(render(first.Rows), render(second.Rows)) {
		t.Error("prepared statement is not stable across executions")
	}
	var we *wire.Error
	if _, err := c.Execute(ctx, "nope"); !errors.As(err, &we) || we.Code != wire.CodeUnknownStmt {
		t.Errorf("unprepared name: got %v, want CodeUnknownStmt", err)
	}
}

// TestAuthTokens: tokens bind tenants; unknown tokens are refused.
func TestAuthTokens(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	db, _, addr := start(t, 8, nil, func(cfg *Config) {
		cfg.Tokens = map[string]string{"tok-alpha": "alpha", "tok-beta": "beta"}
	})
	c, err := client.Dial(addr, client.Options{Token: "tok-alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Tenant() != "alpha" {
		t.Errorf("tenant: got %q want alpha", c.Tenant())
	}
	if got := db.Telemetry().Gauge("serve.tenant.alpha.active").Value(); got != 1 {
		t.Errorf("serve.tenant.alpha.active = %d, want 1", got)
	}
	c.Close()

	var we *wire.Error
	if _, err := client.Dial(addr, client.Options{Token: "wrong"}); !errors.As(err, &we) || we.Code != wire.CodeAuth {
		t.Errorf("bad token: got %v, want CodeAuth", err)
	}
}

// TestBadFrameOnHandshake: a non-Hello first frame is refused.
func TestBadFrameOnHandshake(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 4, nil, nil)
	nc, err := newRawConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	fr, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("expected an Error frame, got %v", err)
	}
	we, ok := fr.(*wire.Error)
	if !ok || we.Code != wire.CodeBadFrame {
		t.Fatalf("got %#v, want CodeBadFrame", fr)
	}
	// The server hangs up after the refusal.
	if _, err := wire.ReadFrame(nc, 0); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Errorf("after refusal: got %v, want EOF", err)
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

// TestKillAcrossConnections: one connection kills another's in-flight query;
// foreign tenants cannot.
func TestKillAcrossConnections(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 80, &faultinject.SlowModel{Inner: testutil.StepModel(), Delay: 2 * time.Millisecond}, func(cfg *Config) {
		cfg.Tokens = map[string]string{"a1": "alpha", "a2": "alpha", "b": "beta"}
	})
	victim, err := client.Dial(addr, client.Options{Token: "a1"})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	killer, err := client.Dial(addr, client.Options{Token: "a2"})
	if err != nil {
		t.Fatal(err)
	}
	defer killer.Close()
	foreign, err := client.Dial(addr, client.Options{Token: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := victim.Query(context.Background(), wire.DesignLoose, "SELECT id FROM events WHERE label = 1")
		errc <- err
	}()
	time.Sleep(15 * time.Millisecond)

	// A foreign tenant sees nothing to kill.
	if n, err := foreign.Kill(context.Background(), victim.ConnID(), 0); err != nil || n != 0 {
		t.Errorf("foreign kill: count=%d err=%v, want 0, nil", n, err)
	}
	// The same tenant kills the in-flight query.
	n, err := killer.Kill(context.Background(), victim.ConnID(), 0)
	if err != nil {
		t.Fatalf("kill: %v", err)
	}
	if n != 1 {
		t.Errorf("kill count = %d, want 1", n)
	}
	select {
	case err := <-errc:
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeCanceled {
			t.Fatalf("killed query: got %v, want CodeCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed query did not return")
	}
}

// TestPing round-trips liveness probes concurrently with queries.
func TestPing(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	_, _, addr := start(t, 8, nil, nil)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if c.Version() != 8 {
		t.Errorf("handshake version = %d, want 8 (one commit per seeded row)", c.Version())
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
		Drain:       func() { s.Drain("test shutdown") },
		DrainingErr: isDrainErr,
	})
	// Every session was released: the active gauge settled back to zero.
	waitMetric(t, "serve.sessions_active", db.Telemetry().Gauge("serve.sessions_active"), 0)
}
