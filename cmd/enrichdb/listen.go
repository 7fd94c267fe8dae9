package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enrichdb"
	"enrichdb/internal/server"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/testutil/servedb"
)

// listenOpts are the network-mode knobs beyond the address.
type listenOpts struct {
	rows          int
	seed          int64
	maxSessions   int
	timeout       time.Duration
	tokens        string
	traceFile     string        // JSONL span trace (one trace ID per query)
	sample        int           // sample every Nth query per connection
	slowLog       string        // slow-query JSONL log file
	slowThreshold time.Duration // slow-query threshold
	httpAddr      string        // /metrics + /statusz address
}

// runListen serves the deterministic workload database over the wire
// protocol until SIGINT/SIGTERM, then drains gracefully: the listener
// closes, new queries and handshakes are refused with CodeDraining, and
// in-flight queries finish (bounded by the drain timeout) before the
// connections close.
func runListen(addr string, o listenOpts) error {
	db, err := servedb.New(o.rows, o.seed, nil)
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetServing(enrichdb.ServingConfig{
		MaxSessions:  o.maxSessions,
		QueueTimeout: o.timeout,
	})

	cfg := server.Config{
		DB: db,
		Progressive: enrichdb.ProgressiveOptions{
			EpochBudget: 5 * time.Millisecond,
			MaxEpochs:   200,
			Seed:        o.seed,
		},
		SampleEvery: o.sample,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Tracer = telemetry.NewTracer(telemetry.NewJSONLSink(f))
		fmt.Fprintf(os.Stderr, "tracing spans to %s (filter one query: tracefmt -query <id> %s)\n",
			o.traceFile, o.traceFile)
	}
	if o.slowLog != "" {
		f, err := os.Create(o.slowLog)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.SlowQueryLog = f
		cfg.SlowQueryThreshold = o.slowThreshold
		fmt.Fprintf(os.Stderr, "logging queries over %v to %s\n", o.slowThreshold, o.slowLog)
	}
	if o.tokens != "" {
		cfg.Tokens = make(map[string]string)
		for _, pair := range strings.Split(o.tokens, ",") {
			tok, tenant, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("bad -tokens entry %q (want token=tenant)", pair)
			}
			cfg.Tokens[tok] = tenant
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if err := s.Listen(addr); err != nil {
		return err
	}
	if o.httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.Handler(db.Telemetry()))
		mux.Handle("/statusz", s.StatusHandler())
		go func() {
			if err := http.ListenAndServe(o.httpAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "http server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics, status on http://%s/statusz\n",
			o.httpAddr, o.httpAddr)
	}
	fmt.Fprintf(os.Stderr, "serving %s (%d rows, seed %d) on %s; SIGTERM drains\n",
		servedb.Relation, o.rows, o.seed, s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "%v: draining...\n", got)
	s.Drain()
	fmt.Fprintln(os.Stderr, "drained.")
	fmt.Print(db.Telemetry().Snapshot().String())
	return nil
}
