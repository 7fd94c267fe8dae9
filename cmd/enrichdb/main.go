// Command enrichdb is an interactive query runner over a generated demo
// database (the paper's TweetData/MultiPie/State schemas with trained
// enrichment functions). Queries execute under the chosen design and print
// rows plus enrichment statistics.
//
// Usage:
//
//	enrichdb [-design loose|tight|plain] [-tweets N] [-images N] [-q "SELECT ..."]
//	         [-trace file] [-metrics]
//
// -trace writes one JSON span per pipeline phase to the given file (use
// cmd/tracefmt to pretty-print it); -metrics prints the telemetry snapshot
// on exit. Without -q it reads queries from stdin, one per line. Special
// inputs: ".help", ".stats", ".metrics", ".explain <query>",
// ".design <name>", ".quit".
//
// Serving mode:
//
//	enrichdb -serve [-writers N] [-serve-sessions M] [-max-sessions K]
//	         [-session-timeout D] [-seed S] [-seconds T]
//
// -serve runs the concurrent serving workload instead of the REPL: N
// writers commit against the database while M session goroutines run
// snapshot-isolated loose/tight/progressive/plain queries, under admission
// control when -max-sessions is set. Every iteration is verified by the
// deterministic harness oracles (serial-replay equivalence and the
// monotone-enrichment invariant) and reports its seed; a reported seed
// reproduces the exact run.
//
// Network mode:
//
//	enrichdb -listen :7070 [-rows N] [-seed S] [-max-sessions K]
//	         [-session-timeout D] [-tokens tok=tenant,...]
//	         [-trace file] [-sample N] [-slowlog file] [-slow-threshold D]
//	         [-http :8080]
//
// -listen serves the deterministic workload database over the binary wire
// protocol (internal/wire): clients handshake with a tenant token, run
// queries under any design, and stream columnar result batches. SIGTERM or
// SIGINT drains gracefully — in-flight queries finish, connected clients
// get a Drain notice — then the telemetry snapshot prints.
//
// Observability in network mode: -trace writes every sampled query's span
// chain (handshake through result stream) as JSONL; -sample N samples every
// Nth query per connection on top of client-requested sampling; -slowlog
// plus -slow-threshold appends a JSON record (with the operator profile)
// for every query slower than the threshold; -http serves /metrics (with
// p50/p95/p99 quantile lines) and /statusz (live sessions, in-flight
// queries, per-tenant admission state). `EXPLAIN ANALYZE <query>` works
// both in the REPL and over the wire.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"enrichdb/internal/bench"
	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/harness"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/tight"
)

func main() {
	design := flag.String("design", "tight", "execution design: loose, tight or plain")
	tweets := flag.Int("tweets", 2000, "TweetData size")
	images := flag.Int("images", 800, "MultiPie size")
	query := flag.String("q", "", "single query to run (otherwise read stdin)")
	traceFile := flag.String("trace", "", "write JSONL spans to this file")
	metrics := flag.Bool("metrics", false, "print the telemetry snapshot on exit")
	serve := flag.Bool("serve", false, "run the verified concurrent serving workload instead of the REPL")
	listen := flag.String("listen", "", "serve the wire protocol on this address (e.g. :7070) instead of the REPL")
	rows := flag.Int("rows", 2000, "listen mode: workload rows to seed")
	tokens := flag.String("tokens", "", "listen mode: comma-separated token=tenant auth pairs (empty = any token)")
	sample := flag.Int("sample", 0, "listen mode: trace every Nth query per connection (0 = only client-requested)")
	slowLog := flag.String("slowlog", "", "listen mode: append slow-query JSON records to this file")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "listen mode: slow-query threshold for -slowlog")
	httpAddr := flag.String("http", "", "listen mode: serve /metrics and /statusz on this address")
	writers := flag.Int("writers", 4, "serving mode: concurrent writers")
	serveSessions := flag.Int("serve-sessions", 4, "serving mode: concurrent query sessions")
	maxSessions := flag.Int("max-sessions", 3, "serving mode: admission limit (0 = unlimited)")
	sessionTimeout := flag.Duration("session-timeout", 5*time.Second, "serving mode: admission queue timeout")
	seed := flag.Int64("seed", 1, "serving mode: workload seed (each iteration increments it)")
	seconds := flag.Int("seconds", 5, "serving mode: how long to iterate")
	flag.Parse()

	if *listen != "" {
		err := runListen(*listen, listenOpts{
			rows: *rows, seed: *seed, maxSessions: *maxSessions,
			timeout: *sessionTimeout, tokens: *tokens,
			traceFile: *traceFile, sample: *sample,
			slowLog: *slowLog, slowThreshold: *slowThreshold,
			httpAddr: *httpAddr,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *serve {
		if err := runServe(*writers, *serveSessions, *maxSessions, *sessionTimeout, *seed, *seconds); err != nil {
			log.Fatal(err)
		}
		return
	}

	scale := bench.Small()
	scale.Tweets = *tweets
	scale.Images = *images
	fmt.Fprintf(os.Stderr, "generating %d tweets, %d images and training enrichment functions...\n",
		*tweets, *images)
	env, err := bench.NewEnv(scale, dataset.SingleFunctionSpecs())
	if err != nil {
		log.Fatal(err)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		env.Tracer = telemetry.NewTracer(telemetry.NewJSONLSink(f))
		fmt.Fprintf(os.Stderr, "tracing spans to %s\n", *traceFile)
	}
	if *metrics {
		defer func() { fmt.Print(env.Telemetry().Snapshot().String()) }()
	}
	fmt.Fprintf(os.Stderr, "ready. relations: TweetData(topic, sentiment derived), MultiPie(gender, expression derived), State\n")

	r := &runner{env: env, design: *design}
	if *query != "" {
		if err := r.exec(*query); err != nil {
			log.Fatal(err)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if done := r.command(line); done {
				return
			}
		}
		fmt.Print("> ")
	}
}

// runServe iterates the deterministic serving workload for roughly the given
// number of seconds, bumping the seed each round so every iteration explores
// a different interleaving. Any oracle violation aborts with the failing
// seed and a minimized op trace.
func runServe(writers, sessions, maxSessions int, timeout time.Duration, seed int64, seconds int) error {
	fmt.Fprintf(os.Stderr,
		"serving workload: %d writers x %d sessions (admission %d, timeout %v), seed %d, %ds\n",
		writers, sessions, maxSessions, timeout, seed, seconds)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	iters := 0
	for time.Now().Before(deadline) {
		cfg := harness.Config{
			Seed:         seed,
			Writers:      writers,
			Sessions:     sessions,
			OpsPerWriter: 30,
			MaxSessions:  maxSessions,
			QueueTimeout: timeout,
		}
		rep, err := harness.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("seed %d: %d commits, %d queries (%d replayed, %d progressive), %d enrichments, %d stale drops, %d rejected, %d images observed\n",
			rep.Seed, rep.Commits, rep.Queries, rep.Replayed, rep.Progressive,
			rep.Enrichments, rep.StaleDrops, rep.Rejected, rep.ObservedImages)
		seed++
		iters++
	}
	fmt.Fprintf(os.Stderr, "%d iterations, all verified by serial replay and the monotone oracle\n", iters)
	return nil
}

type runner struct {
	env    *bench.Env
	design string
}

func (r *runner) command(line string) (quit bool) {
	switch {
	case line == ".quit" || line == ".exit":
		return true
	case line == ".help":
		fmt.Println("enter a SELECT query (prefix with EXPLAIN for the annotated plan without")
		fmt.Println("executing, or EXPLAIN ANALYZE for an operator profile of a real run),")
		fmt.Println("or: .design loose|tight|plain, .explain <query>, .paper, .stats, .metrics, .quit")
	case line == ".paper":
		// Run the paper's nine query templates under the current design.
		scale := bench.Small()
		scale.Tweets = r.env.Data.Config.Tweets
		scale.Images = r.env.Data.Config.Images
		scale.TopicDomain = r.env.Data.Config.TopicDomain
		for qi, q := range scale.Queries() {
			fmt.Printf("-- Q%d: %s\n", qi+1, q)
			if err := r.exec(q); err != nil {
				fmt.Println("error:", err)
			}
		}
	case line == ".stats":
		c := r.env.Mgr.Counters()
		fmt.Printf("enrichments=%d skipped=%d re-executions=%d state=%dB enrich-time=%v\n",
			c.Enrichments, c.Skipped, c.ReExecutions, r.env.Mgr.StateSizeBytes(), c.EnrichTime.Round(time.Millisecond))
	case line == ".metrics":
		fmt.Print(r.env.Telemetry().Snapshot().String())
	case strings.HasPrefix(line, ".design "):
		d := strings.TrimSpace(strings.TrimPrefix(line, ".design "))
		if d != "loose" && d != "tight" && d != "plain" {
			fmt.Println("designs: loose, tight, plain")
		} else {
			r.design = d
			fmt.Printf("design = %s\n", d)
		}
	case strings.HasPrefix(line, ".explain "):
		q := strings.TrimPrefix(line, ".explain ")
		plan, err := r.env.TightDriver().Explain(q)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Print(plan)
		}
	default:
		if err := r.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
	return false
}

func (r *runner) exec(q string) error {
	// EXPLAIN ANALYZE runs the inner SELECT with an operator profiler and
	// prints the profile tree instead of the rows. Bare EXPLAIN renders the
	// annotated plan — estimated cardinalities plus any observed
	// selectivities from the env's stats store — without executing anything.
	var prof *engine.Profiler
	if st, err := sqlparser.ParseStatement(q); err == nil {
		if st.ExplainPlan {
			return r.explainPlan(st.Select.String())
		}
		if st.ExplainAnalyze {
			prof = engine.NewProfiler()
			q = st.Select.String()
		}
	}

	start := time.Now()
	var rows []*expr.Row
	var enrichments int64
	switch r.design {
	case "loose":
		d := r.env.LooseDriver()
		d.Prof = prof
		res, err := d.Execute(q)
		if err != nil {
			return err
		}
		rows, enrichments = res.Rows, res.Enrichments
	case "tight":
		d := r.env.TightDriver()
		d.Prof = prof
		res, err := d.Execute(q)
		if err != nil {
			return err
		}
		rows, enrichments = res.Rows, res.Enrichments
	case "plain":
		var err error
		rows, err = r.env.ExecutePlain(q, prof)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown design %q", r.design)
	}
	elapsed := time.Since(start)

	if prof != nil {
		for _, root := range prof.Roots() {
			fmt.Print(engine.FormatProfile(root))
		}
		fmt.Printf("-- %d rows, %d enrichments, %v (%s design)\n",
			len(rows), enrichments, elapsed.Round(time.Millisecond), r.design)
		return nil
	}

	limit := 20
	for i, row := range rows {
		if i == limit {
			fmt.Printf("... (%d more rows)\n", len(rows)-limit)
			break
		}
		cells := make([]string, len(row.Vals))
		for ci, v := range row.Vals {
			cells[ci] = v.String()
			if len(cells[ci]) > 24 {
				cells[ci] = cells[ci][:21] + "..."
			}
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("-- %d rows, %d enrichments, %v (%s design)\n",
		len(rows), enrichments, elapsed.Round(time.Millisecond), r.design)
	return nil
}

// explainPlan renders the plan-only EXPLAIN for the current design: the
// operator tree the optimizer would run (the tight design's UDF-rewritten
// tree when that design is active), annotated with estimated rows/costs and
// observed selectivities from the env's runtime-statistics store. Nothing
// executes — no scans, no enrichment.
func (r *runner) explainPlan(q string) error {
	a, err := engine.AnalyzeSQL(q, r.env.Data.DB.Catalog())
	if err != nil {
		return err
	}
	if r.design == "tight" {
		if a, err = tight.RewriteAnalysis(a); err != nil {
			return err
		}
	}
	plan, err := engine.BuildOpt(a, r.env.Data.DB, engine.BuildOptions{Stats: r.env.Stats})
	if err != nil {
		return err
	}
	fmt.Print(engine.AnnotatedExplain(plan, &engine.CostModel{Store: r.env.Stats}))
	return nil
}
