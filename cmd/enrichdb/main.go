// Command enrichdb is an interactive query runner over a generated demo
// database (the paper's TweetData/MultiPie/State schemas with trained
// enrichment functions), loaded through the public API: the REPL is an
// enrichdb.DB, and every line it answers is one DB.Run under the chosen
// design, the same pipeline the library and the wire server run.
//
// Usage:
//
//	enrichdb [-design loose|tight|plain|progressive] [-tweets N] [-images N]
//	         [-q "SELECT ..."] [-trace file] [-metrics]
//
// -trace writes one JSON span per pipeline phase to the given file (use
// cmd/tracefmt to pretty-print it); -metrics prints the telemetry snapshot
// on exit. Without -q it reads queries from stdin, one per line; prefix a
// query with EXPLAIN for the plan the current design runs, or EXPLAIN ANALYZE
// for the operator profile of a real run. Special inputs: ".help", ".stats",
// ".metrics", ".design <name>", ".paper", ".quit". testdata/reach.txt is the
// session `make reach` runs.
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
// SIGINT drains gracefully — new queries are refused, in-flight queries
// finish — then the telemetry snapshot prints.
//
// Observability in network mode: -trace writes every sampled query's span
// chain (handshake through result stream) as JSONL; -sample N samples every
// Nth query per connection on top of client-requested sampling; -slowlog
// plus -slow-threshold appends a JSON record (with the operator profile)
// for every query slower than the threshold; -http serves /metrics (with
// p50/p95/p99 quantile lines) and /statusz (live sessions, in-flight
// queries, per-tenant admission state). `EXPLAIN ANALYZE <query>` answers
// the same tree in the REPL and over the wire: both run it through
// DB.Run's one pipeline (the wire through Session.Run).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"enrichdb"
	"enrichdb/internal/bench"
	"enrichdb/internal/dataset"
	"enrichdb/internal/harness"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
)

func main() {
	design := flag.String("design", "tight", "execution design: "+designList)
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

	d, ok := designByName(*design)
	if !ok {
		log.Fatalf("unknown design %q (%s)", *design, designList)
	}
	scale := bench.Small()
	scale.Tweets = *tweets
	scale.Images = *images
	fmt.Fprintf(os.Stderr, "generating %d tweets, %d images and training enrichment functions...\n",
		*tweets, *images)
	db, err := openDemo(scale)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		db.SetTracer(telemetry.NewTracer(telemetry.NewJSONLSink(f)))
		fmt.Fprintf(os.Stderr, "tracing spans to %s\n", *traceFile)
	}
	if *metrics {
		defer func() { fmt.Print(db.Telemetry().Snapshot().String()) }()
	}
	fmt.Fprintf(os.Stderr, "ready. relations: TweetData(topic, sentiment derived), MultiPie(gender, expression derived), State\n")

	r := &runner{db: db, scale: scale, design: d, out: os.Stdout}
	if *query != "" {
		if err := r.exec(*query); err != nil {
			log.Fatal(err)
		}
		return
	}
	r.loop(os.Stdin)
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

// openDemo generates the paper's TweetData/MultiPie/State database at the
// given scale and loads it into a fresh enrichdb.DB through the public API:
// CreateRelation and Insert for every generated tuple, then RegisterEnrichment
// for each derived attribute with the trained single-function family of
// Exp 1 (dataset.SingleFunctionSpecs).
func openDemo(s bench.Scale) (*enrichdb.DB, error) {
	d, err := dataset.Generate(dataset.Config{
		Seed: s.Seed, Tweets: s.Tweets, Images: s.Images,
		TopicDomain: s.TopicDomain, TimeRange: s.TimeRange,
	})
	if err != nil {
		return nil, err
	}
	db := enrichdb.Open()
	if err := loadDemo(db, d); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func loadDemo(db *enrichdb.DB, d *dataset.Data) error {
	cat := d.DB.Catalog()
	for _, rel := range cat.Relations() {
		schema := cat.Schema(rel)
		cols := make([]enrichdb.Column, len(schema.Cols))
		for i, c := range schema.Cols {
			cols[i] = enrichdb.Column{Name: c.Name, Kind: c.Kind, Derived: c.Derived,
				FeatureCol: c.FeatureCol, Domain: c.Domain}
		}
		if err := db.CreateRelation(rel, cols); err != nil {
			return err
		}
		for _, tu := range storage.Tuples(d.DB.MustTable(rel)) {
			if _, err := db.Insert(rel, tu.ID, tu.Vals...); err != nil {
				return err
			}
		}
	}
	for key, specs := range dataset.SingleFunctionSpecs() {
		fam, err := d.TrainFamily(key[0], key[1], nil, specs...)
		if err != nil {
			return err
		}
		fns := make([]enrichdb.Function, len(fam.Functions))
		for i, f := range fam.Functions {
			fns[i] = enrichdb.Function{Name: f.Name, Model: f.Model, Quality: f.Quality, ExtraCost: f.ExtraCost}
		}
		if err := db.RegisterEnrichment(key[0], key[1], fns...); err != nil {
			return err
		}
	}
	return nil
}

const designList = "loose, tight, plain, progressive"

func designByName(name string) (enrichdb.Design, bool) {
	for d := enrichdb.LooseDesign; d <= enrichdb.ProgressiveDesign; d++ {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}

// runner is the REPL: every query line, EXPLAIN forms included, is one
// DB.Run under the current design.
type runner struct {
	db     *enrichdb.DB
	scale  bench.Scale
	design enrichdb.Design
	out    io.Writer
}

// loop reads one command per line until EOF or .quit.
func (r *runner) loop(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprint(r.out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && r.command(line) {
			return
		}
		fmt.Fprint(r.out, "> ")
	}
}

func (r *runner) command(line string) (quit bool) {
	switch {
	case line == ".quit" || line == ".exit":
		return true
	case line == ".help":
		fmt.Fprintln(r.out, "enter a SELECT query (prefix with EXPLAIN for the annotated plan without")
		fmt.Fprintln(r.out, "executing, or EXPLAIN ANALYZE for an operator profile of a real run),")
		fmt.Fprintln(r.out, "or: .design "+strings.ReplaceAll(designList, ", ", "|")+", .paper, .stats, .metrics, .quit")
	case line == ".paper":
		// Run the paper's nine query templates under the current design.
		for qi, q := range r.scale.Queries() {
			fmt.Fprintf(r.out, "-- Q%d: %s\n", qi+1, q)
			if err := r.exec(q); err != nil {
				fmt.Fprintln(r.out, "error:", err)
			}
		}
	case line == ".stats":
		st := r.db.Stats()
		enrichTime := time.Duration(r.db.Telemetry().Snapshot().Counters["enrich.exec_ns"])
		fmt.Fprintf(r.out, "enrichments=%d skipped=%d re-executions=%d state=%dB enrich-time=%v\n",
			st.Enrichments, st.Skipped, st.ReExecutions, st.StateSizeBytes, enrichTime.Round(time.Millisecond))
	case line == ".metrics":
		fmt.Fprint(r.out, r.db.Telemetry().Snapshot().String())
	case strings.HasPrefix(line, ".design "):
		if d, ok := designByName(strings.TrimSpace(strings.TrimPrefix(line, ".design "))); ok {
			r.design = d
			fmt.Fprintf(r.out, "design = %s\n", d)
		} else {
			fmt.Fprintln(r.out, "designs:", designList)
		}
	default:
		if err := r.exec(line); err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	}
	return false
}

// exec answers one statement with DB.Run. Both EXPLAIN forms answer the
// rendered tree, one line per row, which prints as is.
func (r *runner) exec(q string) error {
	start := time.Now()
	res, err := r.db.Run(context.Background(), r.design, q, enrichdb.QueryObs{})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if strings.HasPrefix(strings.ToUpper(q), "EXPLAIN") {
		for i := 0; i < res.Len(); i++ {
			fmt.Fprintln(r.out, res.At(i)[0].Str())
		}
		if res.Profile != nil {
			fmt.Fprintf(r.out, "-- %d enrichments, %v (%s design)\n",
				res.Enrichments, elapsed.Round(time.Millisecond), r.design)
		}
		return nil
	}
	const limit = 20
	for i := 0; i < res.Len(); i++ {
		if i == limit {
			fmt.Fprintf(r.out, "... (%d more rows)\n", res.Len()-limit)
			break
		}
		row := res.At(i)
		cells := make([]string, len(row))
		for ci, v := range row {
			cells[ci] = v.String()
			if len(cells[ci]) > 24 {
				cells[ci] = cells[ci][:21] + "..."
			}
		}
		fmt.Fprintln(r.out, strings.Join(cells, " | "))
	}
	fmt.Fprintf(r.out, "-- %d rows, %d enrichments, %v (%s design)\n",
		res.Len(), res.Enrichments, elapsed.Round(time.Millisecond), r.design)
	return nil
}
