package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"enrichdb"
	"enrichdb/internal/server"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// kind is how a workload's ops reach the server.
type kind int

const (
	// kindShared: one warm database and one connection per client; each
	// client prepares the statement list once and then executes from it.
	kindShared kind = iota
	// kindPool: every op gets tuples nothing has enriched yet. Each client
	// owns a pool of fresh databases built in set-up; an op sends one Query
	// frame over one hour of one of them, and no hour is queried twice.
	kindPool
	// kindIngest: one client alternates a committed insert batch with a new
	// connection (a new snapshot session) that runs the fixed query.
	kindIngest
)

// spec is one workload: one template under one design, so that its latency
// distribution has one mode.
type spec struct {
	name   string
	kind   kind
	design wire.Design
	// Every database holds hours*combos*perCell rows; a query's hour window
	// spans `window` hours.
	hours, perCell, window int
	models                 modelSpec
	shards                 int
	// noTopic drops the topic conjunct: with half the hours in the window the
	// predicate then passes about a quarter of the scanned rows (shard_scan).
	noTopic bool
	// oneClient pins the client count to 1 so that counts repeat exactly
	// (or, for progressive, so that one query owns the quality function).
	oneClient bool
	// dbsPerClient sizes a kindPool client's pool.
	dbsPerClient int
}

func (s spec) rows() int { return s.hours * combos * s.perCell }

// Progressive settings: a small epoch budget makes a query take tens of
// epochs, so that time-to-quality is well short of run-to-completion.
const (
	epochBudget = 50 * time.Microsecond
	targetF1    = 0.75
	// qualitySlack is how far below its running maximum an epoch's F1 may
	// fall: functions disagree on tuples near a class boundary, so F1 against
	// ground truth dips by a few hundredths while it climbs.
	qualitySlack = 0.10
	// minScoredTruth is the smallest ground-truth answer whose F1 is checked:
	// at the smoke scale an answer has one or two rows and F1 moves in thirds.
	minScoredTruth = 16
	// ingestBatch rows are inserted per ingest_mix cycle, half of them inside
	// the fixed query's hour window.
	ingestBatch = 8
	// statements is the length of a shared workload's prepared list.
	statements = 16
)

// specs are the eight workloads; BENCHMARK.json and README.md say why each
// was chosen. On the sizes: the warm workloads' window is a quarter of the
// hours, and their KNN scans only 64 points because set-up has to run it on
// every row. The cold pools' KNN scans 2048 points, which makes one topic
// execution cost ~300us: enrichment then dominates an op, and a window
// consumes few enough fresh rows for two databases per client to last.
// shard_scan only needs rows that are enriched, so its models are the
// cheapest. ingest_mix holds 32k rows so that the 8 rows an op adds change
// the table's size by little over a window.
var specs = []spec{
	{name: "warm_plain", kind: kindShared, design: wire.DesignPlain, hours: 64, perCell: 32, window: 16, models: modelSpec{trainN: 64}},
	{name: "warm_loose", kind: kindShared, design: wire.DesignLoose, hours: 64, perCell: 32, window: 16, models: modelSpec{trainN: 64}},
	{name: "warm_tight", kind: kindShared, design: wire.DesignTight, hours: 64, perCell: 32, window: 16, models: modelSpec{trainN: 64}},
	{name: "cold_loose", kind: kindPool, design: wire.DesignLoose, hours: 128, perCell: 16, window: 1, models: modelSpec{trainN: 2048}, dbsPerClient: 2},
	{name: "cold_tight", kind: kindPool, design: wire.DesignTight, hours: 128, perCell: 16, window: 1, models: modelSpec{trainN: 2048}, dbsPerClient: 2},
	{name: "progressive_ttq", kind: kindPool, design: wire.DesignProgressive, hours: 64, perCell: 32, window: 1, models: modelSpec{graded: true, trainN: 512}, dbsPerClient: 3, oneClient: true},
	{name: "shard_scan", kind: kindShared, design: wire.DesignPlain, hours: 64, perCell: 64, window: 32, models: modelSpec{trainN: 16}, shards: 4, noTopic: true},
	{name: "ingest_mix", kind: kindIngest, design: wire.DesignLoose, hours: 64, perCell: 64, window: 16, models: modelSpec{trainN: 64}, oneClient: true},
}

// smoke shrinks a workload to the size the tier-1 test runs: the same code
// paths over a few hundred rows.
func (s spec) smoke() spec {
	s.perCell = 1
	if s.hours > 16 {
		s.hours, s.window = 16, (s.window*16+s.hours-1)/s.hours
	}
	if s.models.trainN > 64 {
		s.models.trainN = 64
	}
	if s.dbsPerClient > 1 {
		s.dbsPerClient = 1
	}
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one entry of a workload's op list: the template's parameters.
type op struct {
	a, b int64 // hour window, inclusive
	s, t int
	sql  string
}

func (s spec) makeOp(a int64, sent, topic int) op {
	o := op{a: a, b: a + int64(s.window) - 1, s: sent, t: topic}
	o.sql = fmt.Sprintf("SELECT id, hour FROM tweets WHERE hour BETWEEN %d AND %d AND sentiment = %d", o.a, o.b, o.s)
	if !s.noTopic {
		o.sql += fmt.Sprintf(" AND topic = %d", o.t)
	}
	return o
}

// matches applies the op's predicate to one row's values: the reference the
// served answers are checked against.
func (s spec) matches(o op, hour int64, sent, topic int) bool {
	return hour >= o.a && hour <= o.b && sent == o.s && (s.noTopic || topic == o.t)
}

// opList rotates (a, b, s, t) from the seed. Shared and ingest workloads
// cycle through a short list; a pool workload has one op per hour of a
// database, in shuffled order, reused for every database of the pool.
func (s spec) opList(rng *rand.Rand) []op {
	var ops []op
	switch s.kind {
	case kindPool:
		for _, h := range rng.Perm(s.hours) {
			ops = append(ops, s.makeOp(int64(h), rng.Intn(sentDomain), rng.Intn(topicDomain)))
		}
	case kindIngest:
		ops = []op{s.makeOp(int64(rng.Intn(s.hours-s.window+1)), rng.Intn(sentDomain), rng.Intn(topicDomain))}
	default:
		for i := 0; i < statements; i++ {
			ops = append(ops, s.makeOp(int64(rng.Intn(s.hours-s.window+1)), rng.Intn(sentDomain), rng.Intn(topicDomain)))
		}
	}
	return ops
}

const (
	benchToken  = "bench-token"
	benchTenant = "bench"
)

// served is one database behind one in-process wire server.
type served struct {
	db   *enrichdb.DB
	srv  *server.Server
	rows []tweet
}

// serve gates the database by tenant and starts a server for it on a
// loopback port.
func serve(db *enrichdb.DB, rows []tweet, prog enrichdb.ProgressiveOptions) (*served, error) {
	db.SetServing(enrichdb.ServingConfig{
		MaxSessions: 64, QueueTimeout: 30 * time.Second,
		Tenants: map[string]enrichdb.TenantConfig{benchTenant: {MaxSessions: 64}},
	})
	srv, err := server.New(server.Config{DB: db, Tokens: map[string]string{benchToken: benchTenant}, Progressive: prog})
	if err == nil {
		err = srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return &served{db: db, srv: srv, rows: rows}, nil
}

func (s *served) dial() (*client.Client, error) {
	return client.Dial(s.srv.Addr().String(), client.Options{Token: benchToken, Client: "benchmark"})
}

func (s *served) close() {
	s.srv.Close()
	s.db.Close()
}

// answer is what the benchmark keeps of one result set: the row count and an
// order-sensitive checksum over (id, hour).
type answer struct {
	n   int
	sum uint64
}

type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: 14695981039346656037} }

func (h *hasher) add(v int64) {
	for i := 0; i < 8; i++ {
		h.h = (h.h ^ uint64(byte(v>>(8*i)))) * 1099511628211
	}
}

func answerOf(rows [][]enrichdb.Value) answer {
	h := newHasher()
	for _, r := range rows {
		h.add(r[0].Int())
		h.add(r[1].Int())
	}
	return answer{n: len(rows), sum: h.h}
}

// opResult is one executed op.
type opResult struct {
	client, seq int // seq counts the client's ops from set-up on
	stmt        int // shared: index into the op list
	start       time.Time
	lat, ttq    time.Duration
	wall        time.Duration // server-reported
	enrich      int64
	got         answer
	// Progressive only: per-epoch quality never fell and the last epoch
	// reached the target.
	truthN         int // size of the op's ground-truth answer
	epochsToTarget int
	qualityOK      bool
	finalF1        float64
	epochFrames    []wire.Epoch
	profile        *wire.Profile
	dial           time.Duration // ingest_mix: the handshake inside the op
	err            error
}

// clientState is one closed-loop client.
type clientState struct {
	id    int
	conns []*client.Client // shared: one; pool: one per database of its pool
	dbs   []*served        // pool: the client's databases
	seq   int              // ops started so far (pool: also the slice cursor)
}

// instance is one set-up workload, ready to run passes.
type instance struct {
	spec    spec
	seed    int64
	ops     []op
	dbs     []*served
	clients []*clientState
	models  models

	// expected[i] is the reference answer of ops[i] (shared workloads).
	expected []answer
	// labels maps tuple id to the (sentiment, topic) a database holds: after
	// set-up enrichment (shared, ingest) or of the pool database being checked.
	labels map[int64][2]int

	// truth is the running progressive op's ground-truth answer, read by the
	// servers' quality function.
	truth atomic.Pointer[map[int64]bool]

	// ingest_mix state: next tuple id, and the batches inserted so far.
	nextID  int64
	batches [][]tweet
	rng     *rand.Rand

	results []opResult
	setup   time.Duration
}

// clientCount is C: closed-loop clients, no more than cores and at most 4.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// f1 scores an answer's ids against the true ids.
func f1(ids []int64, truth map[int64]bool) float64 {
	if len(ids) == 0 || len(truth) == 0 {
		return 0
	}
	tp := 0
	for _, id := range ids {
		if truth[id] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	p, r := float64(tp)/float64(len(ids)), float64(tp)/float64(len(truth))
	return 2 * p * r / (p + r)
}

// prepare is a workload's whole set-up: generate, train, load, warm, listen
// and dial. Its duration is setup_s.
func prepare(s spec, seed int64) (*instance, error) {
	start := time.Now()
	// Workloads of one family (warm_*, cold_*) draw the same data and ops
	// from a seed, so that their answers can be compared op by op.
	family, _, _ := strings.Cut(s.name, "_")
	rng := rand.New(rand.NewSource(seed ^ int64(fnvName(family))))
	in := &instance{spec: s, seed: seed, rng: rng}
	fail := func(err error) (*instance, error) {
		in.close()
		return nil, fmt.Errorf("%s set-up: %w", s.name, err)
	}
	var err error
	if in.models, err = trainModels(rng, s.models); err != nil {
		return fail(err)
	}
	in.ops = s.opList(rng)

	nClients := clientCount()
	if s.oneClient {
		nClients = 1
	}
	nDBs := 1
	if s.kind == kindPool {
		nDBs = nClients * s.dbsPerClient
	}
	prog := enrichdb.ProgressiveOptions{
		Design: enrichdb.LooseDesign, Strategy: enrichdb.FunctionOrdered,
		EpochBudget: epochBudget, MaxEpochs: 10000, Seed: seed, Workers: 1,
		Quality: func(r *enrichdb.Rows) float64 {
			ids := make([]int64, r.Len())
			for i := range ids {
				ids[i] = r.At(i)[0].Int()
			}
			return f1(ids, *in.truth.Load())
		},
	}
	for d := 0; d < nDBs; d++ {
		rows := genTweets(rng, s.rows(), s.hours, 1)
		db, err := loadDB(rows, in.models, s.shards)
		if err != nil {
			return fail(err)
		}
		sv, err := serve(db, rows, prog)
		if err != nil {
			return fail(err)
		}
		in.dbs = append(in.dbs, sv)
	}
	in.nextID = int64(s.rows()) + 1

	if s.kind != kindPool {
		if err := in.warm(); err != nil {
			return fail(err)
		}
	}
	for c := 0; c < nClients; c++ {
		cs := &clientState{id: c}
		in.clients = append(in.clients, cs)
		switch s.kind {
		case kindShared:
			conn, err := in.dbs[0].dial()
			if err != nil {
				return fail(err)
			}
			cs.conns = []*client.Client{conn}
			for i, o := range in.ops {
				if err := conn.Prepare(context.Background(), stmtName(i), s.design, o.sql); err != nil {
					return fail(err)
				}
			}
		case kindPool:
			cs.dbs = in.dbs[c*s.dbsPerClient : (c+1)*s.dbsPerClient]
			for _, sv := range cs.dbs {
				conn, err := sv.dial()
				if err != nil {
					return fail(err)
				}
				cs.conns = append(cs.conns, conn)
			}
		}
		// One warm-up op per client fills caches and lazy set-up; it is part
		// of set-up time, not of latency, and is checked like any other op.
		r := in.runOp(cs, false)
		if r.err != nil {
			return fail(fmt.Errorf("warm-up op: %w", r.err))
		}
		in.results = append(in.results, r)
	}
	runtime.GC()
	in.setup = time.Since(start)
	return in, nil
}

func stmtName(i int) string { return fmt.Sprintf("q%d", i) }

func fnvName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// warm enriches what the workload's queries read, through the loose design,
// then reads the stored labels back and computes the reference answers from
// them with matches. A sample of the labels is checked against the models
// themselves, and the read-back must return every row once.
func (in *instance) warm() error {
	s, sv := in.spec, in.dbs[0]
	enrichSQL := "SELECT id FROM tweets WHERE sentiment = 0 AND topic = 0"
	if s.kind == kindIngest {
		enrichSQL = in.ops[0].sql // only the fixed query's window: mostly enriched
	}
	if _, err := sv.db.QueryLoose(enrichSQL); err != nil {
		return err
	}
	if err := in.readLabels(sv, s.kind != kindIngest); err != nil {
		return err
	}
	for _, o := range in.ops {
		in.expected = append(in.expected, in.reference(o, sv.rows))
	}
	return nil
}

// readLabels loads in.labels with the (sentiment, topic) the database now
// stores per tuple id, -1 for NULL. Every row must come back exactly once,
// and a sample of the labels must equal the models' own predictions.
func (in *instance) readLabels(sv *served, allEnriched bool) error {
	back, err := sv.db.Query("SELECT id, sentiment, topic FROM tweets")
	if err != nil {
		return err
	}
	in.labels = make(map[int64][2]int, back.Len())
	for i := 0; i < back.Len(); i++ {
		v, l := back.At(i), [2]int{-1, -1}
		if !v[1].IsNull() {
			l[0] = int(v[1].Int())
		}
		if !v[2].IsNull() {
			l[1] = int(v[2].Int())
		}
		in.labels[v[0].Int()] = l
	}
	if back.Len() != len(sv.rows) || len(in.labels) != len(sv.rows) {
		return fmt.Errorf("read-back returned %d rows, %d distinct, of %d", back.Len(), len(in.labels), len(sv.rows))
	}
	return in.checkLabels(sv.rows, allEnriched)
}

// reference answers op o over rows (in insertion order) from in.labels.
func (in *instance) reference(o op, rows []tweet) answer {
	h, n := newHasher(), 0
	for _, t := range rows {
		l := in.labels[t.id]
		if in.spec.matches(o, t.hour, l[0], l[1]) {
			h.add(t.id)
			h.add(t.hour)
			n++
		}
	}
	return answer{n: n, sum: h.h}
}

// predict is the label the database must hold for a tuple once every
// function of the attribute's family ran: the argmax of the functions'
// averaged distributions, as the default determinizer defines it.
func predict(fns []enrichdb.Function, emb []float64) int {
	var sum []float64
	for _, f := range fns {
		p := f.Model.PredictProba(emb)
		if sum == nil {
			sum = make([]float64, len(p))
		}
		for i, v := range p {
			sum[i] += v
		}
	}
	best := 0
	for i, v := range sum {
		if v > sum[best] {
			best = i
		}
	}
	return best
}

// checkLabels compares in.labels with the models' own predictions on a
// sample of the rows (every 64th). With all set, unenriched labels (-1) are
// errors too.
func (in *instance) checkLabels(rows []tweet, all bool) error {
	for i := 0; i < len(rows); i += 64 {
		t := rows[i]
		l := in.labels[t.id]
		want := [2]int{predict(in.models.sentiment, t.emb), predict(in.models.topic, t.emb)}
		for k := range want {
			if l[k] == -1 && !all {
				continue
			}
			if l[k] != want[k] {
				return fmt.Errorf("tuple %d attribute %d holds %d, the model says %d", t.id, k, l[k], want[k])
			}
		}
	}
	return nil
}

func (in *instance) close() {
	for _, cs := range in.clients {
		for _, c := range cs.conns {
			c.Close()
		}
	}
	for _, sv := range in.dbs {
		sv.close()
	}
}

// exhausted reports whether a pool client has queried every hour of every
// database it owns.
func (in *instance) exhausted(cs *clientState) bool {
	return in.spec.kind == kindPool && cs.seq >= len(cs.dbs)*len(in.ops)
}

// runOp runs the client's next op and times it. sampled sets the wire trace
// flag, which makes the server collect spans and send a Profile frame.
func (in *instance) runOp(cs *clientState, sampled bool) opResult {
	ctx := context.Background()
	tc := wire.TraceContext{Sampled: sampled}
	r := opResult{client: cs.id, seq: cs.seq}
	cs.seq++
	var res *client.Result
	switch in.spec.kind {
	case kindShared:
		r.stmt = (r.seq*len(in.clients) + cs.id) % len(in.ops)
		r.start = time.Now()
		res, r.err = cs.conns[0].ExecuteTrace(ctx, stmtName(r.stmt), tc)
		r.lat = time.Since(r.start)
		r.ttq = r.lat
	case kindPool:
		d, o := r.seq/len(in.ops), in.ops[r.seq%len(in.ops)]
		var onEpoch func(wire.Epoch)
		if in.spec.design == wire.DesignProgressive {
			truth := make(map[int64]bool)
			for _, t := range cs.dbs[d].rows {
				if in.spec.matches(o, t.hour, t.sent, t.topic) {
					truth[t.id] = true
				}
			}
			in.truth.Store(&truth)
			r.truthN = len(truth)
			onEpoch = func(e wire.Epoch) {
				if r.ttq == 0 && e.Quality >= targetF1 {
					r.ttq = time.Since(r.start)
				}
			}
		}
		r.start = time.Now()
		res, r.err = cs.conns[d].QueryTrace(ctx, in.spec.design, o.sql, tc, onEpoch, nil)
		r.lat = time.Since(r.start)
		if onEpoch == nil {
			r.ttq = r.lat
		} else if r.err == nil {
			r.scoreEpochs(res.Epochs)
		}
	case kindIngest:
		sv, o := in.dbs[0], in.ops[0]
		batch := in.nextBatch(o)
		r.start = time.Now()
		r.err = insertTweets(sv.db, batch)
		var conn *client.Client
		if r.err == nil {
			t0 := time.Now()
			conn, r.err = sv.dial()
			r.dial = time.Since(t0)
		}
		if r.err == nil {
			res, r.err = conn.QueryTrace(ctx, in.spec.design, o.sql, tc, nil, nil)
			conn.Close()
		}
		r.lat = time.Since(r.start)
		r.ttq = r.lat
	}
	if r.err == nil {
		if in.spec.design == wire.DesignProgressive {
			// The maintained view lists rows in the order they entered the
			// answer; the reference is in insertion order.
			sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0].Int() < res.Rows[j][0].Int() })
		}
		r.got = answerOf(res.Rows)
		r.enrich, r.wall, r.profile = res.Enrichments, res.Wall, res.Profile
		if sampled {
			r.epochFrames = res.Epochs
		}
	}
	return r
}

// scoreEpochs checks the progressive contract on one op's epoch reports.
func (r *opResult) scoreEpochs(eps []wire.Epoch) {
	r.qualityOK = len(eps) > 0
	prev, best := 0.0, 0.0
	for i, e := range eps {
		if e.Quality < best-qualitySlack {
			r.qualityOK = false
		}
		prev, best = e.Quality, max(best, e.Quality)
		if r.epochsToTarget == 0 && e.Quality >= targetF1 {
			r.epochsToTarget = i + 1
		}
	}
	r.finalF1 = prev
}

// nextBatch generates an ingest_mix batch: the first half inside o's hour
// window, the second half outside it, classes in rotation.
func (in *instance) nextBatch(o op) []tweet {
	batch := make([]tweet, ingestBatch)
	for i := range batch {
		c := (len(in.batches)*ingestBatch + i) % combos
		hour := o.a + int64(in.rng.Intn(in.spec.window))
		if i >= ingestBatch/2 {
			hour = (o.b + 1 + int64(in.rng.Intn(in.spec.hours-in.spec.window))) % int64(in.spec.hours)
		}
		sent, topic := c%sentDomain, c/sentDomain
		batch[i] = tweet{id: in.nextID, hour: hour, region: int64(in.rng.Intn(numRegions)),
			emb: embedding(in.rng, sent, topic), sent: sent, topic: topic}
		in.nextID++
	}
	in.batches = append(in.batches, batch)
	return batch
}
