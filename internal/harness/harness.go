// Package harness is a deterministic, seed-driven workload runner for the
// concurrent serving layer: N writer goroutines commit inserts, fixed-column
// updates and deletes through the database's commit path while M query
// sessions run snapshot-isolated loose, tight, plain and progressive queries
// through db.Session(). Every committed write is recorded with its commit
// version and every snapshot-tagged query result is recorded verbatim, so
// two oracles can audit the run after the fact:
//
//   - serial-replay equivalence (oracle.go): the committed history is
//     re-executed single-threaded in commit order on a fresh database, and
//     each recorded loose/tight/plain query re-runs at exactly its snapshot
//     version — the results must be byte-identical, or snapshot isolation
//     leaked concurrent writes into a query answer;
//   - monotone enrichment (observer in this file + counter audit): a
//     derived attribute, once determined for a given tuple image, never
//     reverts to NULL and never changes value while that image persists,
//     and the enrichment executions across all sessions never exceed the
//     dedup-optimal count (one stored run per triplet-generation, plus runs
//     a concurrent commit made stale).
//
// Runs are deterministic per seed up to goroutine interleaving; the recorded
// history pins down the interleaving that actually happened, which is what
// the replay oracle consumes. On failure the harness reports the seed and a
// delta-debugged minimal op trace (minimize.go).
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb"
)

// relation is the single workload relation. `feature` is the enrichment
// input; its first element is a per-tuple revision counter the writers bump
// on every fixed update, so (id, rev) uniquely names one tuple image and the
// observer can check enrichment monotonicity per image.
const relation = "events"

// domain is the derived attribute's class count.
const domain = 3

// groups is the value range of the fixed `grp` column queries filter on.
const groups = 4

// Config parameterizes one harness run. The zero value of a field selects
// the default noted on it.
type Config struct {
	// Seed drives every random choice in the workload.
	Seed int64
	// Writers is the number of concurrent writer goroutines (default 2).
	Writers int
	// Sessions is the number of concurrent query-session goroutines
	// (default 2).
	Sessions int
	// OpsPerWriter is how many writes each writer commits (default 25).
	OpsPerWriter int
	// QueriesPerSession is how many queries each session goroutine runs
	// (default 8). Designs cycle deterministically through loose, tight,
	// progressive and plain, so every path runs when it is >= 4.
	QueriesPerSession int
	// InitialRows is the table size before concurrency starts (default 24).
	InitialRows int
	// MaxSessions bounds concurrently open sessions (admission control);
	// 0 leaves admission unlimited.
	MaxSessions int
	// QueueTimeout is the admission queue timeout (default 5s when
	// MaxSessions > 0). A session goroutine whose admission times out
	// counts the rejection and moves on — the workload never deadlocks on
	// a full database.
	QueueTimeout time.Duration
	// SkipReplay disables the serial-replay oracle (the soak loop uses it
	// to bound runtime on huge histories; unit runs keep it on).
	SkipReplay bool

	// Shards >= 2 runs the workload on a sharded store (OpenSharded); 0 or
	// 1 keeps the classic unsharded database. Replay uses the same shard
	// count, so the serial-replay oracle holds per shard configuration.
	Shards int
	// Remote starts one in-process enrichment server (ServeEnrichment)
	// sharing the database's models and drives the loose design through it
	// (ConnectEnrichmentServer), as the paper's loose design does.
	Remote bool
	// SlowServer, when positive, adds that much latency to every batch the
	// server executes (requires Remote). Pure latency: the client's call
	// deadline is far longer, so nothing may degrade.
	SlowServer time.Duration
	// KillServer closes the server mid-run, once killAfterLoose loose
	// queries have completed (requires Remote). Later loose enrichments
	// fail; degraded loose queries (FailedEnrichments > 0) are tolerated and
	// counted, not failed.
	KillServer bool
}

// The kill plan fires on workload progress, not on a timer: killAfterLoose
// loose queries complete against the live server first, so the remote path
// has run, and the kill's fresh rows (ids from killRowBase, one per group)
// give the loose query after it work for the dead server.
const (
	killAfterLoose = 2
	killRowBase    = 900_000
)

// faultsActive reports whether a fault plan that can fail enrichments is
// running — only then are degraded loose queries tolerated.
func (c Config) faultsActive() bool { return c.KillServer }

func (c Config) withDefaults() Config {
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.Sessions <= 0 {
		c.Sessions = 2
	}
	if c.OpsPerWriter <= 0 {
		c.OpsPerWriter = 25
	}
	if c.QueriesPerSession <= 0 {
		c.QueriesPerSession = 8
	}
	if c.InitialRows <= 0 {
		c.InitialRows = 24
	}
	if c.MaxSessions > 0 && c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	return c
}

// Report summarizes a run that passed both oracles.
type Report struct {
	Seed             int64
	Commits          int    // committed write ops (including initial load)
	Queries          int    // queries executed across all sessions
	Replayed         int    // snapshot-tagged queries the replay oracle verified
	Progressive      int    // progressive queries (read-committed, not replayed)
	Rejected         int64  // session admissions rejected by queue timeout
	Enrichments      int64  // enrichment function runs across all sessions
	StaleDrops       int64  // runs dropped because a commit superseded them
	ObservedImages   int    // distinct (id, rev) images the observer audited
	MaxObservedLabel int64  // distinct labels seen (sanity: workload exercised enrichment)
	Version          uint64 // final commit version

	Shards        int   // shard replicas the run used (1 = unsharded)
	Degraded      int64 // loose queries with failed enrichments tolerated under fault plans
	ServerBatches int64 // batches the enrichment server executed (remote.server.batches)
}

// op is one committed write, replayable on a fresh database.
type op struct {
	Kind string // "insert", "update" (fixed feature column), "delete"
	ID   int64
	Grp  int64
	Rev  int64
	Vec  []float64
}

func (o op) String() string {
	switch o.Kind {
	case "insert":
		return fmt.Sprintf("insert id=%d grp=%d vec=%v", o.ID, o.Grp, o.Vec)
	case "update":
		return fmt.Sprintf("update id=%d rev=%d vec=%v", o.ID, o.Rev, o.Vec)
	default:
		return fmt.Sprintf("delete id=%d", o.ID)
	}
}

// committed is an op tagged with the commit version it landed at.
type committed struct {
	Version uint64
	Op      op
}

// recordedQuery is one snapshot-tagged query and the exact answer the
// concurrent run produced for it.
type recordedQuery struct {
	Version uint64
	Design  string // "plain", "loose", "tight"
	SQL     string
	Result  string // canonical rendering (canon in oracle.go)
	Seq     int    // recording order, to keep sorting stable
}

// stepClassifier is a deterministic pure-function classifier: the class is
// an FNV hash of the feature bits, so equal features always yield equal
// distributions — the property both oracles lean on.
type stepClassifier struct{}

func (stepClassifier) Name() string                            { return "harness-step" }
func (stepClassifier) Fit(_ [][]float64, _ []int, _ int) error { return nil }
func (stepClassifier) PredictProba(x []float64) []float64 {
	h := uint64(1469598103934665603)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	out := make([]float64, domain)
	for i := range out {
		out[i] = 0.05
	}
	out[h%domain] = 1 - 0.05*(domain-1)
	return out
}

// newDB builds the workload database: schema, one deterministic enrichment
// function, and admission control per the config. Replay uses the same
// constructor, so the live and replayed databases are identical up to the
// op history applied to them.
func newDB(cfg Config) (*enrichdb.DB, error) {
	var db *enrichdb.DB
	if cfg.Shards > 1 {
		var err error
		db, err = enrichdb.OpenSharded(enrichdb.ShardConfig{Shards: cfg.Shards})
		if err != nil {
			return nil, err
		}
	} else {
		db = enrichdb.Open()
	}
	err := db.CreateRelation(relation, []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "feature", Kind: enrichdb.KindVector},
		{Name: "grp", Kind: enrichdb.KindInt},
		{Name: "label", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "feature", Domain: domain},
	})
	if err != nil {
		return nil, err
	}
	err = db.RegisterEnrichment(relation, "label", enrichdb.Function{
		Name: "step", Model: stepClassifier{}, Quality: 0.9,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxSessions > 0 {
		db.SetServing(enrichdb.ServingConfig{
			MaxSessions:  cfg.MaxSessions,
			QueueTimeout: cfg.QueueTimeout,
		})
	}
	return db, nil
}

// applyOp replays one committed op through the public write API.
func applyOp(db *enrichdb.DB, o op) error {
	switch o.Kind {
	case "insert":
		_, err := db.Insert(relation, o.ID,
			enrichdb.Int(o.ID), enrichdb.Vector(o.Vec), enrichdb.Int(o.Grp), enrichdb.Null)
		return err
	case "update":
		return db.Update(relation, o.ID, "feature", enrichdb.Vector(o.Vec))
	case "delete":
		return db.Delete(relation, o.ID)
	default:
		return fmt.Errorf("harness: unknown op kind %q", o.Kind)
	}
}

// runState is the shared state of one live run.
type runState struct {
	cfg Config
	db  *enrichdb.DB

	// logMu serializes the op-apply + version-read + append triple so the
	// recorded history is exactly the commit order. Writes already
	// serialize on the database's commit mutex, so this costs no real
	// concurrency; sessions never take it.
	logMu sync.Mutex
	ops   []committed

	qMu     sync.Mutex
	queries []recordedQuery

	obsMu sync.Mutex
	obs   map[obsKey]enrichdb.Value

	rejected    atomic.Int64
	progressive atomic.Int64
	degraded    atomic.Int64
	looseDone   atomic.Int64 // completed loose queries, the kill plan's trigger
	killed      atomic.Bool

	// server is the enrichment server a Remote run started (nil otherwise);
	// the kill plan closes it.
	server *enrichdb.EnrichmentServerHandle

	failMu     sync.Mutex
	violations []string
}

type obsKey struct {
	id  int64
	rev int64
}

func (h *runState) fail(format string, args ...any) {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

func (h *runState) failed() bool {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	return len(h.violations) > 0
}

// commit applies the op and appends it to the versioned history.
func (h *runState) commit(o op) error {
	h.logMu.Lock()
	defer h.logMu.Unlock()
	if err := applyOp(h.db, o); err != nil {
		return err
	}
	h.ops = append(h.ops, committed{Version: h.db.Version(), Op: o})
	return nil
}

func (h *runState) record(q recordedQuery) {
	h.qMu.Lock()
	defer h.qMu.Unlock()
	q.Seq = len(h.queries)
	h.queries = append(h.queries, q)
}

// newVec builds a feature vector whose first element is the image revision;
// the remaining elements are random but exactly representable, so replayed
// vectors are bit-identical.
func newVec(rng *rand.Rand, rev int64) []float64 {
	return []float64{float64(rev), float64(rng.Intn(1 << 20)), float64(rng.Intn(1 << 20))}
}

// writer commits OpsPerWriter randomized writes over its own id range
// (writer w owns ids (w+1)*1e6+...), so op validity is independent of
// cross-writer interleaving.
func (h *runState) writer(w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(w)*7919 + 1))
	nextID := int64(w+1) * 1_000_000
	var live []int64
	rev := make(map[int64]int64)
	for i := 0; i < h.cfg.OpsPerWriter && !h.failed(); i++ {
		var o op
		switch p := rng.Float64(); {
		case len(live) == 0 || p < 0.45:
			nextID++
			o = op{Kind: "insert", ID: nextID, Grp: int64(rng.Intn(groups)), Vec: newVec(rng, 0)}
			live = append(live, nextID)
		case p < 0.85:
			id := live[rng.Intn(len(live))]
			rev[id]++
			o = op{Kind: "update", ID: id, Rev: rev[id], Vec: newVec(rng, rev[id])}
		default:
			idx := rng.Intn(len(live))
			id := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			o = op{Kind: "delete", ID: id}
		}
		if err := h.commit(o); err != nil {
			h.fail("writer %d: %s: %v", w, o, err)
			return
		}
	}
}

// designs is the deterministic per-session rotation of query paths.
var designs = []string{"loose", "tight", "progressive", "plain"}

// libraryDesign maps the rotation names onto Session.Run's designs.
var libraryDesign = map[string]enrichdb.Design{
	"plain": enrichdb.PlainDesign, "loose": enrichdb.LooseDesign, "tight": enrichdb.TightDesign,
	"progressive": enrichdb.ProgressiveDesign,
}

// randQuery picks a query template with randomized constants.
func randQuery(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("SELECT id, label FROM events WHERE label = %d", rng.Intn(domain))
	case 1:
		return fmt.Sprintf("SELECT id, grp FROM events WHERE grp = %d AND label = %d",
			rng.Intn(groups), rng.Intn(domain))
	default:
		return fmt.Sprintf("SELECT id FROM events WHERE label = %d AND grp = %d",
			rng.Intn(domain), rng.Intn(groups))
	}
}

// session runs QueriesPerSession queries, each in its own snapshot-isolated
// session, rotating through the four designs.
func (h *runState) session(s int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 100_000 + int64(s)*104729))
	for i := 0; i < h.cfg.QueriesPerSession && !h.failed(); i++ {
		design := designs[(s+i)%len(designs)]
		sql := randQuery(rng)
		progressiveSeed := rng.Int63() // drawn unconditionally: keeps the rng stream design-independent
		if design == "loose" {
			h.maybeKill()
		}
		sess, err := h.db.Session()
		if errors.Is(err, enrichdb.ErrSessionTimeout) {
			h.rejected.Add(1)
			continue
		}
		if err != nil {
			h.fail("session %d: open: %v", s, err)
			return
		}
		obs := enrichdb.QueryObs{Progressive: enrichdb.ProgressiveOptions{
			Seed:        progressiveSeed,
			EpochBudget: 2 * time.Millisecond,
			MaxEpochs:   25,
		}}
		// Only loose can report failed enrichments; plain and tight always
		// take the last arm. A progressive answer depends on its epochs, so
		// it is counted, not replayed.
		res, err := sess.Run(context.Background(), libraryDesign[design], sql, obs)
		if design == "loose" {
			h.looseDone.Add(1)
		}
		switch {
		case err != nil:
			h.fail("session %d: %s %q: %v", s, design, sql, err)
		case design == "progressive":
			h.progressive.Add(1)
		case res.FailedEnrichments > 0 && !h.cfg.faultsActive():
			h.fail("session %d: %s %q: %d failed enrichments (no faults injected): %v",
				s, design, sql, res.FailedEnrichments, res.EnrichErrors)
		case res.FailedEnrichments > 0:
			// Under a fault plan the NULL-on-failure answer is legitimate
			// degradation, not snapshot state — tolerate and don't replay.
			h.degraded.Add(1)
		default:
			h.record(recordedQuery{Version: sess.Version(), Design: design, SQL: sql, Result: canon(res.Rows)})
		}
		sess.Close()
	}
}

// maybeKill is the kill fault plan, run before each loose query opens its
// session. The first loose query to start after killAfterLoose have
// completed closes the server (Close drains in-flight batches; it is
// idempotent, so the deferred db.Close composes with it), then commits one
// fresh row per group: whichever template that query drew, its probe finds
// an unenriched row to send to the dead server.
func (h *runState) maybeKill() {
	if !h.cfg.KillServer || h.looseDone.Load() < killAfterLoose || !h.killed.CompareAndSwap(false, true) {
		return
	}
	if err := h.server.Close(); err != nil {
		h.fail("kill plan: %v", err)
		return
	}
	for g := int64(0); g < groups; g++ {
		o := op{Kind: "insert", ID: killRowBase + g, Grp: g, Vec: []float64{0, float64(g), 0}}
		if err := h.commit(o); err != nil {
			h.fail("kill plan: %s: %v", o, err)
			return
		}
	}
}

// observe scans the live table once and folds every (id, rev) -> label
// observation into the monotonicity map: once a label is non-NULL for an
// image it must never be observed NULL or different for that image again.
// It also audits the enrichment marks against the state (CheckEnrichmentMarks).
func (h *runState) observe() {
	if err := h.db.CheckEnrichmentMarks(); err != nil {
		h.fail("observer: %v", err)
	}
	rows, err := h.db.Query("SELECT id, feature, label FROM events")
	if err != nil {
		h.fail("observer: %v", err)
		return
	}
	for i := 0; i < rows.Len(); i++ {
		vals := rows.At(i)
		vec := vals[1].Vector()
		if len(vec) == 0 {
			continue
		}
		key := obsKey{id: vals[0].Int(), rev: int64(vec[0])}
		label := vals[2]
		h.obsMu.Lock()
		prev, seen := h.obs[key]
		switch {
		case !seen || prev.IsNull():
			h.obs[key] = label
		case label.IsNull():
			h.fail("monotone violation: %s id=%d rev=%d label reverted %s -> NULL",
				relation, key.id, key.rev, prev)
		case label.String() != prev.String():
			h.fail("first-write-wins violation: %s id=%d rev=%d label changed %s -> %s",
				relation, key.id, key.rev, prev, label)
		}
		h.obsMu.Unlock()
	}
}

// Run executes the workload and audits it with both oracles. The returned
// error carries the seed and, for replay failures, a minimized op trace.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if (cfg.SlowServer > 0 || cfg.KillServer) && !cfg.Remote {
		return nil, errors.New("harness: SlowServer and KillServer need Remote")
	}
	db, err := newDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	h := &runState{cfg: cfg, db: db, obs: make(map[obsKey]enrichdb.Value)}

	// Remote: start one enrichment server and route the loose design
	// through it. The server is wired here rather than in newDB so the
	// replay database enriches locally — the classifier is deterministic, so
	// local and remote answers agree and the replay oracle still holds.
	if cfg.Remote {
		h.server, err = db.ServeEnrichment("127.0.0.1:0",
			enrichdb.EnrichmentServerConfig{FaultLatency: cfg.SlowServer})
		if err != nil {
			return nil, fmt.Errorf("harness: enrichment server: %w", err)
		}
		if err := db.ConnectEnrichmentServer(h.server.Addr(), enrichdb.EnrichmentClientConfig{}); err != nil {
			return nil, fmt.Errorf("harness: enrichment server dial: %w", err)
		}
	}

	// Initial load, committed through the same recorded path as writer ops.
	loadRng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.InitialRows; i++ {
		o := op{Kind: "insert", ID: int64(i + 1), Grp: int64(loadRng.Intn(groups)), Vec: newVec(loadRng, 0)}
		if err := h.commit(o); err != nil {
			return nil, fmt.Errorf("harness: initial load: %w", err)
		}
	}

	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopObs:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); h.writer(w) }(w)
	}
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) { defer wg.Done(); h.session(s) }(s)
	}
	wg.Wait()
	close(stopObs)
	obsWG.Wait()
	h.observe() // final pass over the settled table

	rep := &Report{
		Seed:        cfg.Seed,
		Commits:     len(h.ops),
		Queries:     len(h.queries),
		Progressive: int(h.progressive.Load()),
		Rejected:    h.rejected.Load(),
		Version:     db.Version(),
		Shards:      db.Shards(),
		Degraded:    h.degraded.Load(),
	}
	labels := make(map[string]bool)
	h.obsMu.Lock()
	rep.ObservedImages = len(h.obs)
	for _, v := range h.obs {
		if !v.IsNull() {
			labels[v.String()] = true
		}
	}
	h.obsMu.Unlock()
	rep.MaxObservedLabel = int64(len(labels))

	// Oracle 2b: executions never exceed the dedup-optimal count. Every
	// locally executed run either became the stored output for its
	// (triplet, generation) or was dropped because a commit superseded the
	// generation; anything beyond that is duplicated work the singleflight
	// should have absorbed.
	reg := db.Telemetry()
	runs := reg.Counter("enrich.udf_runs").Value()
	stores := reg.Counter("enrich.first_stores").Value()
	drops := reg.Counter("enrich.stale_drops").Value()
	rep.Enrichments = runs
	rep.StaleDrops = drops
	rep.ServerBatches = reg.Counter("remote.server.batches").Value()
	// The bound holds on every plan, killed servers included: the server
	// executes through this database's manager, so a batch the client
	// retries finds the first attempt's stored output, and a batch the dead
	// server rejected executed nothing.
	if runs > stores+drops {
		h.fail("dedup violation: %d function runs > %d first-stores + %d stale-drops",
			runs, stores, drops)
	}

	if len(h.violations) > 0 {
		return rep, fmt.Errorf("harness seed %d: %d violation(s):\n%s",
			cfg.Seed, len(h.violations), strings.Join(h.violations, "\n"))
	}

	// Oracle 1: serial-replay equivalence for snapshot-tagged queries.
	if !cfg.SkipReplay {
		replayed, err := replayCheck(cfg, h.ops, h.queries)
		rep.Replayed = replayed
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// sortQueriesByVersion orders recorded queries by snapshot version, keeping
// recording order among equal versions.
func sortQueriesByVersion(qs []recordedQuery) []recordedQuery {
	out := append([]recordedQuery(nil), qs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
