// Package enrichdb is a relational data management system that supports
// complex enrichment of data at query time, reproducing the system of
// "Supporting Complex Query Time Enrichment For Analytics" (EDBT 2023).
//
// Relations mix fixed attributes with derived attributes whose values are
// produced by ML enrichment functions. Instead of enriching at ingestion,
// enrichdb enriches lazily during query processing, in either of the paper's
// two architectures:
//
//   - the loose design (QueryLoose): probe queries compute the minimal tuple
//     set to enrich, an enrichment server (in process or over TCP) enriches
//     it in batch, and the query then runs normally;
//   - the tight design (QueryTight): the query is rewritten so predicates
//     over derived attributes invoke UDFs that enrich lazily inside
//     predicate evaluation, with short-circuiting avoiding needless work.
//
// Both designs come in progressive form (QueryProgressive): execution is
// split into cost-budgeted epochs over function families with a cost/quality
// tradeoff, and an incrementally maintained view refines the answer as
// enrichment proceeds.
package enrichdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/loose"
	"enrichdb/internal/loose/remote"
	"enrichdb/internal/ml"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// Value is a database value (NULL, INT, FLOAT, TEXT, BOOL or VECTOR).
type Value = types.Value

// Null is the NULL value.
var Null = types.Null

// Value constructors.
var (
	Int    = types.NewInt
	Float  = types.NewFloat
	String = types.NewString
	Bool   = types.NewBool
	Vector = types.NewVector
)

// Kind is a column type.
type Kind = types.Kind

// Column kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
	KindVector = types.KindVector
)

// Column declares one attribute of a relation. Derived attributes require a
// FeatureCol (the fixed column whose value feeds the enrichment functions)
// and a Domain (the number of class labels).
type Column struct {
	Name       string
	Kind       Kind
	Derived    bool
	FeatureCol string
	Domain     int
}

// Classifier is a trainable probabilistic classifier usable as an
// enrichment function. The internal model zoo (NewGNB, NewRandomForest, …)
// satisfies it, as can user implementations.
type Classifier = ml.Classifier

// DB is an enrichdb database instance.
//
// A DB is safe for concurrent use. Writes (Insert, Update, Delete) serialize
// through a commit path that stamps each commit with a monotonic version;
// queries on the DB itself read the live tables (read-committed), while
// Session provides snapshot-isolated reads over a frozen version. Derived
// values written back by query-time enrichment are not commits: they carry
// no version and are guarded by tuple generations instead.
type DB struct {
	store storage.Store
	mgr   *enrich.Manager

	// commitMu serializes the write path; version is the commit counter it
	// advances. Version reads are atomic so sessions can tag snapshots
	// without taking the commit lock.
	commitMu sync.Mutex
	version  atomic.Uint64

	serving atomic.Pointer[admission]

	enricher loose.Enricher
	servers  []*remote.Server
	tracer   *telemetry.Tracer

	// TightInvokeOverhead adds an artificial per-UDF-call cost to the tight
	// design, emulating a heavier DBMS's per-row UDF invocation overhead.
	TightInvokeOverhead time.Duration

	// NoAdaptive disables adaptive cost-based optimization (DESIGN §14):
	// runtime-statistics feedback, cheapest-rejection-first conjunct
	// reordering, observed-cardinality join ordering and benefit-ranked
	// progressive re-planning. With it set, every query runs exactly the
	// static plan the pre-adaptive engine produced. Ablation knob, mirrors
	// the NoVectorScan family.
	NoAdaptive bool

	// runtimeStats is the shared EWMA store every query on this DB feeds and
	// consults. It carries observations across queries — the feedback loop
	// that lets a later query start from the selectivities an earlier one
	// measured.
	runtimeStats *stats.Store
}

// Open creates an empty database.
func Open() *DB {
	store := storage.NewDB()
	mgr := enrich.NewManager()
	return &DB{
		store:        store,
		mgr:          mgr,
		enricher:     &loose.LocalEnricher{Mgr: mgr},
		runtimeStats: stats.NewStore(),
	}
}

// CreateRelation defines a relation.
func (db *DB) CreateRelation(name string, cols []Column) error {
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cc[i] = catalog.Column{
			Name: c.Name, Kind: c.Kind, Derived: c.Derived,
			FeatureCol: c.FeatureCol, Domain: c.Domain,
		}
	}
	schema, err := catalog.NewSchema(name, cc)
	if err != nil {
		return err
	}
	_, err = db.store.CreateBase(schema)
	return err
}

// CreateIndex builds a hash index on a fixed column.
func (db *DB) CreateIndex(relation, column string) error {
	tbl, err := db.store.BaseTable(relation)
	if err != nil {
		return err
	}
	return tbl.CreateIndex(column)
}

// Insert stores a tuple; values are positional per the relation's columns.
// Derived attributes should be inserted as Null (they are enriched at query
// time). A zero id auto-assigns.
func (db *DB) Insert(relation string, id int64, values ...Value) (int64, error) {
	tbl, err := db.store.BaseTable(relation)
	if err != nil {
		return 0, err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	tid, err := tbl.Insert(&types.Tuple{ID: id, Vals: values})
	if err != nil {
		return 0, err
	}
	if id != 0 && db.mgr.GenOf(relation, tid) != 0 {
		// A caller-chosen id reuses a deleted tuple's (Delete left its state
		// at an advanced generation): start over at the new tuple's, or its
		// enrichment would never be kept.
		db.mgr.ResetTupleGen(relation, tid, 0)
	}
	db.version.Add(1)
	return tid, nil
}

// InsertEnriched stores a tuple and eagerly enriches every derived
// attribute with its full function family before returning — the
// at-ingestion strategy the paper's Baseline uses. It is provided for
// completeness and for measuring the ingestion-rate cost of eager
// enrichment; the query-time designs exist to avoid it.
func (db *DB) InsertEnriched(relation string, id int64, values ...Value) (int64, error) {
	tid, err := db.Insert(relation, id, values...)
	if err != nil {
		return 0, err
	}
	tbl, err := db.store.Table(relation)
	if err != nil {
		return 0, err
	}
	schema := tbl.Schema()
	tu := tbl.Get(tid)
	for _, attr := range schema.DerivedCols() {
		fam := db.mgr.Family(relation, attr)
		if fam == nil {
			continue // no functions registered for this attribute
		}
		col := schema.Col(attr)
		feature := tu.Vals[schema.ColIndex(col.FeatureCol)].Vector()
		for _, fn := range fam.Functions {
			if _, err := db.mgr.Execute(relation, tid, attr, fn.ID, feature); err != nil {
				return 0, err
			}
		}
		v, err := db.mgr.Determine(relation, tid, attr, feature)
		if err != nil {
			return 0, err
		}
		if _, err := tbl.Update(tid, attr, v); err != nil {
			return 0, err
		}
	}
	return tid, nil
}

// Update replaces one column of one tuple. Updating any column of a tuple
// resets its enrichment state (§3.3.5 of the paper): stale derived values
// must be recomputed.
func (db *DB) Update(relation string, id int64, column string, v Value) error {
	tbl, err := db.store.BaseTable(relation)
	if err != nil {
		return err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	schema := tbl.Schema()
	if c := schema.Col(column); c != nil && !c.Derived {
		if tbl.Get(id) == nil {
			return fmt.Errorf("enrichdb: %s has no tuple %d", relation, id)
		}
		// A fixed-attribute write supersedes the tuple's enrichment (§3.3.5).
		// Invalidate the shared state first, at the generation the commit
		// installs, so enrichment of the old image arriving in the window is
		// dropped and enrichment of the new image is never invalidated; then
		// swap the new fixed value and the cleared derived values in as one
		// atomic image (readers never see a torn half-updated tuple).
		db.mgr.ResetTupleGen(relation, id, tbl.Gen(id)+1)
		if _, err := tbl.CommitFixed(id, column, v); err != nil {
			return err
		}
	} else {
		if _, err := tbl.Update(id, column, v); err != nil {
			return err
		}
	}
	db.version.Add(1)
	return nil
}

// Delete removes a tuple and its enrichment state.
func (db *DB) Delete(relation string, id int64) error {
	tbl, err := db.store.BaseTable(relation)
	if err != nil {
		return err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	old := tbl.Delete(id)
	if old == nil {
		return fmt.Errorf("enrichdb: %s has no tuple %d", relation, id)
	}
	// Sessions opened before this commit still see the tuple and may be
	// enriching it right now. Clearing its state at an advanced generation,
	// as Update does, makes their writes stale and their determinization a
	// pure function of their own snapshot; clearing it in place would let
	// them read the emptied state as "determined: NULL".
	db.mgr.ResetTupleGen(relation, id, old.Gen+1)
	db.version.Add(1)
	return nil
}

// Function couples a trained classifier with the metadata the progressive
// planner uses.
type Function struct {
	// Name identifies the function in reports; defaults to the model name.
	Name string
	// Model is the trained classifier. Its PredictProba must return a
	// distribution over the derived attribute's domain.
	Model Classifier
	// Quality is the function's estimated accuracy (for SB(FO) ordering).
	Quality float64
	// ExtraCost adds an artificial per-object cost, e.g. to emulate a
	// heavyweight model.
	ExtraCost time.Duration
}

// RegisterEnrichment attaches a function family to a derived attribute. All
// families of a relation must be registered before the first enrichment.
// The determinizer defaults to averaging the executed functions'
// distributions (see WithDeterminizer options on Register* variants below).
func (db *DB) RegisterEnrichment(relation, attr string, fns ...Function) error {
	return db.registerEnrichment(relation, attr, enrich.AvgProb{}, fns...)
}

// RegisterEnrichmentMajority is RegisterEnrichment with a majority-vote
// determinization function.
func (db *DB) RegisterEnrichmentMajority(relation, attr string, fns ...Function) error {
	return db.registerEnrichment(relation, attr, enrich.MajorityVote{}, fns...)
}

func (db *DB) registerEnrichment(relation, attr string, det enrich.Determinizer, fns ...Function) error {
	schema := db.store.Catalog().Schema(relation)
	if schema == nil {
		return fmt.Errorf("enrichdb: unknown relation %s", relation)
	}
	col := schema.Col(attr)
	if col == nil || !col.Derived {
		return fmt.Errorf("enrichdb: %s.%s is not a derived attribute", relation, attr)
	}
	efs := make([]*enrich.Function, len(fns))
	for i, f := range fns {
		name := f.Name
		if name == "" && f.Model != nil {
			name = f.Model.Name()
		}
		efs[i] = &enrich.Function{
			Name: name, Model: f.Model, Quality: f.Quality, ExtraCost: f.ExtraCost,
		}
	}
	fam, err := enrich.NewFamily(relation, attr, col.Domain, det, efs...)
	if err != nil {
		return err
	}
	return db.mgr.Register(fam)
}

// SetStateCutoff applies the state-cutoff threshold of §3.2: stored
// probabilities below the threshold are pruned, shrinking the state tables
// at the price of occasional re-executions during determinization.
func (db *DB) SetStateCutoff(threshold float64) {
	db.mgr.SetCutoff(threshold)
}

// EnrichmentServerConfig tunes ServeEnrichmentConfig. The zero value means
// unlimited connections and the default shutdown drain.
type EnrichmentServerConfig struct {
	// MaxConns caps concurrent client connections (0 = unlimited).
	MaxConns int
	// DrainTimeout bounds how long Close waits for in-flight batches.
	DrainTimeout time.Duration
	// Workers sets the server's parallel enrichment width (0 or 1
	// sequential, negative = GOMAXPROCS).
	Workers int
	// FaultLatency, if positive, delays every batch this server executes —
	// a degraded (slow) fleet member for fault testing.
	FaultLatency time.Duration
	// FaultErrorRate, if positive, fails roughly that fraction of requests
	// (0..1) with injected errors, deterministically from FaultSeed.
	FaultErrorRate float64
	// FaultSeed seeds the injected-error stream (used when FaultErrorRate>0).
	FaultSeed int64
}

// ServeEnrichment starts an enrichment server for the loose design on addr
// (use "127.0.0.1:0" for an ephemeral port) and returns its address. The
// server executes this database's registered function families.
func (db *DB) ServeEnrichment(addr string) (string, error) {
	return db.ServeEnrichmentConfig(addr, EnrichmentServerConfig{})
}

// ServeEnrichmentConfig is ServeEnrichment with explicit robustness knobs.
func (db *DB) ServeEnrichmentConfig(addr string, cfg EnrichmentServerConfig) (string, error) {
	h, err := db.ServeEnrichmentHandle(addr, cfg)
	if err != nil {
		return "", err
	}
	return h.Addr(), nil
}

// EnrichmentClientConfig tunes ConnectEnrichmentServerConfig. The zero value
// applies the production defaults: a 30s per-call deadline, 2 retries with
// exponential backoff + jitter, and automatic re-dial after broken
// connections. Negative values disable the corresponding mechanism.
type EnrichmentClientConfig struct {
	// CallTimeout bounds each enrichment RPC (0 = default, negative = none).
	CallTimeout time.Duration
	// MaxRetries is the number of extra attempts after a transport failure
	// (0 = default, negative = none).
	MaxRetries int
	// ExtraLatency, if positive, is added per batch to emulate a longer
	// link (it is accounted as network time).
	ExtraLatency time.Duration
}

// ConnectEnrichmentServer points the loose design at a remote enrichment
// server instead of the default in-process one, with default fault
// tolerance. extraLatency, if positive, is added per batch to emulate a
// longer link.
func (db *DB) ConnectEnrichmentServer(addr string, extraLatency time.Duration) error {
	return db.ConnectEnrichmentServerConfig(addr, EnrichmentClientConfig{ExtraLatency: extraLatency})
}

// ConnectEnrichmentServerConfig is ConnectEnrichmentServer with explicit
// fault-tolerance knobs. If the server fails mid-query, the loose design
// degrades: failed enrichments leave their derived attributes NULL and are
// counted in Result.FailedEnrichments; re-running the query retries them.
func (db *DB) ConnectEnrichmentServerConfig(addr string, cfg EnrichmentClientConfig) error {
	client, err := remote.DialOptions(addr, remote.Options{
		CallTimeout: cfg.CallTimeout,
		MaxRetries:  cfg.MaxRetries,
		Telemetry:   db.mgr.Telemetry(),
	})
	if err != nil {
		return err
	}
	client.ExtraLatency = cfg.ExtraLatency
	db.closeEnricher()
	db.enricher = client
	return nil
}

// UseLocalEnrichment reverts the loose design to in-process enrichment.
func (db *DB) UseLocalEnrichment() {
	db.closeEnricher()
	db.enricher = &loose.LocalEnricher{Mgr: db.mgr}
}

// Close releases transports started by this DB.
func (db *DB) Close() error {
	db.closeEnricher()
	for _, s := range db.servers {
		s.Close()
	}
	return nil
}

// Telemetry returns the database's metrics registry — the single place all
// components publish counters to: enrichment execution (enrich.*), the tight
// runtime's UDF accounting (tight.*), the loose enrichment path (loose.*,
// remote.*), executor stats (engine.*), view maintenance (ivm.*) and the
// progressive epoch loop (epoch.*). Snapshot it for a consistent read.
func (db *DB) Telemetry() *telemetry.Registry { return db.mgr.Telemetry() }

// SetTracer installs a structured-span tracer on the database: both designs
// and the progressive pipeline emit spans through it. Nil (the default)
// disables tracing at zero cost.
func (db *DB) SetTracer(t *telemetry.Tracer) { db.tracer = t }

// Stats returns cumulative enrichment counters.
func (db *DB) Stats() EnrichmentStats {
	c := db.mgr.Counters()
	return EnrichmentStats{
		Enrichments:    c.Enrichments,
		Skipped:        c.Skipped,
		ReExecutions:   c.ReExecutions,
		StateSizeBytes: db.mgr.StateSizeBytes(),
	}
}

// EnrichmentStats summarizes enrichment activity and state storage.
type EnrichmentStats struct {
	Enrichments    int64
	Skipped        int64
	ReExecutions   int64
	StateSizeBytes int64
}

// analyzeSQL parses and analyzes a query against this database.
func (db *DB) analyzeSQL(query string) (*engine.Analysis, error) {
	return engine.AnalyzeSQL(query, db.store.Catalog())
}

// RuntimeStats renders the database's runtime-statistics store — the EWMA
// selectivities, function costs and operator cardinalities the adaptive
// optimizer has accumulated (DESIGN §14). Deterministically ordered; empty
// string before any query ran.
func (db *DB) RuntimeStats() string { return db.runtimeStats.String() }
