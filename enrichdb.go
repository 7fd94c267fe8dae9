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
// Both designs come in progressive form (Run with ProgressiveDesign):
// execution is split into cost-budgeted epochs over function families with a
// cost/quality tradeoff, and an incrementally maintained view refines the
// answer as enrichment proceeds.
package enrichdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/enrich"
	"enrichdb/internal/faultinject"
	"enrichdb/internal/loose"
	"enrichdb/internal/loose/remote"
	"enrichdb/internal/ml"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// Value is a database value: NULL, INT, TEXT or VECTOR.
type Value = types.Value

// Null is the NULL value.
var Null = types.Null

// Value constructors.
var (
	Int    = types.NewInt
	String = types.NewString
	Vector = types.NewVector
)

// Kind is a column type.
type Kind = types.Kind

// Column kinds: a column is INT, TEXT or VECTOR.
const (
	KindInt    = types.KindInt
	KindString = types.KindString
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

	// enricher (the loose design's enrichment path) and tracer are swapped
	// whole while queries run; a query loads each once. servers, the
	// enrichment servers Close stops, grows under serversMu.
	enricher  atomic.Pointer[loose.Enricher]
	tracer    atomic.Pointer[telemetry.Tracer]
	serversMu sync.Mutex
	servers   []*remote.Server

	// runtimeStats is the shared EWMA store every query on this DB feeds and
	// consults. It carries observations across queries — the feedback loop
	// that lets a later query start from the selectivities an earlier one
	// measured.
	runtimeStats *stats.Store
}

// Open creates an empty database.
func Open() *DB { return newDB(storage.NewDB()) }

// newDB builds a database over an empty store, enriching in process.
func newDB(store storage.Store) *DB {
	mgr := enrich.NewManager()
	db := &DB{store: store, mgr: mgr, runtimeStats: stats.NewStore()}
	db.swapEnricher(&loose.LocalEnricher{Mgr: mgr})
	return db
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
	// A caller-chosen id may reuse a deleted tuple's, whose state Delete left
	// empty at an advanced generation: the new image starts at it, so a
	// write-back still in flight for the deleted image fails its generation
	// guard instead of landing (value and mark) on the new one.
	tid, err := tbl.Insert(&types.Tuple{ID: id, Vals: values, Gen: db.mgr.GenOf(relation, id)})
	if err != nil {
		return 0, err
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
	var slots []enrich.WriteBackSlot
	for _, attr := range schema.DerivedCols() {
		fam := db.mgr.Family(relation, attr)
		if fam == nil {
			continue // no functions registered for this attribute
		}
		feature, err := schema.Feature(tu, attr)
		if err != nil {
			return 0, err
		}
		for _, fn := range fam.Functions {
			if _, _, err := db.mgr.Execute(relation, tid, attr, fn.ID, feature, tu.Gen); err != nil {
				return 0, err
			}
		}
		slots = append(slots, enrich.WriteBackSlot{Tuple: tu, Attr: attr})
	}
	if err := db.mgr.WriteBack(tbl, slots); err != nil {
		return 0, err
	}
	return tid, nil
}

// Update replaces one fixed column of one tuple. Updating a fixed column
// resets the tuple's enrichment state (§3.3.5 of the paper): stale derived
// values must be recomputed. A derived column is refused: its one writer is
// enrichment (enrich.Manager.WriteBack), which guards each write with the
// tuple's generation and keeps the enrichment state beside the value.
func (db *DB) Update(relation string, id int64, column string, v Value) error {
	tbl, err := db.store.BaseTable(relation)
	if err != nil {
		return err
	}
	c := tbl.Schema().Col(column)
	switch {
	case c == nil:
		return fmt.Errorf("enrichdb: %s has no column %s", relation, column)
	case c.Derived:
		return fmt.Errorf("enrichdb: %s.%s is a derived column; enrichment writes its values", relation, column)
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if tbl.Get(id) == nil {
		return fmt.Errorf("enrichdb: %s has no tuple %d", relation, id)
	}
	// A fixed-attribute write supersedes the tuple's enrichment (§3.3.5).
	// Invalidate the shared state first, at the generation the commit
	// installs, so enrichment of the old image arriving in the window is
	// dropped and enrichment of the new image is never invalidated; then
	// swap the new fixed value and the cleared derived values in as one
	// atomic image (readers never see a torn half-updated tuple).
	db.mgr.ResetTuple(relation, id, tbl.Gen(id)+1)
	if _, err := tbl.CommitFixed(id, column, v); err != nil {
		return err
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
	db.mgr.ResetTuple(relation, id, old.Gen+1)
	db.version.Add(1)
	return nil
}

// CheckEnrichmentMarks audits every live tuple image's enrichment mark
// against the enrichment state: a marked attribute must have had its whole
// function family run at the image's generation and must hold a non-NULL
// value. It holds the commit lock, so no commit lands mid-audit, and returns
// the first violation; concurrency harnesses call it between operations.
func (db *DB) CheckEnrichmentMarks() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	for _, rel := range db.store.Catalog().Relations() {
		tbl, err := db.store.Table(rel)
		if err != nil {
			return err
		}
		s := tbl.Schema()
		for _, tu := range storage.Tuples(tbl) {
			for _, attr := range s.DerivedCols() {
				if tu.Enriched&s.MarkBit(attr) != 0 && (tu.Vals[s.ColIndex(attr)].IsNull() ||
					!db.mgr.FullyEnriched(rel, tu.ID, attr, tu.Gen)) {
					return fmt.Errorf("enrichdb: %s tuple %d (gen %d) marks %s enriched; the state disagrees",
						rel, tu.ID, tu.Gen, attr)
				}
			}
		}
	}
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
// The family determinizes by averaging the executed functions'
// distributions.
func (db *DB) RegisterEnrichment(relation, attr string, fns ...Function) error {
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
	fam, err := enrich.NewFamily(relation, attr, col.Domain, enrich.AvgProb{}, efs...)
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

// EnrichmentServerConfig tunes ServeEnrichment. The zero value means
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
	// a degraded (slow) enrichment server for fault testing.
	FaultLatency time.Duration
}

// EnrichmentServerHandle is a started enrichment server: its bound address,
// and Close, which the fault harness's kill plan calls mid-run.
type EnrichmentServerHandle struct {
	srv  *remote.Server
	addr string
}

// Addr returns the server's bound address.
func (h *EnrichmentServerHandle) Addr() string { return h.addr }

// Close drains and stops the server (a killed enrichment server: in-flight
// batches finish or time out; later calls fail, and a loose query answers
// NULL for what it could not enrich).
func (h *EnrichmentServerHandle) Close() error { return h.srv.Close() }

// ServeEnrichment starts an enrichment server for the loose design on addr
// (use "127.0.0.1:0" for an ephemeral port). The server executes this
// database's registered function families; Close on the database stops it
// too.
func (db *DB) ServeEnrichment(addr string, cfg EnrichmentServerConfig) (*EnrichmentServerHandle, error) {
	var enricher loose.Enricher = &loose.LocalEnricher{Mgr: db.mgr, Workers: cfg.Workers}
	if cfg.FaultLatency > 0 {
		enricher = faultinject.Wrap(enricher, faultinject.Plan{Latency: cfg.FaultLatency})
	}
	srv, bound, err := remote.ServeEnricher(addr, enricher,
		remote.ServerOptions{MaxConns: cfg.MaxConns, DrainTimeout: cfg.DrainTimeout,
			Telemetry: db.mgr.Telemetry()})
	if err != nil {
		return nil, err
	}
	db.serversMu.Lock()
	db.servers = append(db.servers, srv)
	db.serversMu.Unlock()
	return &EnrichmentServerHandle{srv: srv, addr: bound}, nil
}

// EnrichmentClientConfig tunes ConnectEnrichmentServer. The zero value
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
// server instead of the default in-process one. If the server fails
// mid-query, the loose design degrades: failed enrichments leave their
// derived attributes NULL and are counted in Result.FailedEnrichments;
// re-running the query retries them. Calling it again while queries run is
// safe: the replaced client is closed, so loose batches still in flight on
// it fail the same way.
func (db *DB) ConnectEnrichmentServer(addr string, cfg EnrichmentClientConfig) error {
	client, err := remote.DialOptions(addr, remote.Options{
		CallTimeout: cfg.CallTimeout,
		MaxRetries:  cfg.MaxRetries,
		Telemetry:   db.mgr.Telemetry(),
	})
	if err != nil {
		return err
	}
	client.ExtraLatency = cfg.ExtraLatency
	db.swapEnricher(client)
	return nil
}

// swapEnricher installs e as the loose design's enrichment path and closes
// the transport of the one it replaces, if it has one.
func (db *DB) swapEnricher(e loose.Enricher) {
	if old := db.enricher.Swap(&e); old != nil {
		closeEnricher(*old)
	}
}

// currentEnricher is the enrichment path a query starting now uses.
func (db *DB) currentEnricher() loose.Enricher { return *db.enricher.Load() }

// closeEnricher releases e's transport, if it has one.
func closeEnricher(e loose.Enricher) {
	if c, ok := e.(*remote.Client); ok {
		c.Close()
	}
}

// Close releases transports started by this DB.
func (db *DB) Close() error {
	closeEnricher(db.currentEnricher())
	db.serversMu.Lock()
	servers := db.servers
	db.serversMu.Unlock()
	for _, s := range servers {
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
func (db *DB) SetTracer(t *telemetry.Tracer) { db.tracer.Store(t) }

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
