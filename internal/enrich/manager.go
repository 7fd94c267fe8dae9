package enrich

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// Counters aggregates the enrichment activity both designs report in the
// paper's experiments.
type Counters struct {
	// Enrichments counts enrichment function executions (Table 7/8's
	// "number of enrichments").
	Enrichments int64
	// Skipped counts executions avoided because the state bitmap showed the
	// function had already run — the state table's whole purpose.
	Skipped int64
	// ReExecutions counts functions re-run because the state cutoff had
	// pruned probabilities the determinizer needed (Table 10).
	ReExecutions int64
	// ReExecTime is the time those re-executions consumed; the progressive
	// executor charges it against the next epoch's budget (re-enrichment
	// eats epoch time, as in the paper's fixed-duration epochs).
	ReExecTime time.Duration
	// StateUpdateTime is the cumulative time spent writing state (Exp 4).
	StateUpdateTime time.Duration
	// EnrichTime is the cumulative time spent executing enrichment
	// functions through this manager (tight design's in-DBMS executions).
	EnrichTime time.Duration
	// UDFRuns counts actual local enrichment function runs; FirstStores and
	// StaleDrops partition their outcomes (first store of the triplet at its
	// generation vs. dropped because a committed write superseded it). The
	// harness's dedup oracle asserts UDFRuns <= FirstStores + StaleDrops.
	UDFRuns     int64
	FirstStores int64
	StaleDrops  int64
}

// Manager owns the function families and state tables of a database and is
// the single write path for enrichment state in every design: each write is
// keyed by the fixed-data generation of the tuple image it was computed
// from, and each read answers for one image. It is safe for
// concurrent use: a per-(relation, tid, attr, function) singleflight group
// guarantees that no enrichment function is ever executed twice for the same
// triplet, even when epoch workers race on it — the loser of the race waits
// for the winner's state write and counts as Skipped, exactly as a sequential
// second call would.
type Manager struct {
	mu     sync.Mutex // serializes Register
	lookup atomic.Pointer[registry]

	flightMu sync.Mutex
	inflight map[flightKey]*flight

	// The activity counters live on the manager's telemetry registry, which
	// acts as the metrics hub for everything composed around this database
	// (the tight runtime, the loose enrichers, the IVM views, the
	// progressive executor all publish into it). The hot-path cost is one
	// atomic add per event, identical to the plain atomics these replaced.
	reg          *telemetry.Registry
	enrichments  *telemetry.Counter
	skipped      *telemetry.Counter
	reExecutions *telemetry.Counter
	reExecNanos  *telemetry.Counter
	stateNanos   *telemetry.Counter
	enrichNanos  *telemetry.Counter
	latency      *telemetry.Histogram

	// Dedup-accounting counters backing the harness's monotone-enrichment
	// oracle: every locally executed function run (udf_runs) must either be
	// the first store of its (tuple, attr, fn, generation) — first_stores —
	// or be dropped because a committed write superseded the generation it
	// was computed at (stale_drops). Re-executions forced by the state cutoff
	// are transient (never stored) and tracked separately as reexecutions.
	udfRuns     *telemetry.Counter
	firstStores *telemetry.Counter
	staleDrops  *telemetry.Counter
}

// registry is what Register publishes: the families and state tables by
// relation. A published registry is never modified; Register swaps in a
// copy, so lookups read it without a lock.
type registry struct {
	families map[[2]string]*Family // (relation, attr) -> family
	states   map[string]*StateTable
}

// flightKey identifies one deduplicated computation: the (tuple, attribute,
// function) triplet — the attribute by its registered family — plus the
// tuple generation the feature vector was read at. Keying flights by
// generation means two sessions computing the same triplet against the same
// tuple image share one execution, while a session holding a superseded
// image computes separately (and has its store generation-dropped).
type flightKey struct {
	fam  *Family
	tid  int64
	fnID int
	gen  uint64
}

// flight carries a leader's result to the followers that waited on it, so a
// follower can reuse the computed distribution without re-running the
// function or re-reading state.
type flight struct {
	done  sync.WaitGroup // released once the result is published
	probs []float64
	err   error
}

// NewManager returns an empty manager with its own telemetry registry.
func NewManager() *Manager {
	return NewManagerWith(telemetry.NewRegistry())
}

// NewManagerWith returns an empty manager publishing onto the given registry
// (nil falls back to a fresh one — the counters must always count, since
// Counters() backs the paper's experiment tables).
func NewManagerWith(reg *telemetry.Registry) *Manager {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Manager{
		inflight:     make(map[flightKey]*flight),
		reg:          reg,
		enrichments:  reg.Counter("enrich.executions"),
		skipped:      reg.Counter("enrich.skipped"),
		reExecutions: reg.Counter("enrich.reexecutions"),
		reExecNanos:  reg.Counter("enrich.reexec_ns"),
		stateNanos:   reg.Counter("enrich.state_update_ns"),
		enrichNanos:  reg.Counter("enrich.exec_ns"),
		latency:      reg.Histogram("enrich.latency_ms", telemetry.LatencyBucketsMs),
		udfRuns:      reg.Counter("enrich.udf_runs"),
		firstStores:  reg.Counter("enrich.first_stores"),
		staleDrops:   reg.Counter("enrich.stale_drops"),
	}
	m.lookup.Store(&registry{families: map[[2]string]*Family{}, states: map[string]*StateTable{}})
	reg.GaugeFunc("enrich.state_bytes", m.StateSizeBytes)
	return m
}

// Telemetry returns the manager's metrics registry — the unified snapshot
// point for every component wired to this database.
func (m *Manager) Telemetry() *telemetry.Registry { return m.reg }

// Register attaches a family to its relation, creating the relation's state
// table on first use. All families of a relation must be registered before
// any enrichment state is written.
func (m *Manager) Register(fam *Family) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, key := m.lookup.Load(), [2]string{fam.Relation, fam.Attr}
	if cur.families[key] != nil {
		return fmt.Errorf("enrich: family for %s.%s already registered", fam.Relation, fam.Attr)
	}
	st := cur.states[fam.Relation]
	if st == nil {
		st = newStateTable(fam.Relation)
	}
	if err := st.addFamily(fam); err != nil {
		return err
	}
	next := &registry{families: maps.Clone(cur.families), states: maps.Clone(cur.states)}
	next.families[key], next.states[fam.Relation] = fam, st
	m.lookup.Store(next)
	return nil
}

// Family returns the family of (relation, attr), or nil.
func (m *Manager) Family(relation, attr string) *Family {
	return m.lookup.Load().families[[2]string{relation, attr}]
}

// StateTable returns the relation's state table, or nil.
func (m *Manager) StateTable(relation string) *StateTable {
	return m.lookup.Load().states[relation]
}

// SetCutoff applies a state-cutoff threshold to every registered relation.
func (m *Manager) SetCutoff(c float64) {
	for _, st := range m.lookup.Load().states {
		st.SetCutoff(c)
	}
}

// acquire joins the singleflight group of a (triplet, generation). The first
// caller becomes the leader; followers receive the leader's flight to wait
// on (its done group is released when the leader's result is published).
func (m *Manager) acquire(key flightKey) (f *flight, leader bool) {
	m.flightMu.Lock()
	defer m.flightMu.Unlock()
	if f, busy := m.inflight[key]; busy {
		return f, false
	}
	f = &flight{}
	f.done.Add(1)
	m.inflight[key] = f
	return f, true
}

// release publishes a leader's result and wakes every follower.
func (m *Manager) release(key flightKey, f *flight, probs []float64, err error) {
	f.probs, f.err = probs, err
	m.flightMu.Lock()
	delete(m.inflight, key)
	m.flightMu.Unlock()
	f.done.Done()
}

// Execute runs function fnID of (relation, attr) on a feature vector read
// from the tuple image at fixed-data generation gen, unless the state shows
// the function already ran for that image, and returns its output
// distribution. run is how long this call's own function run took; it is
// positive iff this call performed the run itself.
// Concurrent identical computations at the same generation collapse into one
// function run shared across sessions: the loser of the race waits for the
// winner's state write, reuses its distribution and counts as Skipped,
// exactly as a sequential second call would. A computation whose generation
// a committed write has since superseded is dropped instead of stored
// (counted in stale_drops), so newer data always wins (first-write-wins
// applies only within one generation).
func (m *Manager) Execute(relation string, tid int64, attr string, fnID int, feature []float64, gen uint64) (probs []float64, run time.Duration, err error) {
	fam := m.Family(relation, attr)
	if fam == nil {
		return nil, 0, fmt.Errorf("enrich: no family for %s.%s", relation, attr)
	}
	if fnID < 0 || fnID >= len(fam.Functions) {
		return nil, 0, fmt.Errorf("enrich: %s.%s has no function %d", relation, attr, fnID)
	}
	st := m.StateTable(relation)
	key := flightKey{fam, tid, fnID, gen}
	var fl *flight
	for {
		// Reuse stored work only when it was computed from the same tuple
		// image: a session reading a superseded snapshot must not observe
		// enrichment of the newer image (nor vice versa) — it recomputes from
		// its own frozen feature vector and the store below drops as stale.
		if p, done := m.stored(st, tid, attr, fnID, gen); done {
			m.skipped.Add(1)
			return p, 0, nil
		}
		f, leader := m.acquire(key)
		if leader {
			fl = f
			break
		}
		// A concurrent execution is in flight; wait for its result. If the
		// leader succeeded, reuse its distribution; if it failed (state bit
		// still unset) the loop retries the execution itself.
		f.done.Wait()
		if f.err == nil && f.probs != nil {
			m.skipped.Add(1)
			return f.probs, 0, nil
		}
	}
	// The flight must be released on every leader exit — including a panic
	// unwinding out of a buggy enrichment function (the loose enricher
	// converts that panic into a failed request) — or every later caller for
	// the key would block forever.
	released := false
	releaseWith := func(p []float64, e error) {
		released = true
		m.release(key, fl, p, e)
	}
	defer func() {
		if !released {
			m.release(key, fl, nil, fmt.Errorf("enrich: %s.%s function %d aborted", relation, attr, fnID))
		}
	}()
	// The flight we raced against may have completed between the state check
	// and the acquire; the bitmap is the source of truth.
	if p, done := m.stored(st, tid, attr, fnID, gen); done {
		releaseWith(nil, nil)
		m.skipped.Add(1)
		return p, 0, nil
	}
	runStart := time.Now()
	probs = fam.Functions[fnID].Run(feature)
	start := time.Now()
	elapsed := max(start.Sub(runStart), time.Nanosecond) // positive even on a coarse clock: run > 0 means this call ran
	m.enrichNanos.AddDuration(elapsed)
	m.latency.ObserveDuration(elapsed)
	m.enrichments.Add(1)
	m.udfRuns.Add(1)
	stored, stale, serr := st.setOutputs([]FnOutput{{TID: tid, Attr: attr, FnID: fnID, Probs: probs, Gen: gen}})
	m.stateNanos.Add(int64(time.Since(start)))
	if serr != nil {
		releaseWith(nil, serr)
		return nil, 0, serr
	}
	m.firstStores.Add(stored)
	m.staleDrops.Add(stale)
	releaseWith(probs, nil)
	return probs, elapsed, nil
}

// stored reports whether function fnID already ran for the tuple image at
// gen and, if so, returns its effective stored distribution. Generation,
// bitmap and output are read under one lock, so a commit cannot slip a newer
// image's output in between.
func (m *Manager) stored(st *StateTable, tid int64, attr string, fnID int, gen uint64) ([]float64, bool) {
	p := st.outputAt(tid, attr, fnID, gen)
	return p, p != nil
}

// retainedMass sums an effective output, which holds a pruned probability
// as zero: the mass the state cutoff kept.
func retainedMass(probs []float64) float64 {
	s := 0.0
	for _, p := range probs {
		s += p
	}
	return s
}

// FnOutput is one function output computed outside Execute — by the loose
// design's enrichment server — from the tuple image at Gen.
type FnOutput struct {
	TID   int64
	Attr  string
	FnID  int
	Probs []float64
	Gen   uint64
}

// ApplyOutput records a batch of the relation's function outputs in one pass
// under the state table's lock. An output first stored here was computed
// elsewhere (a remote server) and counts as an enrichment; an output whose
// generation a committed write superseded is dropped rather than stored. A
// duplicate — the triplet's output is already stored, by the in-process
// enricher that computed it through Execute or by a concurrent worker a
// moment ago — is an idempotent no-op: no execution was avoided, so it
// counts neither as an enrichment nor as a skip. The first invalid output
// stops the batch with an error; the outputs before it are stored.
func (m *Manager) ApplyOutput(relation string, outs []FnOutput) error {
	st := m.StateTable(relation)
	if st == nil {
		return fmt.Errorf("enrich: no state table for %s", relation)
	}
	start := time.Now()
	stored, stale, err := st.setOutputs(outs)
	m.stateNanos.Add(int64(time.Since(start)))
	m.enrichments.Add(stored)
	m.firstStores.Add(stored)
	m.staleDrops.Add(stale)
	return err
}

// Enriched reports whether function fnID already ran for (relation, tid,
// attr) on the tuple image at gen — the backing of the tight design's
// CheckState UDF. State computed from a different image does not count as
// prior work for the caller.
func (m *Manager) Enriched(relation string, tid int64, attr string, fnID int, gen uint64) bool {
	st := m.StateTable(relation)
	return st != nil && st.BitmapAt(tid, attr, gen)&(1<<uint(fnID)) != 0
}

// FullyEnriched reports whether every family function ran for the attribute
// of the tuple image at gen — the test of Figure 3 (popcount(bitmap) =
// |family|) that a set enrichment mark caches on the image.
func (m *Manager) FullyEnriched(relation string, tid int64, attr string, gen uint64) bool {
	fam := m.Family(relation, attr)
	if fam == nil {
		return false
	}
	return m.StateTable(relation).BitmapAt(tid, attr, gen) == fam.FullBitmap()
}

// Value returns the stored determined value of (relation, tid, attr) for
// the tuple image at gen — the backing of the tight design's GetValue UDF;
// NULL when the stored value was computed from a different image.
func (m *Manager) Value(relation string, tid int64, attr string, gen uint64) types.Value {
	st := m.StateTable(relation)
	if st == nil {
		return types.Null
	}
	return st.valueAt(tid, attr, gen)
}

// Relation is where WriteBack lands a determined value: the relation the
// caller read the tuple image from — a live table, a session's snapshot view
// (which writes through to the live table), or a shard facade.
// storage.Relation satisfies it.
type Relation interface {
	Schema() *catalog.Schema
	WriteDerived(id int64, col string, v types.Value, gen uint64, mark bool) (bool, error)
}

// WriteBackSlot is one (tuple image, attribute) of a write-back batch;
// WriteBack sets Value to the value it determined.
type WriteBackSlot struct {
	Tuple *types.Tuple
	Attr  string
	Value types.Value
}

// WriteBack is the one determinize-and-write-back step every design ends an
// enrichment with, for a batch of slots of one relation. For each slot it
// runs the family's determinization function over the state of the tuple
// image, stores the value in the state, writes it into rel and decides the
// image's enrichment mark: the mark is set iff every family function's
// output was stored at the image's generation and no commit reset the state
// meanwhile. The batch reads every slot's outputs under one state-table read
// lock and stores every value under one write lock; state and base writes
// stay generation-guarded per value, so nothing lands on an image a
// committed write has superseded. A single write-back is a batch of one.
//
// When the cutoff has pruned most of a stored distribution's mass, the
// function is re-executed transiently (counted in ReExecutions) — the cost
// Table 10 trades against state size. When the shared state belongs to a
// different image than the slot's (a commit reset it under a frozen
// snapshot), the whole family is re-run transiently on the image's own
// feature vector, so the caller's answer stays a pure function of its
// snapshot; nothing is stored in the state, and the unmarked value lands
// only on a snapshot view still holding that image. When nothing ran for the
// image, there is nothing to determinize: the value is NULL and nothing is
// written.
func (m *Manager) WriteBack(rel Relation, slots []WriteBackSlot) error {
	if len(slots) == 0 {
		return nil
	}
	s := rel.Schema()
	fams := make([]*Family, len(slots))
	width := 0
	for i := range slots {
		if fams[i] = m.Family(s.Name, slots[i].Attr); fams[i] == nil {
			return fmt.Errorf("enrich: no family for %s.%s", s.Name, slots[i].Attr)
		}
		width = max(width, len(fams[i].Functions))
	}
	st := m.StateTable(s.Name)
	states := st.snapshotSlots(slots)
	outputs := make([][]float64, width)
	for i := range slots {
		sl, ss, fam := &slots[i], &states[i], fams[i]
		sl.Value = types.Null
		if ss.current && !ss.present {
			continue // nothing ran for this image
		}
		feature, err := s.Feature(sl.Tuple, sl.Attr)
		if err != nil {
			return err
		}
		outs, d := outputs[:len(fam.Functions)], fam.Domain
		ss.complete = ss.current
		for id := range fam.Functions {
			bit := uint64(1) << uint(id)
			var o []float64
			if ss.bitmap&bit != 0 {
				o = ss.probs[id*d : (id+1)*d : (id+1)*d]
			}
			switch {
			case ss.current && o == nil:
				outs[id] = nil
				ss.complete = false
			case !ss.current || (ss.pruned&bit != 0 && retainedMass(o) < 0.5):
				// Not enough stored evidence for this image: recover the full
				// distribution.
				reStart := time.Now()
				outs[id] = fam.Functions[id].Run(feature)
				m.reExecNanos.Add(int64(time.Since(reStart)))
				m.reExecutions.Add(1)
			default:
				outs[id] = o
			}
		}
		sl.Value = fam.Det.Determine(outs, fam.Domain)
		ss.write = true
	}
	start := time.Now()
	err := st.setValues(slots, states)
	m.stateNanos.Add(int64(time.Since(start)))
	if err != nil {
		return err
	}
	for i := range slots {
		if ss := &states[i]; ss.write {
			// A commit that reset the state meanwhile leaves the image unmarked.
			if _, err := rel.WriteDerived(slots[i].Tuple.ID, slots[i].Attr, slots[i].Value, slots[i].Tuple.Gen, ss.complete && !ss.stale); err != nil {
				return err
			}
		}
	}
	return nil
}

// ResetTuple clears a tuple's state after a fixed-attribute write (§3.3.5)
// and records gen, the generation the commit installs, as the one its state
// now belongs to: enrichment still in flight against an older tuple image
// fails its generation guard instead of landing.
func (m *Manager) ResetTuple(relation string, tid int64, gen uint64) {
	if st := m.StateTable(relation); st != nil {
		st.reset(tid, gen)
	}
}

// GenOf returns the fixed-data generation the tuple's enrichment state
// belongs to (0 when the relation has no state table).
func (m *Manager) GenOf(relation string, tid int64) uint64 {
	if st := m.StateTable(relation); st != nil {
		return st.GenOf(tid)
	}
	return 0
}

// Counters returns a snapshot of the activity counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Enrichments:     m.enrichments.Value(),
		Skipped:         m.skipped.Value(),
		ReExecutions:    m.reExecutions.Value(),
		ReExecTime:      m.reExecNanos.Duration(),
		StateUpdateTime: m.stateNanos.Duration(),
		EnrichTime:      m.enrichNanos.Duration(),
		UDFRuns:         m.udfRuns.Value(),
		FirstStores:     m.firstStores.Value(),
		StaleDrops:      m.staleDrops.Value(),
	}
}

// StateSizeBytes sums the size of every relation's state table.
func (m *Manager) StateSizeBytes() int64 {
	var total int64
	for _, st := range m.lookup.Load().states {
		total += st.SizeBytes()
	}
	return total
}
