package loose

import (
	"fmt"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// Timing breaks a loose query execution into the components of Table 11.
type Timing struct {
	// Probe is the time spent generating and running probe queries (DBMS).
	Probe time.Duration
	// Enrich is the enrichment-server compute time (the "ES" column).
	Enrich time.Duration
	// Network is the transfer time between DBMS and enrichment server.
	Network time.Duration
	// DBMS is the final query execution plus write-back time.
	DBMS time.Duration
}

// Total sums the components.
func (t Timing) Total() time.Duration { return t.Probe + t.Enrich + t.Network + t.DBMS }

// Result is the outcome of a loose, non-progressive query execution.
type Result struct {
	Rows []*expr.Row
	// Schema is the output schema of the final plan (column names survive an
	// empty answer).
	Schema *expr.RowSchema
	// Enrichments is the number of enrichment function executions this
	// query caused (Table 7).
	Enrichments int64
	// FailedEnrichments counts enrichment requests that produced no output
	// this run (per-request errors, panicking models, transport failures).
	// Their derived attributes stay NULL — the paper's "not yet enriched"
	// state — and a later query retries exactly the failed work.
	FailedEnrichments int
	// EnrichErrors samples up to a handful of distinct failure messages.
	EnrichErrors []string
	// ProbeTuples is the total number of tuples the probe queries selected.
	ProbeTuples int
	Timing      Timing
	Stats       engine.Stats
}

// maxErrSample bounds how many failure messages a Result retains.
const maxErrSample = 5

func (r *Result) recordFailure(msg string) {
	r.FailedEnrichments++
	if len(r.EnrichErrors) >= maxErrSample {
		return
	}
	for _, e := range r.EnrichErrors {
		if e == msg {
			return
		}
	}
	r.EnrichErrors = append(r.EnrichErrors, msg)
}

// Driver executes queries with the non-progressive loose design of §2.1:
// probe → batch enrich at the server → write back → run the original query.
type Driver struct {
	DB  storage.Source
	Mgr *enrich.Manager
	// Enricher is the enrichment server (local or remote). Defaults to a
	// LocalEnricher over Mgr.
	Enricher Enricher
	// Tracer, when non-nil, emits one span per phase: loose.probe,
	// loose.enrich, loose.writeback, loose.execute.
	Tracer *telemetry.Tracer
	// Prof, when non-nil, collects the EXPLAIN ANALYZE operator tree: one
	// LooseQuery root with probe/enrich/execute phase nodes, the probe and
	// final plans nested under their phase.
	Prof *engine.Profiler
	// Stats, when non-nil, is the shared runtime-statistics store (DESIGN
	// §14): probe and final plans feed observed selectivities/cardinalities
	// into it and reorder multi-conjunct filters cheapest-rejection-first.
	Stats *stats.Store
	// Done, when non-nil, cancels the query once closed: the probe scans and
	// the final plan poll it and abort with engine.ErrCanceled, and no
	// enrichment batch starts after it fired.
	Done <-chan struct{}
}

// NewDriver builds a loose driver with an in-process enrichment server. The
// source may be a live database or a session's snapshot view.
func NewDriver(db storage.Source, mgr *enrich.Manager) *Driver {
	return &Driver{DB: db, Mgr: mgr, Enricher: &LocalEnricher{Mgr: mgr}}
}

// Execute runs one query end to end.
func (d *Driver) Execute(query string) (*Result, error) {
	a, err := engine.AnalyzeSQL(query, d.DB.Catalog())
	if err != nil {
		return nil, err
	}
	return d.ExecuteAnalyzed(a)
}

// ExecuteAnalyzed runs an already-analyzed query.
func (d *Driver) ExecuteAnalyzed(a *engine.Analysis) (*Result, error) {
	res := &Result{}
	ctx := engine.NewExecCtx()
	ctx.Prof = d.Prof
	ctx.Adapt = d.Stats
	ctx.Done = d.Done
	before := d.Mgr.Counters().Enrichments
	qn := d.Prof.Phase("LooseQuery", "")

	// Phase 1: probe queries identify the minimal enrichment set.
	t0 := time.Now()
	spProbe := d.Tracer.Start("loose.probe")
	pn := d.Prof.Phase("LooseProbe", "")
	probes, err := GenerateProbes(a, d.DB, d.Mgr, ctx)
	if err != nil {
		spProbe.Str("error", err.Error()).End()
		return nil, err
	}
	for _, p := range probes {
		res.ProbeTuples += len(p.TIDs)
	}
	d.Prof.End(pn, 0, int64(res.ProbeTuples))
	spProbe.Int("probes", int64(len(probes))).End()
	res.Timing.Probe = time.Since(t0)

	// Phase 2: build the batch of (tuple, attr, function) requests — every
	// not-yet-executed family function of every probe tuple.
	reqs, err := d.BuildRequests(probes)
	if err != nil {
		return nil, err
	}
	if err := ctx.CancelErr(); err != nil {
		return nil, err // canceled while probing: pay for no enrichment
	}

	// Phase 3: enrich at the server, then write the state and the
	// determined values back into the DBMS. Enrichment is best-effort:
	// failed requests (or a whole lost batch) degrade to NULL derived
	// attributes instead of failing the query, and the failure counts are
	// surfaced so callers can see the answer is partial and retry.
	if len(reqs) > 0 {
		en := d.Prof.Phase("LooseEnrich", fmt.Sprintf("%d requests", len(reqs)))
		applied := int64(0)
		spEnrich := d.Tracer.Start("loose.enrich").Int("requests", int64(len(reqs)))
		resps, timing, err := d.Enricher.EnrichBatch(reqs)
		spEnrich.End()
		res.Timing.Enrich = timing.Compute
		res.Timing.Network = timing.Network
		if err != nil {
			// Whole-batch failure (dead/hung server after retries): every
			// requested enrichment failed; the query still answers over the
			// current state.
			for range reqs {
				res.recordFailure(err.Error())
			}
		} else {
			ok := make([]Response, 0, len(resps))
			for _, r := range resps {
				if r.Failed() {
					res.recordFailure(r.Err)
					continue
				}
				ok = append(ok, r)
			}
			t1 := time.Now()
			spWB := d.Tracer.Start("loose.writeback").Int("responses", int64(len(ok)))
			if err := d.WriteBack(ok); err != nil {
				spWB.Str("error", err.Error()).End()
				return nil, err
			}
			spWB.End()
			applied = int64(len(ok))
			res.Timing.DBMS += time.Since(t1)
		}
		d.Prof.End(en, int64(len(reqs)), applied)
	}

	// Phase 4: execute the original query.
	t2 := time.Now()
	spExec := d.Tracer.Start("loose.execute")
	xn := d.Prof.Phase("LooseExecute", "")
	plan, err := engine.BuildOpt(a, d.DB, engine.BuildOptions{Stats: d.Stats})
	if err != nil {
		spExec.Str("error", err.Error()).End()
		return nil, err
	}
	rows, err := plan.Execute(ctx)
	if err != nil {
		spExec.Str("error", err.Error()).End()
		return nil, err
	}
	d.Prof.End(xn, 0, int64(len(rows)))
	spExec.Int("rows", int64(len(rows))).End()
	res.Timing.DBMS += time.Since(t2)
	res.Rows, res.Schema = rows, plan.Schema()
	res.Enrichments = d.Mgr.Counters().Enrichments - before
	res.Stats = *ctx.Stats
	ctx.PublishStats(d.Mgr.Telemetry().Add)
	d.Prof.End(qn, int64(res.ProbeTuples), int64(len(rows)))
	return res, nil
}

// BuildRequests expands probe results into enrichment requests: for each
// probe tuple and needed attribute, one request per family function whose
// state bit is still unset.
func (d *Driver) BuildRequests(probes []ProbeResult) ([]Request, error) {
	var reqs []Request
	for _, p := range probes {
		tbl, err := d.DB.Table(p.Relation)
		if err != nil {
			return nil, err
		}
		schema := tbl.Schema()
		for _, tid := range p.TIDs {
			tu := tbl.Get(tid)
			if tu == nil {
				continue
			}
			for _, attr := range p.Attrs {
				fam := d.Mgr.Family(p.Relation, attr)
				if fam == nil {
					return nil, fmt.Errorf("loose: no family registered for %s.%s", p.Relation, attr)
				}
				col := schema.Col(attr)
				if col == nil {
					return nil, fmt.Errorf("loose: %s has no column %s", p.Relation, attr)
				}
				fi := schema.ColIndex(col.FeatureCol)
				feature := tu.Vals[fi].Vector()
				needed := 0
				for _, fn := range fam.Functions {
					if d.Mgr.EnrichedAt(p.Relation, tid, attr, fn.ID, tu.Gen) {
						continue
					}
					needed++
					reqs = append(reqs, Request{
						Relation: p.Relation, TID: tid, Attr: attr, FnID: fn.ID,
						Feature: feature, Gen: tu.Gen,
					})
				}
				// Every function already executed, yet the image value is
				// NULL: a peer session enriched this image but its determined
				// value hadn't reached the base table when this source
				// snapshotted it (state writes first). Determinize from the
				// shared state — no function runs — and patch the image, so
				// the query sees the same answer the peer's did.
				if ai := schema.ColIndex(attr); needed == 0 && ai >= 0 && tu.Vals[ai].IsNull() {
					v, err := d.Mgr.DetermineAt(p.Relation, tid, attr, feature, tu.Gen)
					if err != nil {
						return nil, err
					}
					if err := writeDerived(tbl, tid, attr, v, tu.Gen); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return reqs, nil
}

// WriteBack stores the server's outputs in the state tables, determinizes
// each touched (tuple, attribute), and updates the base tables so queries
// see the determined values. Failed responses are skipped: their state bits
// stay unset and their attributes NULL.
func (d *Driver) WriteBack(resps []Response) error {
	type ta struct {
		rel  string
		tid  int64
		attr string
	}
	type genFeature struct {
		feature []float64
		gen     uint64
	}
	touched := make(map[ta]genFeature)
	for _, r := range resps {
		if r.Failed() {
			continue
		}
		if err := d.Mgr.ApplyOutputGen(r.Relation, r.TID, r.Attr, r.FnID, r.Probs, r.Gen); err != nil {
			return err
		}
		touched[ta{r.Relation, r.TID, r.Attr}] = genFeature{r.Feature(d.DB), r.Gen}
	}
	for k, gf := range touched {
		v, err := d.Mgr.DetermineAt(k.rel, k.tid, k.attr, gf.feature, gf.gen)
		if err != nil {
			return err
		}
		tbl, err := d.DB.Table(k.rel)
		if err != nil {
			return err
		}
		if err := writeDerived(tbl, k.tid, k.attr, v, gf.gen); err != nil {
			return err
		}
	}
	return nil
}

// writeDerived stores a determined value through the relation. A snapshot
// view's Update is already generation-guarded (and keeps the session-local
// image visible); a live table gets the generation-guarded derived write so
// a concurrent commit's newer data is never clobbered by this stale value.
func writeDerived(rel storage.Relation, tid int64, attr string, v types.Value, gen uint64) error {
	if bt, ok := rel.(interface {
		UpdateDerivedAt(id int64, col string, v types.Value, gen uint64) (bool, error)
	}); ok {
		_, err := bt.UpdateDerivedAt(tid, attr, v, gen)
		return err
	}
	_, err := rel.Update(tid, attr, v)
	return err
}

// Feature re-reads the tuple's feature vector for the response's attribute
// (needed by determinization's cutoff re-execution path).
func (r Response) Feature(db storage.Source) []float64 {
	tbl, err := db.Table(r.Relation)
	if err != nil {
		return nil
	}
	tu := tbl.Get(r.TID)
	if tu == nil {
		return nil
	}
	schema := tbl.Schema()
	col := schema.Col(r.Attr)
	if col == nil {
		return nil
	}
	return tu.Vals[schema.ColIndex(col.FeatureCol)].Vector()
}
