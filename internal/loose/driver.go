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
	// Rows is the answer's row view (ExecuteAnalyzed); ExecuteAnswer leaves
	// it nil and hands the answer on as the plan built it.
	Rows []*expr.Row
	// Schema is the output schema of the final plan (column names survive an
	// empty answer).
	Schema *expr.RowSchema
	// Enrichments is the number of enrichment function executions this
	// query caused (Table 7): the applied responses whose function ran for
	// this query's request, so a concurrent query's executions never count.
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
	// into it.
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

// ExecuteAnalyzed runs an already-analyzed query and answers in rows: the
// row view of ExecuteAnswer's answer.
func (d *Driver) ExecuteAnalyzed(a *engine.Analysis) (*Result, error) {
	res, ans, err := d.ExecuteAnswer(a)
	if err == nil {
		res.Rows = ans.View(res.Schema)
	}
	return res, err
}

// ExecuteAnswer runs an already-analyzed query end to end and answers the
// final plan's result as engine.ExecuteAnswer built it: columns when a
// projection's fused scan branch answered in columns, rows otherwise.
// Result.Rows stays nil.
func (d *Driver) ExecuteAnswer(a *engine.Analysis) (*Result, engine.Answer, error) {
	res := &Result{}
	ctx := engine.NewExecCtx()
	ctx.Prof = d.Prof
	ctx.Adapt = d.Stats
	ctx.Done = d.Done
	qn := d.Prof.Phase("LooseQuery", "")

	// Phase 1: probe queries identify the minimal enrichment set.
	t0 := time.Now()
	spProbe := d.Tracer.Start("loose.probe")
	pn := d.Prof.Phase("LooseProbe", "")
	probes, err := GenerateProbes(a, d.DB, d.Mgr, ctx)
	if err != nil {
		spProbe.Str("error", err.Error()).End()
		return nil, engine.Answer{}, err
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
		return nil, engine.Answer{}, err
	}
	if err := ctx.CancelErr(); err != nil {
		return nil, engine.Answer{}, err // canceled while probing: pay for no enrichment
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
				return nil, engine.Answer{}, err
			}
			spWB.End()
			applied = int64(len(ok))
			for _, r := range ok {
				if r.Ran {
					res.Enrichments++
				}
			}
			res.Timing.DBMS += time.Since(t1)
		}
		d.Prof.End(en, int64(len(reqs)), applied)
	}

	// Phase 4: execute the original query.
	t2 := time.Now()
	spExec := d.Tracer.Start("loose.execute")
	xn := d.Prof.Phase("LooseExecute", "")
	plan, err := engine.Build(a, d.DB)
	if err != nil {
		spExec.Str("error", err.Error()).End()
		return nil, engine.Answer{}, err
	}
	ans, err := engine.ExecuteAnswer(plan, ctx)
	if err != nil {
		spExec.Str("error", err.Error()).End()
		return nil, engine.Answer{}, err
	}
	d.Prof.End(xn, 0, int64(ans.Len()))
	spExec.Int("rows", int64(ans.Len())).End()
	res.Timing.DBMS += time.Since(t2)
	res.Schema = plan.Schema()
	res.Stats = *ctx.Stats
	ctx.PublishStats(d.Mgr.Telemetry().Add)
	d.Prof.End(qn, int64(res.ProbeTuples), int64(ans.Len()))
	return res, ans, nil
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
		st := d.Mgr.StateTable(p.Relation)
		var marks []enrich.WriteBackSlot
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
				feature, err := schema.Feature(tu, attr)
				if err != nil {
					return nil, err
				}
				pending := fam.FullBitmap() &^ st.BitmapAt(tid, attr, tu.Gen)
				for _, fn := range fam.Functions {
					if pending&(1<<uint(fn.ID)) != 0 {
						reqs = append(reqs, Request{
							Relation: p.Relation, TID: tid, Attr: attr, FnID: fn.ID,
							Feature: feature, Gen: tu.Gen,
						})
					}
				}
				// Every function already executed, yet the image is unmarked:
				// a peer session enriched this image after this source froze
				// it (its value may even still be NULL, state writes first),
				// or the image was restored without its mark. Determinize from
				// the shared state — no function runs — and write the value
				// with its mark, so the query sees the answer the peer's did
				// and the next probe skips the tuple.
				if pending == 0 && tu.Enriched&schema.MarkBit(attr) == 0 {
					marks = append(marks, enrich.WriteBackSlot{Tuple: tu, Attr: attr})
				}
			}
		}
		if len(marks) > 0 {
			if err := d.Mgr.WriteBack(tbl, marks); err != nil {
				return nil, err
			}
		}
	}
	return reqs, nil
}

// WriteBack stores the server's outputs in the enrichment state and writes
// the determined values back into the driver's source (see the
// package-level WriteBack).
func (d *Driver) WriteBack(resps []Response) error {
	_, err := WriteBack(d.Mgr, d.DB, resps)
	return err
}

// WriteBack is the loose design's write-back, shared by the progressive
// executor's loose epochs. Per relation the successful responses touch, it
// stores their outputs in the enrichment state in one generation-guarded
// pass, then hands the current image of each (tuple, attribute) they
// touched, in first-touch order, to one Manager.WriteBack batch, which
// determinizes, writes the values into the source and decides the images'
// marks. An image a commit superseded after the batch was built holds none
// of these outputs (they were dropped as stale), so its write-back settles
// only what ran for that image, and nothing when nothing did. Failed
// responses are skipped: their state bits stay unset and their attributes
// NULL. It returns the number of (tuple, attribute) slots written back.
func WriteBack(mgr *enrich.Manager, db storage.Source, resps []Response) (int, error) {
	type batch struct {
		rel  string
		outs []enrich.FnOutput
	}
	var batches []batch
	for _, r := range resps {
		if r.Failed() {
			continue
		}
		i := len(batches) - 1
		for i >= 0 && batches[i].rel != r.Relation {
			i--
		}
		if i < 0 {
			i = len(batches)
			batches = append(batches, batch{rel: r.Relation})
		}
		batches[i].outs = append(batches[i].outs, enrich.FnOutput{TID: r.TID, Attr: r.Attr, FnID: r.FnID, Probs: r.Probs, Gen: r.Gen})
	}
	written := 0
	for _, b := range batches {
		if err := mgr.ApplyOutput(b.rel, b.outs); err != nil {
			return written, err
		}
		tbl, err := db.Table(b.rel)
		if err != nil {
			return written, err
		}
		slots := touchedSlots(tbl, b.outs)
		if err := mgr.WriteBack(tbl, slots); err != nil {
			return written, err
		}
		written += len(slots)
	}
	return written, nil
}

// touchedSlots lists, in first-touch order, the current image of each
// (tuple, attribute) the outputs touched; a tuple a commit deleted is left
// out.
func touchedSlots(tbl storage.Relation, outs []enrich.FnOutput) []enrich.WriteBackSlot {
	type key struct {
		tid  int64
		attr int // index into attrs
	}
	var attrs []string
	seen := make(map[key]bool, len(outs))
	slots := make([]enrich.WriteBackSlot, 0, len(outs))
	for _, o := range outs {
		ai := 0
		for ai < len(attrs) && attrs[ai] != o.Attr {
			ai++
		}
		if ai == len(attrs) {
			attrs = append(attrs, o.Attr)
		}
		if k := (key{o.TID, ai}); !seen[k] {
			seen[k] = true
			if tu := tbl.Get(o.TID); tu != nil {
				slots = append(slots, enrich.WriteBackSlot{Tuple: tu, Attr: o.Attr})
			}
		}
	}
	return slots
}
