package enrichdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/shard"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/tight"
)

// Rows is a materialized query result.
type Rows struct {
	cols []string
	rows []*expr.Row
}

// Columns returns the result's column names.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.rows) }

// At returns row i's values.
func (r *Rows) At(i int) []Value { return r.rows[i].Vals }

// TIDs returns the base-tuple ids row i was derived from (empty for
// aggregation results).
func (r *Rows) TIDs(i int) []int64 { return r.rows[i].TIDs }

func wrapRows(schema *expr.RowSchema, rows []*expr.Row) *Rows {
	counts := make(map[string]int, len(schema.Cols))
	for _, c := range schema.Cols {
		counts[c.Name]++
	}
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		// Qualify only ambiguous names (self-joins, shared column names).
		if counts[c.Name] > 1 && c.Alias != "" {
			cols[i] = c.Alias + "." + c.Name
		} else {
			cols[i] = c.Name
		}
	}
	return &Rows{cols: cols, rows: rows}
}

// Result is the outcome of one query execution under any design (plain runs
// leave the enrichment counters and Timing zero).
type Result struct {
	*Rows
	// Enrichments is the number of enrichment function executions the
	// query caused.
	Enrichments int64
	// FailedEnrichments counts enrichment requests that produced no output
	// (loose design only: per-request errors, panicking models, transport
	// failures). Their derived attributes stay NULL — the paper's "not yet
	// enriched" state — and re-running the query retries exactly that work.
	FailedEnrichments int
	// EnrichErrors samples up to a handful of distinct failure messages when
	// FailedEnrichments > 0.
	EnrichErrors []string
	// UDFInvocations counts UDF calls (tight design only).
	UDFInvocations int64
	// Timing splits the execution cost.
	Timing QueryTiming
	// Profile is the EXPLAIN ANALYZE operator tree when the query ran with
	// QueryObs.Profile set; nil otherwise.
	Profile *QueryProfile
}

// QueryTiming is the per-component cost breakdown of one query (Table 11):
// Probe (loose: probe-query generation and execution), Enrich (enrichment
// function execution), Network (loose with a remote server: transfer time)
// and DBMS (everything executed inside the DBMS); Total sums them.
type QueryTiming = loose.Timing

// Run is the general query entry point: it executes query under the given
// design with cancellation and per-query observability. The executors poll
// ctx between batches of work and abort with ctx.Err() once it is done — a
// canceled loose query starts no enrichment batch, a canceled tight query
// stops invoking UDFs. On the DB it reads the live tables (read-committed);
// Session.Run reads the session's snapshot. Query, QueryLoose and QueryTight
// are Run with a background context and no observability.
func (db *DB) Run(ctx context.Context, design Design, query string, obs QueryObs) (*Result, error) {
	return db.run(ctx, db.store, design, query, obs)
}

// Query executes a query without any enrichment: derived attributes are
// read as currently determined (NULL when never enriched). Use it to
// inspect state or re-read previously enriched answers for free.
func (db *DB) Query(query string) (*Rows, error) {
	return rowsOnly(db.Run(context.Background(), PlainDesign, query, QueryObs{}))
}

// QueryLoose executes a query with the loosely coupled design (§2.1): probe
// queries find the minimal tuple set, the enrichment server enriches it in
// batch, values are written back, and the query runs.
func (db *DB) QueryLoose(query string) (*Result, error) {
	return db.Run(context.Background(), LooseDesign, query, QueryObs{})
}

// QueryTight executes a query with the tightly coupled design (§2.2): the
// query is rewritten with UDF-wrapped derived conditions and enrichment
// happens lazily inside predicate evaluation.
func (db *DB) QueryTight(query string) (*Result, error) {
	return db.Run(context.Background(), TightDesign, query, QueryObs{})
}

func rowsOnly(res *Result, err error) (*Rows, error) {
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// run is the one query pipeline (DESIGN §10): parse and analyze once, then
// hand the analysis to the design's executor — the plain plan (or shard
// scatter), the loose driver, or the tight driver — over src. DB passes its
// live store, Session its snapshot; that is the whole difference between
// them. The executed plan's schema names the result columns, so nothing is
// built that does not run.
func (db *DB) run(ctx context.Context, src storage.Source, design Design, query string, obs QueryObs) (*Result, error) {
	a, err := db.analyzeSQL(query)
	if err != nil {
		return nil, err
	}
	tracer := obs.Tracer
	if tracer == nil {
		tracer = db.tracer
	}
	var prof *engine.Profiler
	if obs.Profile {
		prof = engine.NewProfiler()
	}

	res := &Result{}
	var rows []*expr.Row
	var schema *expr.RowSchema
	switch design {
	case PlainDesign:
		rows, schema, err = db.runPlain(a, src, ctx.Done(), tracer, prof)
	case LooseDesign:
		var lr *loose.Result
		if lr, err = db.looseDriver(src, ctx.Done(), tracer, prof).ExecuteAnalyzed(a); err == nil {
			rows, schema = lr.Rows, lr.Schema
			res.Enrichments = lr.Enrichments
			res.FailedEnrichments, res.EnrichErrors = lr.FailedEnrichments, lr.EnrichErrors
			res.Timing = lr.Timing
		}
	case TightDesign:
		enrichBefore := db.mgr.Counters().EnrichTime
		var tr *tight.Result
		if tr, err = db.tightDriver(src, ctx.Done(), tracer, prof).ExecuteAnalyzed(a); err == nil {
			rows, schema = tr.Rows, tr.Schema
			res.Enrichments, res.UDFInvocations = tr.Enrichments, tr.UDFInvocations
			// Everything runs inside the DBMS in the tight design; split the
			// wall-clock into enrichment-function execution vs the rest so that
			// Total() reflects the measured wall time without double counting.
			res.Timing = splitTightTiming(tr.DBMS, db.mgr.Counters().EnrichTime-enrichBefore)
		}
	default:
		err = fmt.Errorf("enrichdb: unknown design %d", design)
	}
	if err != nil {
		if errors.Is(err, engine.ErrCanceled) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	res.Rows = wrapRows(schema, rows)
	if root := prof.Root(); root != nil {
		res.Profile = &QueryProfile{Design: design.String(), Root: root}
	}
	return res, nil
}

// runPlain is the plain design's execute step. On a sharded source eligible
// single-table shapes fan out across the shards and merge by insertion
// sequence — byte-identical answer, parallel scan; shard.Scatter declines
// every other shape, which runs as one plan over src (the merged view).
func (db *DB) runPlain(a *engine.Analysis, src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) (rows []*expr.Row, schema *expr.RowSchema, err error) {
	ec := engine.NewExecCtx()
	ec.Done, ec.Adapt, ec.Prof = done, db.adaptStore(), prof
	sp := tracer.Start("plain.execute")
	defer func() {
		if err != nil {
			sp.Str("error", err.Error())
		} else {
			sp.Int("rows", int64(len(rows)))
		}
		sp.End()
	}()
	if sc, ok := src.(shard.Scatterable); ok {
		var hit bool
		if rows, schema, hit, err = shard.Scatter(a, sc, ec); err != nil || hit {
			if hit {
				db.Telemetry().Counter("shard.scatter_queries").Add(1)
			}
			return rows, schema, err
		}
	}
	plan, err := db.buildPlan(a, src)
	if err != nil {
		return nil, nil, err
	}
	rows, err = plan.Execute(ec)
	return rows, plan.Schema(), err
}

// buildPlan is the root package's one plan builder: plain execution and both
// EXPLAIN forms go through it, so the tree EXPLAIN prints is the tree that
// runs for the same query and stats state.
func (db *DB) buildPlan(a *engine.Analysis, src storage.Source) (engine.Plan, error) {
	return engine.BuildOpt(a, src, engine.BuildOptions{Stats: db.adaptStore()})
}

// adaptStore resolves the NoAdaptive knob, once: adaptivity off is a nil
// runtime-statistics store, and every layer below the root package reads a
// nil store as "run the static plan, observe nothing".
func (db *DB) adaptStore() *stats.Store {
	if db.NoAdaptive {
		return nil
	}
	return db.runtimeStats
}

// looseDriver builds the loose driver for one query over src.
func (db *DB) looseDriver(src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) *loose.Driver {
	return &loose.Driver{DB: src, Mgr: db.mgr, Enricher: db.enricher,
		Tracer: tracer, Prof: prof, Stats: db.adaptStore(), Done: done}
}

// tightDriver builds the tight driver for one query over src.
func (db *DB) tightDriver(src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) *tight.Driver {
	return &tight.Driver{DB: src, Mgr: db.mgr, InvokeOverhead: db.TightInvokeOverhead,
		Tracer: tracer, Prof: prof, Stats: db.adaptStore(), Done: done}
}

func splitTightTiming(wall, enrich time.Duration) QueryTiming {
	rest := wall - enrich
	if rest < 0 {
		rest = 0
	}
	return QueryTiming{DBMS: rest, Enrich: enrich}
}

// plainPlan analyzes query and builds its plain plan over src without
// executing anything — the shared front half of every EXPLAIN form.
func (db *DB) plainPlan(src storage.Source, query string) (engine.Plan, error) {
	a, err := db.analyzeSQL(query)
	if err != nil {
		return nil, err
	}
	return db.buildPlan(a, src)
}

// Explain returns the plain (unrewritten) execution plan for a query:
// access paths (scan vs index scan), join strategies, ordering.
func (db *DB) Explain(query string) (string, error) {
	plan, err := db.plainPlan(db.store, query)
	if err != nil {
		return "", err
	}
	return plan.Explain(""), nil
}

// ExplainTight returns the rewritten tight-design plan for a query, showing
// the UDF-wrapped conditions and the join strategies the optimizer chose.
func (db *DB) ExplainTight(query string) (string, error) {
	return db.tightDriver(db.store, nil, nil, nil).Explain(query)
}

// ExplainPlan returns the plan-only EXPLAIN (no ANALYZE) for a query: the
// operator tree the adaptive optimizer would run, annotated with estimated
// cardinalities/costs from the cost model and — where this database's
// runtime-statistics store has observed a predicate before — decayed
// observed selectivities. Nothing executes: no scans, no enrichment.
// `EXPLAIN SELECT ...` through the REPL and wire protocol renders the same
// tree.
func (db *DB) ExplainPlan(query string) (string, error) {
	return db.explainPlan(db.store, query)
}

func (db *DB) explainPlan(src storage.Source, query string) (string, error) {
	plan, err := db.plainPlan(src, query)
	if err != nil {
		return "", err
	}
	return engine.AnnotatedExplain(plan, &engine.CostModel{Store: db.adaptStore()}), nil
}
