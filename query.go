package enrichdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/loose"
	"enrichdb/internal/shard"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/tight"
)

// Rows is a materialized query result. A plain single-table projection
// whose filter the vector kernels decided answers in columns, and its rows
// are a view built on the first At; every other query answers rows.
type Rows struct {
	cols []string
	rows []*expr.Row // the row answer, or vecs' row view once built
	vecs *expr.Columns
	rs   *expr.RowSchema // vecs' row schema
	view sync.Once
}

// ColVec is one typed result column: Kind selects the payload (I for INT,
// S for STRING), one slot per row, and a NULL row's bit is set in Nulls.
type ColVec = expr.ColVec

// Columns returns the result's column names.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Rows) Len() int {
	if r.vecs != nil {
		return r.vecs.Len()
	}
	return len(r.rows)
}

// At returns row i's values.
func (r *Rows) At(i int) []Value {
	if r.vecs != nil {
		r.view.Do(func() { r.rows = r.vecs.Rows(r.rs) })
	}
	return r.rows[i].Vals
}

// TIDs returns the base-tuple ids row i was derived from (empty for
// aggregation results).
func (r *Rows) TIDs(i int) []int64 {
	if r.vecs != nil {
		return r.vecs.TIDs[i : i+1 : i+1]
	}
	return r.rows[i].TIDs
}

// Vec returns result column ci as a typed vector over every row when the
// result answered in columns; ok is false otherwise, and the column reads
// through At. Callers must not modify the vector.
func (r *Rows) Vec(ci int) (cv *ColVec, ok bool) {
	if r.vecs == nil {
		return nil, false
	}
	return &r.vecs.Cols[ci], true
}

func wrapRows(schema *expr.RowSchema, rows []*expr.Row) *Rows {
	return wrapAnswer(schema, engine.Answer{Rows: rows})
}

// wrapAnswer names the answer's columns from its schema.
func wrapAnswer(schema *expr.RowSchema, ans engine.Answer) *Rows {
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
	return &Rows{cols: cols, rows: ans.Rows, vecs: ans.Cols, rs: schema}
}

// Result is the outcome of one query execution under any design (plain runs
// leave the enrichment counters and Timing zero; only progressive runs fill
// Epochs and Overhead). A progressive run's Timing sums its epochs'
// enrichment and network time, and DBMS is the rest of the run's wall.
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
	// Profile is the operator tree of an EXPLAIN ANALYZE statement, whose
	// rows are this tree rendered; nil for every other statement.
	Profile *QueryProfile
	// Epochs reports a progressive run epoch by epoch, as OnEpoch saw them.
	Epochs []Epoch
	// Overhead is a progressive run's non-enrichment cost breakdown (Exp 4).
	Overhead ProgressiveOverhead

	// A progressive run's quality series, e₀ first (Score), and the schema
	// and per-epoch delta answers DeltaSince nets.
	quality           []float64
	schema            *expr.RowSchema
	inserted, deleted [][]*expr.Row
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
//
// ProgressiveDesign runs the query progressively (§3) under the options in
// obs.Progressive and answers the final refined answer, with the run's
// epochs on Result.Epochs. It is the one design a done ctx does not fail: the
// run stops at the next epoch boundary and answers what it refined so far.
//
// `EXPLAIN SELECT ...` answers a one-column "plan" result: the operator tree
// the design would run — the rewritten tree under tight — annotated with
// estimated cardinalities and costs, without executing anything.
// `EXPLAIN ANALYZE SELECT ...` runs the query under the operator profiler and
// answers the measured tree, also on Result.Profile; its enrichment counters
// are the run's. Under ProgressiveDesign, EXPLAIN answers the plain plan of
// the query whose answer the view maintains, and EXPLAIN ANALYZE runs
// progressively and answers the run's phase tree (setup, plan, enrich, UDF,
// refresh, state).
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
// scatter), the loose driver, the tight driver, or the progressive run —
// over src. DB passes its live store, Session its snapshot; that is the
// whole difference between them (a progressive run reads the live store
// either way, see runProgressive). The executed plan's schema names the
// result columns, so nothing is built that does not run. An EXPLAIN
// statement stops after building the plan the design would run; EXPLAIN
// ANALYZE runs it under the operator profiler (progressive: its phase tree).
// Both answer with the rendered tree (see planRows).
func (db *DB) run(ctx context.Context, src storage.Source, design Design, query string, obs QueryObs) (*Result, error) {
	start := time.Now()
	st, err := db.parse(query)
	if err != nil {
		return nil, err
	}
	if design == ProgressiveDesign {
		src = db.store // its EXPLAIN too, see runProgressive
	}
	if st.mode == explainPlan {
		rows, err := db.explain(st.a, src, design)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows}, nil
	}
	tracer := obs.Tracer
	if tracer == nil {
		tracer = db.tracer.Load()
	}
	var prof *engine.Profiler
	if st.mode == explainAnalyze {
		prof = engine.NewProfiler()
	}

	res := &Result{}
	var ans engine.Answer
	var schema *expr.RowSchema
	switch design {
	case PlainDesign:
		ans, schema, err = db.runPlain(st.a, src, ctx.Done(), tracer, prof)
	case LooseDesign:
		var lr *loose.Result
		if lr, ans, err = db.looseDriver(src, ctx.Done(), tracer, prof).ExecuteAnswer(st.a); err == nil {
			schema = lr.Schema
			res.Enrichments = lr.Enrichments
			res.FailedEnrichments, res.EnrichErrors = lr.FailedEnrichments, lr.EnrichErrors
			res.Timing = lr.Timing
		}
	case TightDesign:
		var tr *tight.Result
		if tr, ans, err = db.tightDriver(src, ctx.Done(), tracer, prof).ExecuteAnswer(st.a); err == nil {
			schema = tr.Schema
			res.Enrichments, res.UDFInvocations = tr.Enrichments, tr.UDFInvocations
			// Everything runs inside the DBMS in the tight design; split the
			// wall-clock into enrichment-function execution vs the rest so that
			// Total() reflects the measured wall time without double counting.
			res.Timing = splitTightTiming(tr.DBMS, tr.EnrichTime)
		}
	case ProgressiveDesign:
		ans.Rows, schema, err = db.runProgressive(ctx, st.a, obs.Progressive, tracer, res)
	default:
		err = fmt.Errorf("enrichdb: unknown design %d", design)
	}
	if err != nil {
		if errors.Is(err, engine.ErrCanceled) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	res.Rows = wrapAnswer(schema, ans)
	if design == ProgressiveDesign {
		// The epochs split out Enrich and Network; DBMS is the rest of the
		// run's wall, so Total() is the wall.
		res.Timing.DBMS = max(time.Since(start)-res.Timing.Enrich-res.Timing.Network, 0)
	}
	if prof != nil {
		res.Profile = &QueryProfile{Design: design.String(), Root: prof.Root()}
		if design == ProgressiveDesign {
			res.Profile.Root = progressiveRoot(res, time.Since(start))
		}
		res.Rows = planRows(res.Profile.String())
	}
	return res, nil
}

// explainMode is what a statement's EXPLAIN prefix asks of its SELECT.
type explainMode int

const (
	execute        explainMode = iota // no prefix: run the query, answer its rows
	explainPlan                       // EXPLAIN: build the plan, execute nothing
	explainAnalyze                    // EXPLAIN ANALYZE: run under the profiler
)

// statement is one parsed query: its analyzed SELECT and what an EXPLAIN
// prefix asks of it.
type statement struct {
	a    *engine.Analysis
	mode explainMode
}

// parse is the one place the root package parses a query: every statement
// DB.run accepts, EXPLAIN forms included, enters here.
func (db *DB) parse(query string) (*statement, error) {
	ps, err := sqlparser.ParseStatement(query)
	if err != nil {
		return nil, err
	}
	st := &statement{}
	if ps.ExplainPlan || ps.ExplainAnalyze {
		st.mode = explainPlan
		if ps.ExplainAnalyze {
			st.mode = explainAnalyze
		}
	}
	if st.a, err = engine.Analyze(ps.Select, db.store.Catalog()); err != nil {
		return nil, err
	}
	return st, nil
}

// runPlain is the plain design's execute step. On a sharded source eligible
// single-table shapes fan out across the shards and merge by insertion
// sequence — byte-identical answer, parallel scan; shard.ScatterAnswer
// declines every other shape, which runs as one plan over src (the merged
// view).
func (db *DB) runPlain(a *engine.Analysis, src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) (ans engine.Answer, schema *expr.RowSchema, err error) {
	ec := engine.NewExecCtx()
	ec.Done, ec.Adapt, ec.Prof = done, db.runtimeStats, prof
	sp := tracer.Start("plain.execute")
	defer func() {
		if err != nil {
			sp.Str("error", err.Error())
		} else {
			sp.Int("rows", int64(ans.Len()))
		}
		sp.End()
	}()
	if sc, ok := src.(shard.Scatterable); ok {
		var hit bool
		if ans, schema, hit, err = shard.ScatterAnswer(a, sc, ec); err != nil || hit {
			if hit {
				db.Telemetry().Counter("shard.scatter_queries").Add(1)
			}
			return ans, schema, err
		}
	}
	plan, err := engine.Build(a, src)
	if err != nil {
		return engine.Answer{}, nil, err
	}
	ans, err = engine.ExecuteAnswer(plan, ec)
	return ans, plan.Schema(), err
}

// explain answers a plan-only EXPLAIN: the plan design runs for a over src —
// the plain plan for plain and loose (loose runs it once its probes and
// enrichment are done) and for progressive (the query whose answer the view
// maintains), the UDF-rewritten plan for tight — built without executing
// anything and rendered with the cost model's estimates and the
// selectivities the runtime-statistics store has observed. A plain query
// that runPlain fans out over a sharded source renders as a ShardScatter
// node above the plan each shard runs (estimated on shard 0).
func (db *DB) explain(a *engine.Analysis, src storage.Source, design Design) (*Rows, error) {
	var plan engine.Plan
	var err error
	scatter := 0
	switch design {
	case PlainDesign, LooseDesign, ProgressiveDesign:
		if sc, ok := src.(shard.Scatterable); ok && design == PlainDesign && shard.Eligible(a) {
			scatter, src = sc.NumShards(), sc.ShardSource(0)
		}
		plan, err = engine.Build(a, src)
	case TightDesign:
		plan, err = db.tightDriver(src, nil, nil, nil).Plan(a)
	default:
		err = fmt.Errorf("enrichdb: unknown design %d", design)
	}
	if err != nil {
		return nil, err
	}
	tree := engine.AnnotatedExplain(plan, &engine.CostModel{Store: db.runtimeStats})
	if scatter > 0 {
		tree = fmt.Sprintf("ShardScatter %d shards\n", scatter) +
			"  " + strings.ReplaceAll(strings.TrimRight(tree, "\n"), "\n", "\n  ")
	}
	return planRows(tree), nil
}

// looseDriver builds the loose driver for one query over src.
func (db *DB) looseDriver(src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) *loose.Driver {
	return &loose.Driver{DB: src, Mgr: db.mgr, Enricher: db.currentEnricher(),
		Tracer: tracer, Prof: prof, Stats: db.runtimeStats, Done: done}
}

// tightDriver builds the tight driver for one query over src.
func (db *DB) tightDriver(src storage.Source, done <-chan struct{}, tracer *telemetry.Tracer, prof *engine.Profiler) *tight.Driver {
	return &tight.Driver{DB: src, Mgr: db.mgr,
		Tracer: tracer, Prof: prof, Stats: db.runtimeStats, Done: done}
}

func splitTightTiming(wall, enrich time.Duration) QueryTiming {
	rest := wall - enrich
	if rest < 0 {
		rest = 0
	}
	return QueryTiming{DBMS: rest, Enrich: enrich}
}
