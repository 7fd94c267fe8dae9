package tight

import (
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
)

// Result is the outcome of a tight, non-progressive query execution.
type Result struct {
	Rows []*expr.Row
	// Schema is the executed plan's output schema. The rewrite keeps the
	// statement's select list and tables, so it is the original query's.
	Schema *expr.RowSchema
	// Enrichments counts the enrichment function executions the rewritten
	// query triggered through read_udf (Table 7).
	Enrichments int64
	// UDFInvocations counts every CheckState/GetValue/read_udf call — the
	// per-row invocation overhead the loose design's batching avoids.
	UDFInvocations int64
	// DBMS is the wall-clock execution time (everything runs in the DBMS).
	DBMS  time.Duration
	Stats engine.Stats
}

// Driver executes queries with the non-progressive tight design of §2.2: the
// query is rewritten with UDF-wrapped derived conditions and run directly;
// enrichment happens lazily inside predicate evaluation.
type Driver struct {
	DB  storage.Source
	Mgr *enrich.Manager
	// InvokeOverhead is forwarded to the runtime (per-UDF-call cost).
	InvokeOverhead time.Duration
	// BatchUDF enables micro-batched UDF invocation on the runtime: the
	// vectorized scan's residual hand-off then coalesces each batch's
	// read_udf calls into one overhead payment per (relation, attr,
	// function-set). Off by default — the paper's non-progressive tight
	// design pays per row (Exp 1).
	BatchUDF bool
	// BuildOptions forwards optimizer toggles (ablation experiments).
	BuildOptions engine.BuildOptions
	// Tracer, when non-nil, emits a tight.execute span per query.
	Tracer *telemetry.Tracer
	// Prof, when non-nil, collects the EXPLAIN ANALYZE operator tree of the
	// rewritten plan (UDF-wrapped predicates show up as Filter nodes).
	Prof *engine.Profiler
	// Stats, when non-nil, is the shared runtime-statistics store (DESIGN
	// §14): execution feeds observed selectivities and cardinalities into it,
	// and the executor reorders pure conjunct prefixes cheapest-rejection-
	// first. UDF-bearing conjuncts keep their static order.
	Stats *stats.Store
	// Done, when non-nil, cancels the query once closed: the rewritten plan
	// polls it and aborts with engine.ErrCanceled.
	Done <-chan struct{}
}

// NewDriver builds a tight driver over a live database or a snapshot.
func NewDriver(db storage.Source, mgr *enrich.Manager) *Driver {
	return &Driver{DB: db, Mgr: mgr}
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
	before := d.Mgr.Counters().Enrichments

	rewritten, err := RewriteAnalysis(a)
	if err != nil {
		return nil, err
	}
	bo := d.BuildOptions
	if bo.Stats == nil {
		bo.Stats = d.Stats
	}
	plan, err := engine.BuildOpt(rewritten, d.DB, bo)
	if err != nil {
		return nil, err
	}
	rt := NewRuntime(d.DB, d.Mgr)
	rt.InvokeOverhead = d.InvokeOverhead
	rt.BatchUDF = d.BatchUDF
	ctx := engine.NewExecCtx()
	ctx.Prof = d.Prof
	ctx.Adapt = d.Stats
	ctx.Done = d.Done
	ctx.Eval.Runtime = rt
	// Stored tuples are immutable; rows must own their values so read_udf
	// can patch freshly determined derived values into rows mid-plan (the
	// visibility in-place updates used to provide).
	ctx.CopyRows = true
	ctx.Eval.PatchRows = true

	t0 := time.Now()
	sp := d.Tracer.Start("tight.execute")
	rows, err := plan.Execute(ctx)
	if err != nil {
		sp.Str("error", err.Error()).End()
		return nil, err
	}
	ctx.PublishStats(d.Mgr.Telemetry().Add)
	res := &Result{
		Rows:           rows,
		Schema:         plan.Schema(),
		Enrichments:    d.Mgr.Counters().Enrichments - before,
		UDFInvocations: ctx.Eval.UDFInvocations,
		DBMS:           time.Since(t0),
		Stats:          *ctx.Stats,
	}
	sp.Int("rows", int64(len(rows))).
		Int("enrichments", res.Enrichments).
		Int("udf_invocations", res.UDFInvocations).
		End()
	return res, nil
}

// Explain returns the rewritten query's plan tree (used by tests and the
// CLI to show the forced nested-loop joins).
func (d *Driver) Explain(query string) (string, error) {
	a, err := engine.AnalyzeSQL(query, d.DB.Catalog())
	if err != nil {
		return "", err
	}
	rewritten, err := RewriteAnalysis(a)
	if err != nil {
		return "", err
	}
	plan, err := engine.Build(rewritten, d.DB)
	if err != nil {
		return "", err
	}
	return plan.Explain(""), nil
}
