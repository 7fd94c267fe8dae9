package enrichdb

import (
	"fmt"
	"strings"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/telemetry"
)

// QueryObs selects per-query observability and, for ProgressiveDesign, the
// run's options. The zero value — no override, default progressive options —
// is free; the serving tier builds one per sampled query. Operator profiling
// is asked for by the statement itself: EXPLAIN ANALYZE.
type QueryObs struct {
	// Tracer, when non-nil, replaces the database's tracer for this query
	// only. The serving tier derives one per sampled query with
	// Tracer.WithTrace(traceID).Tee(collector) so the query's spans land in
	// the server's JSONL trace stamped with the query's trace ID and are
	// simultaneously collected for the Profile frame.
	Tracer *telemetry.Tracer
	// Progressive parameterizes a ProgressiveDesign run: strategy, epoch
	// budget, and the OnEpoch/OnDelta/Quality hooks that watch the answer
	// refine. The other designs ignore it.
	Progressive ProgressiveOptions
}

// OpProfile is one operator's runtime profile, a node of the EXPLAIN
// ANALYZE tree. See engine.OpProfile for field semantics (all figures are
// inclusive of children).
type OpProfile = engine.OpProfile

// QueryProfile is the structured result of an EXPLAIN ANALYZE statement: the
// operator tree annotated with measured cardinalities, wall time, batch
// counts and fallback lanes.
type QueryProfile struct {
	// Design names the execution design: plain, loose, tight, progressive.
	Design string
	// Root is the top operator (a plan node for plain/tight, a LooseQuery
	// phase node for loose, a ProgressiveQuery summary for progressive).
	Root *OpProfile
}

// String renders the tree one operator per line, indented by depth —
// exactly what EXPLAIN ANALYZE prints.
func (p *QueryProfile) String() string {
	if p == nil || p.Root == nil {
		return ""
	}
	return engine.FormatProfile(p.Root)
}

// planRows is the one-column "plan" result both EXPLAIN forms answer with:
// one line of the rendered tree per row.
func planRows(tree string) *Rows {
	lines := strings.Split(strings.TrimRight(tree, "\n"), "\n")
	rows := make([]*expr.Row, len(lines))
	for i, line := range lines {
		rows[i] = &expr.Row{Vals: []Value{String(line)}}
	}
	return &Rows{cols: []string{"plan"}, rows: rows}
}

// progressiveRoot synthesizes the EXPLAIN ANALYZE tree of a progressive run.
// Per-operator instrumentation would charge the IVM pipeline once per epoch,
// so the tree reports the run's phase breakdown (Exp 4's overhead
// decomposition) with the run-wide cardinalities.
func progressiveRoot(r *Result, wall time.Duration) *OpProfile {
	var planned, deltas int64
	for _, ep := range r.Epochs {
		planned += int64(ep.Planned)
		deltas += int64(ep.Inserted) + int64(ep.Deleted)
	}
	o := r.Overhead
	return &OpProfile{
		Name:    "ProgressiveQuery",
		Detail:  fmt.Sprintf("%d epochs", len(r.Epochs)),
		RowsIn:  planned,
		RowsOut: int64(r.Len()),
		Wall:    wall,
		Children: []*OpProfile{
			{Name: "Setup", Detail: "state tables + initial view", Wall: o.Setup},
			{Name: "Plan", Detail: "PlanTable sampling", RowsOut: planned, Wall: o.Plan},
			{Name: "Enrich", RowsIn: planned, RowsOut: r.Enrichments, Wall: o.Enrich},
			{Name: "UDF", Detail: "invocation overhead", Wall: o.UDF},
			{Name: "Refresh", Detail: "IVM delta apply", RowsIn: deltas, RowsOut: deltas, Wall: o.Delta},
			{Name: "State", Detail: "state-table maintenance", Wall: o.State},
		},
	}
}
