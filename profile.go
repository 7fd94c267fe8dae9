package enrichdb

import (
	"fmt"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/telemetry"
)

// QueryObs selects per-query observability: a tracer override and operator
// profiling. The zero value — no override, profiling off — is free; the
// serving tier builds one per sampled or EXPLAIN ANALYZE'd query.
type QueryObs struct {
	// Tracer, when non-nil, replaces the database's tracer for this query
	// only. The serving tier derives one per sampled query with
	// Tracer.WithTrace(traceID).Tee(collector) so the query's spans land in
	// the server's JSONL trace stamped with the query's trace ID and are
	// simultaneously collected for the Profile frame.
	Tracer *telemetry.Tracer
	// Profile turns on the EXPLAIN ANALYZE operator profiler for this
	// query. Off (the default) costs a single nil check per operator — the
	// instrumented executors stay zero-alloc.
	Profile bool
}

// OpProfile is one operator's runtime profile, a node of the EXPLAIN
// ANALYZE tree. See engine.OpProfile for field semantics (all figures are
// inclusive of children).
type OpProfile = engine.OpProfile

// QueryProfile is the result of running a query with QueryObs.Profile (the
// programmatic form of EXPLAIN ANALYZE): the operator tree annotated with
// measured cardinalities, wall time, batch counts and fallback lanes.
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

// progressiveProfile synthesizes the EXPLAIN ANALYZE tree for a progressive
// run. Per-operator instrumentation would charge the IVM pipeline once per
// epoch, so the profile reports the run's phase breakdown (Exp 4's overhead
// decomposition) with the run-wide cardinalities.
func progressiveProfile(r *ProgressiveResult, wall time.Duration) *QueryProfile {
	var planned, deltas int64
	for _, ep := range r.Epochs {
		planned += int64(ep.Planned)
		deltas += int64(ep.Inserted) + int64(ep.Deleted)
	}
	o := r.Overhead
	root := &OpProfile{
		Name:    "ProgressiveQuery",
		Detail:  fmt.Sprintf("%d epochs", len(r.Epochs)),
		RowsIn:  planned,
		RowsOut: int64(r.Len()),
		Wall:    wall,
		Children: []*OpProfile{
			{Name: "Setup", Detail: "state tables + initial view", Wall: o.Setup},
			{Name: "Plan", Detail: "PlanTable sampling", RowsOut: planned, Wall: o.Plan},
			{Name: "Enrich", RowsIn: planned, RowsOut: r.TotalEnrichments, Wall: o.Enrich},
			{Name: "UDF", Detail: "invocation overhead", Wall: o.UDF},
			{Name: "Refresh", Detail: "IVM delta apply", RowsIn: deltas, RowsOut: deltas, Wall: o.Delta},
			{Name: "State", Detail: "state-table maintenance", Wall: o.State},
		},
	}
	return &QueryProfile{Design: "progressive", Root: root}
}
