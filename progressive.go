package enrichdb

import (
	"fmt"
	"time"

	"enrichdb/internal/expr"
	"enrichdb/internal/metrics"
	"enrichdb/internal/progressive"
	"enrichdb/internal/telemetry"
)

// Design selects how a query is executed (DB.Run, Session.Run) and which
// architecture drives a progressive run.
type Design int

// The paper's two architectures, and execution without enrichment.
const (
	LooseDesign Design = iota // §2.1: probe, enrich in batch, write back, run
	TightDesign               // §2.2: rewrite with UDFs, enrich inside predicates
	// PlainDesign runs the query as written: derived attributes read as
	// currently determined, nothing is enriched. Not a progressive design.
	PlainDesign
)

// String names the design as profiles and traces spell it.
func (d Design) String() string {
	if d < 0 || int(d) >= len(designNames) {
		return fmt.Sprintf("design(%d)", int(d))
	}
	return designNames[d]
}

var designNames = [...]string{LooseDesign: "loose", TightDesign: "tight", PlainDesign: "plain"}

// Strategy is a PlanTable selection strategy (§3.3.2).
type Strategy int

// The paper's three sampling-based strategies. FunctionOrdered — the
// paper's SB(FO) — performs best and is the default.
const (
	ObjectOrdered   Strategy = iota // SB(OO)
	RandomOrdered                   // SB(RO)
	FunctionOrdered                 // SB(FO)
	// BenefitOrdered extends the paper's strategies: tuples are ranked by
	// the entropy of their current determinization, so the epoch budget
	// goes where another function execution is most likely to change the
	// answer.
	BenefitOrdered
	// AdaptiveOrdered closes the loop from observed execution back to
	// planning (DESIGN §14): tuples are ranked by entropy × observed
	// answer-impact / observed per-function cost, and each attribute
	// advances by the function with the best measured impact-per-cost. The
	// ranking re-evaluates every epoch from the database's runtime-statistics
	// store, so the plan adapts mid-query as costs and impacts drift.
	AdaptiveOrdered
)

// ProgressiveOptions parameterizes QueryProgressive. The zero value uses
// the documented defaults.
type ProgressiveOptions struct {
	Design   Design
	Strategy Strategy
	// EpochBudget caps each epoch's estimated enrichment cost (default
	// 25ms). The plan-validity rule of §3.3.2: a plan's cost must fit the
	// epoch duration.
	EpochBudget time.Duration
	// MaxEpochs bounds the run (default 200).
	MaxEpochs int
	Seed      int64
	// Workers sets the run's parallel enrichment/scan width (0 or 1
	// sequential; the answer is byte-identical at any width).
	Workers int
	// Quality, when set, scores the current answer after every epoch (for
	// example against ground truth); the series feeds ProgressiveScore.
	Quality func(*Rows) float64
	// OnEpoch, when set, is called after every epoch, while the run is
	// still in progress, with that epoch's report — delta sizes,
	// enrichments executed/skipped/coalesced, and the running quality.
	OnEpoch func(Epoch)
	// OnDelta, when set, is called after every epoch with the answer rows
	// that appeared and disappeared — the paper's §3.3.4 delta fetching:
	// consume refinements without re-reading the whole answer.
	OnDelta func(inserted, deleted *Rows)
	// Cancel, when non-nil, stops the run at the next epoch boundary once
	// the channel is closed (wire it to a context's Done channel). The run
	// returns the answer refined so far — cancellation is not an error, a
	// canceled progressive query is just a less-refined one.
	Cancel <-chan struct{}
	// Tracer, when non-nil, replaces the database's tracer for this run —
	// the serving tier derives one per sampled query so the run's epoch
	// spans carry the query's trace ID.
	Tracer *telemetry.Tracer
}

// Epoch is one epoch's telemetry.
type Epoch struct {
	N           int
	Planned     int
	Enrichments int64
	// Skipped counts planned executions answered from existing state
	// instead of running the function; Coalesced (tight design) counts
	// read_udf calls that shared another call's invocation payment.
	Skipped   int64
	Coalesced int64
	Quality   float64
	Inserted  int
	Deleted   int
	Wall      time.Duration
	// PlanTime, EnrichTime and DeltaTime break the epoch's wall into its
	// dominant phases: PlanTable sampling, function execution, and IVM delta
	// apply. The serving tier streams them as per-epoch profile deltas.
	PlanTime   time.Duration
	EnrichTime time.Duration
	DeltaTime  time.Duration
	// EnrichErr is set when the epoch's enrichment batch was lost in
	// transport; the epoch enriched nothing and its plan was re-queued.
	EnrichErr string
}

// ProgressiveResult is the outcome of a progressive run.
type ProgressiveResult struct {
	*Rows
	Epochs           []Epoch
	Quality          []float64 // per epoch, starting at e₀
	TotalEnrichments int64
	// FailedEpochs counts epochs that enriched nothing because their whole
	// batch was lost in transport (degraded, per DESIGN §6).
	FailedEpochs int
	// Overhead is Exp 4's non-enrichment cost breakdown.
	Overhead ProgressiveOverhead
	// Profile is the phase-level tree (setup/plan/enrich/UDF/refresh) of an
	// EXPLAIN ANALYZE statement, whose rows are this tree rendered; nil for
	// every other statement.
	Profile *QueryProfile

	schema   *expr.RowSchema
	inserted [][]*expr.Row // per epoch
	deleted  [][]*expr.Row
}

// DeltaSince returns the net answer change between the end of epoch k and
// the end of the run: rows that appeared and rows that disappeared. Epoch 0
// means "since setup", so DeltaSince(0) nets to the full final answer. This
// generalizes the paper's last-epoch delta fetching (§3.3.4 lists
// arbitrary-epoch cursors as future work).
func (r *ProgressiveResult) DeltaSince(epoch int) (inserted, deleted *Rows) {
	if r.schema == nil {
		return &Rows{}, &Rows{}
	}
	// Rows net by the view's own identity (values by key semantics, then
	// tuple ids): hash buckets confirmed by exact comparison, so distinct
	// rows never merge.
	type acc struct {
		row   *expr.Row
		count int
	}
	net := make(map[uint64][]*acc)
	var order []*acc // first-appearance order, so the answer is deterministic
	add := func(row *expr.Row, sign int) {
		h := row.IdentityHash()
		for _, a := range net[h] {
			if a.row.SameIdentity(row) {
				a.count += sign
				return
			}
		}
		a := &acc{row: row, count: sign}
		net[h] = append(net[h], a)
		order = append(order, a)
	}
	for e := epoch; e < len(r.inserted); e++ {
		for _, row := range r.inserted[e] {
			add(row, 1)
		}
		for _, row := range r.deleted[e] {
			add(row, -1)
		}
	}
	var ins, del []*expr.Row
	for _, a := range order {
		for n := a.count; n > 0; n-- {
			ins = append(ins, a.row)
		}
		for n := a.count; n < 0; n++ {
			del = append(del, a.row)
		}
	}
	return wrapRows(r.schema, ins), wrapRows(r.schema, del)
}

// ProgressiveOverhead breaks out the non-enrichment costs of a run (Exp 4):
// Setup, Plan, Delta, State and UDF, beside the Enrich time itself.
type ProgressiveOverhead = progressive.Overheads

// Score computes the progressive score PS (Equation 1) of the run's quality
// series with the paper's default slope of 0.05.
func (r *ProgressiveResult) Score() float64 {
	return metrics.ProgressiveScore(r.Quality, 0.05)
}

// QueryProgressive executes a query progressively (§3): per epoch, a sample
// of (tuple, attribute, function) triplets is enriched within the epoch
// budget and the answer is refined through incremental view maintenance.
// Results improve monotonically in enrichment coverage; stop reading when
// satisfied.
//
// The statement forms are Run's: `EXPLAIN SELECT ...` answers the plain plan
// of the query whose answer the view maintains, executing nothing;
// `EXPLAIN ANALYZE SELECT ...` runs progressively and answers the phase-level
// profile, also on ProgressiveResult.Profile.
func (db *DB) QueryProgressive(query string, opts ProgressiveOptions) (*ProgressiveResult, error) {
	if opts.Design != LooseDesign && opts.Design != TightDesign {
		return nil, fmt.Errorf("enrichdb: %v is not a progressive design", opts.Design)
	}
	st, err := db.parse(query)
	if err != nil {
		return nil, err
	}
	if st.mode == explainPlan {
		rows, err := db.explain(st.a, db.store, PlainDesign)
		if err != nil {
			return nil, err
		}
		return &ProgressiveResult{Rows: rows}, nil
	}
	tracer := db.tracer
	if opts.Tracer != nil {
		tracer = opts.Tracer
	}
	cfg := progressive.Config{
		Design:      progressive.Design(opts.Design),
		Analysis:    st.a,
		DB:          db.store,
		Mgr:         db.mgr,
		Enricher:    db.enricher,
		Strategy:    progressive.Strategy(opts.Strategy),
		EpochBudget: opts.EpochBudget,
		MaxEpochs:   opts.MaxEpochs,
		Seed:        opts.Seed,
		Workers:     opts.Workers,
		Tracer:      tracer,
		Cancel:      opts.Cancel,
		Stats:       db.runtimeStats,
	}
	if opts.OnEpoch != nil {
		cfg.OnEpoch = func(ep progressive.EpochReport) { opts.OnEpoch(wrapEpoch(ep)) }
	}
	if opts.Quality != nil {
		cfg.Quality = func(rows []*expr.Row) float64 {
			if len(rows) == 0 {
				return opts.Quality(&Rows{})
			}
			return opts.Quality(wrapRows(rows[0].Schema, rows))
		}
	}
	start := time.Now()
	res, err := progressive.Run(cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	out := &ProgressiveResult{
		Quality:          res.Quality,
		TotalEnrichments: res.TotalEnrichments,
		FailedEpochs:     res.FailedEpochs,
		Overhead:         res.Overhead,
	}
	// Config.Recompute is never set here, so the run maintained a view and
	// its schema names the columns of the answer and of every delta.
	out.schema = res.View.Schema()
	out.Rows = wrapRows(out.schema, res.Rows)
	for _, ep := range res.Epochs {
		out.inserted = append(out.inserted, ep.InsertedRows)
		out.deleted = append(out.deleted, ep.DeletedRows)
		out.Epochs = append(out.Epochs, wrapEpoch(ep))
		if opts.OnDelta != nil {
			opts.OnDelta(wrapRows(out.schema, ep.InsertedRows), wrapRows(out.schema, ep.DeletedRows))
		}
	}
	if st.mode == explainAnalyze {
		out.Profile = progressiveProfile(out, wall)
		out.Rows = planRows(out.Profile.String())
	}
	return out, nil
}

// wrapEpoch converts an internal epoch report to the public shape.
func wrapEpoch(ep progressive.EpochReport) Epoch {
	return Epoch{
		N: ep.Epoch, Planned: ep.Planned, Enrichments: ep.Executed,
		Skipped: ep.Skipped, Coalesced: ep.Coalesced,
		Quality: ep.Quality, Inserted: ep.Inserted, Deleted: ep.Deleted, Wall: ep.Wall,
		PlanTime: ep.PlanTime, EnrichTime: ep.EnrichTime, DeltaTime: ep.DeltaTime,
		EnrichErr: ep.EnrichErr,
	}
}
