package enrichdb

import (
	"context"
	"fmt"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/progressive"
	"enrichdb/internal/quality"
	"enrichdb/internal/telemetry"
)

// Design selects how a query is executed (DB.Run, Session.Run) and which
// architecture drives a progressive run.
type Design int

// The paper's two architectures, their progressive form, and execution
// without enrichment.
const (
	LooseDesign Design = iota // §2.1: probe, enrich in batch, write back, run
	TightDesign               // §2.2: rewrite with UDFs, enrich inside predicates
	// PlainDesign runs the query as written: derived attributes read as
	// currently determined, nothing is enriched. Not a progressive design.
	PlainDesign
	// ProgressiveDesign answers the query progressively (§3), epoch by
	// epoch, through the loose or tight architecture that
	// QueryObs.Progressive names.
	ProgressiveDesign
)

// String names the design as profiles and traces spell it.
func (d Design) String() string {
	if d < 0 || int(d) >= len(designNames) {
		return fmt.Sprintf("design(%d)", int(d))
	}
	return designNames[d]
}

var designNames = [...]string{LooseDesign: "loose", TightDesign: "tight", PlainDesign: "plain",
	ProgressiveDesign: "progressive"}

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

// ProgressiveOptions parameterizes a ProgressiveDesign run; it rides on
// QueryObs.Progressive, and the run takes its cancellation from Run's
// context and its tracer from QueryObs.Tracer. The zero value uses the
// documented defaults.
type ProgressiveOptions struct {
	// Design is the architecture every epoch enriches through: LooseDesign
	// (the zero value) or TightDesign.
	Design   Design
	Strategy Strategy
	// EpochBudget caps each epoch's estimated enrichment cost (default
	// 25ms). The plan-validity rule of §3.3.2: a plan's cost must fit the
	// epoch duration.
	EpochBudget time.Duration
	// MaxEpochs bounds the run (default 200).
	MaxEpochs int
	Seed      int64
	// Workers sets the run's parallel enrichment width: 0 or negative uses
	// GOMAXPROCS, 1 runs sequentially. The answer is byte-identical at any
	// width.
	Workers int
	// Quality, when set, scores the current answer after every epoch (for
	// example against ground truth); the series feeds Result.Score.
	Quality func(*Rows) float64
	// OnEpoch, when set, is called after every epoch, while the run is
	// still in progress, with that epoch's report — delta sizes,
	// enrichments executed/skipped/coalesced, and the running quality.
	OnEpoch func(Epoch)
	// OnDelta, when set, is called after every epoch, right after OnEpoch
	// and before the next epoch starts, with the answer rows that appeared
	// and disappeared — the paper's §3.3.4 delta fetching: consume
	// refinements while the query runs, without re-reading the whole answer.
	OnDelta func(inserted, deleted *Rows)
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
	// dominant phases: PlanTable sampling, enrichment (for loose, the
	// enrichment batch's wall, bookkeeping included), and IVM delta apply.
	// The serving tier streams them as per-epoch profile deltas.
	PlanTime   time.Duration
	EnrichTime time.Duration
	DeltaTime  time.Duration
	// EnrichErr is set when the epoch's enrichment batch was lost in
	// transport; the epoch enriched nothing and its plan was re-queued
	// (degraded, per DESIGN §6).
	EnrichErr string
}

// DeltaSince returns the net answer change of a progressive run between the
// end of epoch k and the end of the run: rows that appeared and rows that
// disappeared. Epoch 0 means "since setup", so DeltaSince(0) nets to the
// full final answer. This generalizes the paper's last-epoch delta fetching
// (§3.3.4 lists arbitrary-epoch cursors as future work). Both are empty for
// the other designs.
func (r *Result) DeltaSince(epoch int) (inserted, deleted *Rows) {
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

// Score computes the progressive score PS (Equation 1) of a progressive
// run's quality series with the paper's default slope of 0.05; 0 for the
// other designs.
func (r *Result) Score() float64 {
	return quality.ProgressiveScore(r.quality, 0.05)
}

// runProgressive is the progressive design's execute step (§3): per epoch, a
// sample of (tuple, attribute, function) triplets is enriched within the
// epoch budget and the answer is refined through incremental view
// maintenance, so it improves monotonically in enrichment coverage. It fills
// res's progressive fields and returns the final answer.
//
// The run always reads the live store, whatever source the query came from:
// its view refines against the enrichment its epochs write back to the live
// tables, sharing the scheduler pool and enrichment state with every
// concurrent session. A done ctx stops the run at the next epoch boundary
// and the run answers what it refined so far: a canceled progressive query
// is a less-refined one, not an error.
func (db *DB) runProgressive(ctx context.Context, a *engine.Analysis, opts ProgressiveOptions, tracer *telemetry.Tracer, res *Result) (rows []*expr.Row, schema *expr.RowSchema, err error) {
	if opts.Design != LooseDesign && opts.Design != TightDesign {
		return nil, nil, fmt.Errorf("enrichdb: a progressive run enriches through loose or tight, not %v", opts.Design)
	}
	sp := tracer.Start("progressive.execute").Str("design", opts.Design.String())
	defer func() {
		if err != nil {
			sp.Str("error", err.Error())
		} else {
			sp.Int("epochs", int64(len(res.Epochs))).Int("rows", int64(len(rows)))
		}
		sp.End()
	}()
	cfg := progressive.Config{
		Design:      progressive.Design(opts.Design),
		Analysis:    a,
		DB:          db.store,
		Mgr:         db.mgr,
		Enricher:    db.currentEnricher(),
		Strategy:    progressive.Strategy(opts.Strategy),
		EpochBudget: opts.EpochBudget,
		MaxEpochs:   opts.MaxEpochs,
		Seed:        opts.Seed,
		Workers:     opts.Workers,
		Tracer:      tracer,
		Cancel:      ctx.Done(),
		Stats:       db.runtimeStats,
		OnEpoch: func(ep progressive.EpochReport) {
			res.inserted = append(res.inserted, ep.InsertedRows)
			res.deleted = append(res.deleted, ep.DeletedRows)
			res.Epochs = append(res.Epochs, wrapEpoch(ep))
			if opts.OnEpoch != nil {
				opts.OnEpoch(res.Epochs[len(res.Epochs)-1])
			}
			if opts.OnDelta != nil {
				opts.OnDelta(wrapRows(ep.Schema, ep.InsertedRows), wrapRows(ep.Schema, ep.DeletedRows))
			}
		},
	}
	if opts.Quality != nil {
		cfg.Quality = func(rows []*expr.Row) float64 {
			if len(rows) == 0 {
				return opts.Quality(&Rows{})
			}
			return opts.Quality(wrapRows(rows[0].Schema, rows))
		}
	}
	pr, err := progressive.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Config.Recompute is never set here, so the run maintained a view and
	// its schema names the columns of the answer and of every delta.
	res.schema = pr.View.Schema()
	res.Enrichments, res.Overhead, res.quality = pr.TotalEnrichments, pr.Overhead, pr.Quality
	for _, ep := range pr.Epochs {
		res.Timing.Enrich += ep.EnrichTime
		res.Timing.Network += ep.NetworkTime
	}
	return pr.Rows, res.schema, nil
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
