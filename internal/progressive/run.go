package progressive

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/ivm"
	"enrichdb/internal/loose"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/tight"
	"enrichdb/internal/types"
)

// Design selects which of the paper's two architectures executes the
// progressive run.
type Design int

// The two designs.
const (
	Loose Design = iota
	Tight
)

// String names the design.
func (d Design) String() string {
	if d == Tight {
		return "tight"
	}
	return "loose"
}

// Config parameterizes a progressive run.
type Config struct {
	Design Design
	Query  string
	DB     storage.Store
	Mgr    *enrich.Manager

	// Enricher is the loose design's enrichment server; defaults to an
	// in-process one over Mgr.
	Enricher loose.Enricher

	// Strategy is the PlanTable selection strategy (default SBFO, the
	// paper's best performer).
	Strategy Strategy
	// EpochBudget caps each epoch's estimated plan cost (default 25ms).
	EpochBudget time.Duration
	// MaxEpochs bounds the run (default 200).
	MaxEpochs int
	Seed      int64

	// Rand is the run's random source, drawn on by the sampling strategies
	// (SB(OO)/SB(RO) attribute and function choices, plan-space sampling).
	// Nil derives a source from Seed, so two runs with equal Seeds replay
	// the same sampling decisions — the reproducibility the equivalence
	// tests and SB(RO) experiments rely on. The global RNG is never used.
	Rand *rand.Rand

	// Workers is the epoch execution width shared by both designs: the
	// loose design enriches and writes back in parallel, the tight design
	// evaluates planned rows concurrently. 0 defaults to GOMAXPROCS; 1
	// executes sequentially. Workers > 1 produces byte-identical results to
	// Workers: 1 (guaranteed by the manager's singleflight dedup and
	// first-write-wins state semantics, and checked by the equivalence
	// battery).
	Workers int

	// NoParallelScan keeps query-plan scans and filters sequential even when
	// Workers > 1. Parallel scan+filter is a pure throughput knob — partition
	// results are concatenated in slab order, so output is byte-identical
	// either way; disable it to isolate enrichment parallelism in ablations.
	NoParallelScan bool

	// NoVectorScan forces row-at-a-time scan/filter execution even where the
	// vectorized batch path applies. Like NoParallelScan it is a pure
	// throughput knob — output is byte-identical either way (enforced by the
	// equivalence battery) — kept for ablations and as an escape hatch.
	NoVectorScan bool

	// Stats is the runtime-statistics store feeding the adaptive layer
	// (DESIGN §14): epoch reports write per-function observed costs and
	// answer-impacts into it, the Adaptive strategy plans from it, and the
	// engine contexts this run builds reorder filter conjuncts with it. Nil
	// with Strategy == Adaptive auto-creates a run-local store; nil otherwise
	// leaves the engine static.
	Stats *stats.Store
	// NoAdaptive is Stats == nil plus one thing a nil Stats cannot say: do
	// not auto-create the run-local store for Strategy == Adaptive, which
	// then degrades to Benefit's static cost estimates. It is the only
	// NoAdaptive field below the root package; every engine layer reads
	// "no store" as "static".
	NoAdaptive bool

	// PerRowUDF disables the tight runtime's micro-batching, so every
	// read_udf call pays InvokeOverhead individually — the paper's per-row
	// UDF execution mode (7.72 vs 7.46 ms/tweet, §5.2.1). Off by default:
	// concurrent read_udf calls covering the same (attr, function set)
	// share one invocation payment.
	PerRowUDF bool

	// Quality, when set, is evaluated on the view's rows after every epoch
	// (e.g. F1 against ground truth); it feeds the progressive score.
	Quality func(rows []*expr.Row) float64

	// InvokeOverhead is the tight design's per-UDF-call cost.
	InvokeOverhead time.Duration

	// Recompute replaces IVM maintenance with from-scratch re-execution at
	// the end of each epoch — the strawman Exp 4 compares IVM against.
	Recompute bool

	// CollectDeltas retains each epoch's inserted/deleted result rows in
	// the EpochReport, so callers can fetch delta answers (§3.3.4) instead
	// of re-reading the whole view.
	CollectDeltas bool

	// Tracer, when non-nil, emits structured spans for every pipeline
	// phase: query.analyze and query.setup once, then per epoch epoch.plan,
	// epoch.enrich, epoch.determinize and epoch.refresh, annotated with the
	// epoch's (relation, attr, fn) targets and — on the parallel
	// determinize path — worker IDs. Nil costs nothing.
	Tracer *telemetry.Tracer

	// OnEpoch, when non-nil, is invoked synchronously after each completed
	// epoch with that epoch's report: delta sizes, enrichments executed and
	// skipped, coalesced UDF invocations, and the running quality. The run
	// blocks until it returns, so keep the callback cheap (or hand the
	// report off to a channel) when latency matters.
	OnEpoch func(EpochReport)

	// Cancel, when non-nil, stops the run at the next epoch boundary once
	// closed: the loop exits before planning another epoch and the run
	// returns the answer refined so far. Cancellation is not an error — a
	// canceled progressive query is just a less-refined one, exactly like
	// hitting MaxEpochs early.
	Cancel <-chan struct{}
}

// canceled reports whether the cancel channel (possibly nil) has fired.
func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// EpochReport is the per-epoch telemetry of a run.
type EpochReport struct {
	Epoch    int
	Planned  int   // PlanTable rows
	Executed int64 // enrichment functions actually run
	// Skipped counts planned executions the state bitmap (or singleflight
	// dedup) answered without running the function.
	Skipped int64
	// Coalesced (tight design) counts read_udf calls that shared another
	// call's invocation payment this epoch via micro-batching.
	Coalesced int64
	Quality   float64
	Wall      time.Duration

	PlanTime    time.Duration
	EnrichTime  time.Duration // function execution (server or in-DBMS)
	NetworkTime time.Duration // loose only
	DeltaTime   time.Duration // IVM apply (or re-execution with Recompute)

	Inserted, Deleted int
	// InsertedRows/DeletedRows hold the epoch's delta answers when
	// Config.CollectDeltas is set.
	InsertedRows, DeletedRows []*expr.Row
	PlanTableBytes            int64
	// EnrichErr is set when the epoch's whole enrichment batch was lost
	// (dead or hung server after retries); the epoch enriched nothing and
	// its triplets were re-planned (DESIGN §6).
	EnrichErr string
}

// Overheads aggregates the non-enrichment costs of Exp 4.
type Overheads struct {
	Setup  time.Duration // query setup: view materialization + probe queries
	Plan   time.Duration // plan selection across epochs
	Delta  time.Duration // delta answer computation across epochs
	State  time.Duration // state-table updates (from the manager)
	UDF    time.Duration // tight: UDF invocation time minus enrichment time
	Enrich time.Duration // total enrichment function execution time
}

// Result is the outcome of a progressive run.
type Result struct {
	Design  Design
	Epochs  []EpochReport
	Quality []float64 // per epoch, starting with e₀'s value
	Rows    []*expr.Row
	View    *ivm.View // nil when Recompute was set

	TotalEnrichments int64
	Overhead         Overheads

	// UDFPayments/UDFCoalesced (tight design only): invocation-overhead
	// payments made, and read_udf calls that rode along on another call's
	// payment via micro-batching.
	UDFPayments, UDFCoalesced int64

	PlanSpaceBytes int64 // at setup
	MaxPlanBytes   int64
	ViewBytes      int64

	// FailedEpochs counts epochs whose whole enrichment batch was lost to
	// a transport failure and that therefore enriched nothing (DESIGN §6).
	FailedEpochs int
}

// Run executes a query progressively per the paper's §3.3 loop: setup in
// epoch e₀ (materialize the IVM view, run probe queries into the
// PlanSpaceTable), then per epoch plan → enrich → maintain the view → report
// delta answers, until the plan space is exhausted or MaxEpochs is reached.
func Run(cfg Config) (*Result, error) {
	if cfg.DB == nil || cfg.Mgr == nil {
		return nil, fmt.Errorf("progressive: Config needs DB and Mgr")
	}
	if cfg.EpochBudget <= 0 {
		cfg.EpochBudget = 25 * time.Millisecond
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 200
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	sched := enrich.NewScheduler(cfg.Workers)
	if cfg.Enricher == nil {
		cfg.Enricher = &loose.LocalEnricher{Mgr: cfg.Mgr, Workers: cfg.Workers}
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed + 7))
	}
	if cfg.NoAdaptive {
		cfg.Stats = nil
	} else if cfg.Stats == nil && cfg.Strategy == Adaptive {
		cfg.Stats = stats.NewStore()
	}

	spAnalyze := cfg.Tracer.Start("query.analyze").Str("design", cfg.Design.String())
	a, err := engine.AnalyzeSQL(cfg.Query, cfg.DB.Catalog())
	if err != nil {
		spAnalyze.Str("error", err.Error()).End()
		return nil, err
	}
	spAnalyze.Int("tables", int64(len(a.Tables))).End()

	res := &Result{Design: cfg.Design}
	countersBefore := cfg.Mgr.Counters()
	ctx := engine.NewExecCtx()
	ctx.NoVector = cfg.NoVectorScan
	ctx.Adapt = cfg.Stats
	if !cfg.NoParallelScan && cfg.Workers > 1 {
		// The epoch scheduler doubles as the engine's scan pool, so plan
		// execution and enrichment share one worker budget.
		ctx.Pool = sched
	}
	reg := cfg.Mgr.Telemetry()
	epochWall := reg.Histogram("epoch.wall_ms", telemetry.LatencyBucketsMs)
	registerStorageGauges(reg, cfg.DB)

	// ---- Epoch e₀: query setup (§3.3.1). ----
	setupStart := time.Now()
	spSetup := cfg.Tracer.Start("query.setup")
	var view *ivm.View
	if !cfg.Recompute {
		view, err = ivm.New(a, cfg.DB, ctx)
		if err != nil {
			spSetup.Str("error", err.Error()).End()
			return nil, err
		}
		view.SetTelemetry(reg)
	}
	probes, err := loose.GenerateProbes(a, cfg.DB, cfg.Mgr, ctx)
	if err != nil {
		spSetup.Str("error", err.Error()).End()
		return nil, err
	}
	var entries []SpaceEntry
	for _, p := range probes {
		for _, tid := range p.TIDs {
			entries = append(entries, SpaceEntry{Alias: p.Alias, Relation: p.Relation, TID: tid, Attrs: p.Attrs})
		}
	}
	space := NewPlanSpace(entries)
	res.PlanSpaceBytes = space.SizeBytes()
	res.Overhead.Setup = time.Since(setupStart)
	spSetup.Int("probes", int64(len(probes))).
		Int("plan_space", int64(len(entries))).
		End()

	// The tight design's rewritten analysis and runtime are reused across
	// epochs. The runtime's UDF counters live on the manager's registry and
	// so accumulate across runs; remember their starting values to report
	// this run's deltas.
	var rwa *engine.Analysis
	var rt *tight.Runtime
	var callBefore time.Duration
	var payBefore, coalBefore int64
	if cfg.Design == Tight {
		rwa, err = tight.RewriteAnalysis(a)
		if err != nil {
			return nil, err
		}
		rt = tight.NewRuntime(cfg.DB, cfg.Mgr)
		rt.InvokeOverhead = cfg.InvokeOverhead
		rt.BatchUDF = !cfg.PerRowUDF
		callBefore = rt.CallTime()
		payBefore, coalBefore = rt.BatchStats()
	}

	record := func() {
		q := 0.0
		if cfg.Quality != nil {
			q = cfg.Quality(res.currentRows(view, a, cfg, ctx))
		}
		res.Quality = append(res.Quality, q)
	}
	record() // e₀ quality

	// ---- Epochs e₁..e_g. ----
	reExecBefore := cfg.Mgr.Counters().ReExecTime
	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		if canceled(cfg.Cancel) {
			break
		}
		if space.Compact(cfg.Mgr) == 0 {
			break
		}
		epochStart := time.Now()
		rep := EpochReport{Epoch: epoch}

		// Epochs are fixed-duration (§3.3.2): time the previous epoch spent
		// re-executing cutoff-pruned functions is charged against this
		// epoch's enrichment budget.
		reExecNow := cfg.Mgr.Counters().ReExecTime
		debt := reExecNow - reExecBefore
		reExecBefore = reExecNow
		budget := cfg.EpochBudget - debt
		if floor := cfg.EpochBudget / 10; budget < floor {
			budget = floor
		}

		planStart := time.Now()
		spPlan := cfg.Tracer.Start("epoch.plan").Epoch(epoch)
		plan := space.PlanStats(cfg.Mgr, cfg.Strategy, budget, rng, cfg.Stats)
		rep.PlanTime = time.Since(planStart)
		rep.Planned = len(plan)
		rep.PlanTableBytes = PlanSizeBytes(plan)
		spPlan.Int("planned", int64(len(plan))).
			Int("plan_bytes", rep.PlanTableBytes).
			Str("targets", targetsSummary(plan)).
			End()
		if rep.PlanTableBytes > res.MaxPlanBytes {
			res.MaxPlanBytes = rep.PlanTableBytes
		}
		res.Overhead.Plan += rep.PlanTime
		if len(plan) == 0 {
			break
		}

		// Snapshot the planned tuples before enrichment mutates them.
		snapshots := snapshotPlanned(cfg.DB, plan)

		execBefore := cfg.Mgr.Counters()
		var coalBeforeEpoch int64
		if rt != nil {
			_, coalBeforeEpoch = rt.BatchStats()
		}
		spEnrich := cfg.Tracer.Start("epoch.enrich").Epoch(epoch).
			Str("design", cfg.Design.String()).
			Str("targets", targetsSummary(plan))
		epochFailed := false
		switch cfg.Design {
		case Loose:
			timing, err := runLooseEpoch(cfg, sched, plan, epoch)
			if err != nil {
				// Whole-batch transport loss (DESIGN §6): the epoch enriched
				// nothing, but the query degrades rather than dies. The
				// planned triplets are not consumed, so the next epoch
				// re-plans exactly them — a recovered server resumes where
				// the dead one left off, and a dead-forever server just
				// yields the e₀ answer after MaxEpochs.
				spEnrich.Str("error", err.Error())
				rep.EnrichErr = err.Error()
				res.FailedEpochs++
				epochFailed = true
				break
			}
			rep.EnrichTime = timing.Compute
			rep.NetworkTime = timing.Network
		case Tight:
			enrichBefore := cfg.Mgr.Counters().EnrichTime
			if err := runTightEpoch(cfg, sched, a, rwa, rt, view, plan, ctx, epoch); err != nil {
				spEnrich.Str("error", err.Error()).End()
				return nil, err
			}
			rep.EnrichTime = cfg.Mgr.Counters().EnrichTime - enrichBefore
		}
		if !epochFailed {
			for _, it := range plan {
				space.Consume(it)
			}
		}
		execAfter := cfg.Mgr.Counters()
		rep.Executed = execAfter.Enrichments - execBefore.Enrichments
		rep.Skipped = execAfter.Skipped - execBefore.Skipped
		if rt != nil {
			_, coalNow := rt.BatchStats()
			rep.Coalesced = coalNow - coalBeforeEpoch
		}
		spEnrich.Int("executed", rep.Executed).
			Int("skipped", rep.Skipped).
			Int("coalesced", rep.Coalesced).
			End()
		if cfg.Design == Tight {
			// The tight design determinizes inside ReadUDF; emit a marker so
			// every epoch carries the full phase sequence.
			cfg.Tracer.Start("epoch.determinize").Epoch(epoch).Int("embedded", 1).End()
		}
		res.Overhead.Enrich += rep.EnrichTime

		// Maintain the answer (§3.3.3): IVM delta, or the re-execution
		// strawman.
		deltaStart := time.Now()
		spRefresh := cfg.Tracer.Start("epoch.refresh").Epoch(epoch)
		if cfg.Recompute {
			rows, err := executePlain(a, cfg.DB, ctx)
			if err != nil {
				spRefresh.Str("error", err.Error()).End()
				return nil, err
			}
			res.Rows = rows
			spRefresh.Int("recompute", 1).Int("rows", int64(len(rows))).End()
		} else {
			deltas := deltasFromSnapshots(cfg.DB, snapshots)
			d, err := view.Apply(ctx, deltas)
			if err != nil {
				spRefresh.Str("error", err.Error()).End()
				return nil, err
			}
			rep.Inserted = len(d.Inserted)
			rep.Deleted = len(d.Deleted)
			if cfg.CollectDeltas {
				rep.InsertedRows = d.Inserted
				rep.DeletedRows = d.Deleted
			}
			spRefresh.Int("inserted", int64(rep.Inserted)).
				Int("deleted", int64(rep.Deleted)).
				End()
		}
		rep.DeltaTime = time.Since(deltaStart)
		res.Overhead.Delta += rep.DeltaTime

		// Close the feedback loop (DESIGN §14): fold this epoch's observed
		// per-function costs and its answer impact into the stats store the
		// next epoch plans from.
		if cfg.Stats != nil {
			observeEpochStats(cfg.Stats, cfg.Mgr, plan, &rep)
		}

		rep.Wall = time.Since(epochStart)
		record()
		rep.Quality = res.Quality[len(res.Quality)-1]
		res.Epochs = append(res.Epochs, rep)
		reg.Counter("epoch.count").Inc()
		epochWall.Observe(float64(rep.Wall) / float64(time.Millisecond))
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(rep)
		}
	}

	if view != nil {
		res.Rows = view.Rows()
		res.View = view
		res.ViewBytes = view.SizeBytes()
	}
	counters := cfg.Mgr.Counters()
	res.TotalEnrichments = counters.Enrichments - countersBefore.Enrichments
	res.Overhead.State = counters.StateUpdateTime - countersBefore.StateUpdateTime
	if rt != nil {
		udf := (rt.CallTime() - callBefore) - (counters.EnrichTime - countersBefore.EnrichTime)
		if udf < 0 {
			udf = 0
		}
		res.Overhead.UDF = udf
		pay, coal := rt.BatchStats()
		res.UDFPayments, res.UDFCoalesced = pay-payBefore, coal-coalBefore
	}
	return res, nil
}

// observeEpochStats feeds one epoch's measurements into the stats store: per
// distinct planned (relation, attr, function) the function's cumulative mean
// cost and run count, and the epoch's answer impact — delta rows produced
// per function executed — attributed to every target the epoch advanced.
// Impact is computed from deterministic counts, so Adaptive plans stay
// reproducible wherever costs are pinned.
func observeEpochStats(st *stats.Store, mgr *enrich.Manager, plan []PlanItem, rep *EpochReport) {
	type key struct {
		rel  string
		attr string
		fn   int
	}
	seen := make(map[key]bool)
	executed := rep.Executed
	if executed < 1 {
		executed = 1
	}
	impact := float64(rep.Inserted+rep.Deleted) / float64(executed)
	for _, it := range plan {
		k := key{it.Relation, it.Attr, it.FnID}
		if seen[k] {
			continue
		}
		seen[k] = true
		fam := mgr.Family(it.Relation, it.Attr)
		if fam == nil || it.FnID < 0 || it.FnID >= len(fam.Functions) {
			continue
		}
		fn := fam.Functions[it.FnID]
		if runs, total := fn.Stats(); runs > 0 {
			st.ObserveFnCost(it.Relation, it.Attr, it.FnID, float64(total.Nanoseconds())/float64(runs), runs)
		}
		st.ObserveFnImpact(it.Relation, it.Attr, it.FnID, impact)
	}
}

// currentRows returns the rows to score quality on.
func (r *Result) currentRows(view *ivm.View, a *engine.Analysis, cfg Config, ctx *engine.ExecCtx) []*expr.Row {
	if view != nil {
		return view.Rows()
	}
	rows, err := executePlain(a, cfg.DB, ctx)
	if err != nil {
		return nil
	}
	return rows
}

func executePlain(a *engine.Analysis, db storage.Source, ctx *engine.ExecCtx) ([]*expr.Row, error) {
	plan, err := engine.Build(a, db)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx)
}

// snapshotPlanned clones each planned tuple once, keyed by (relation, tid).
func snapshotPlanned(db storage.Source, plan []PlanItem) map[[2]interface{}]*types.Tuple {
	snaps := make(map[[2]interface{}]*types.Tuple)
	for _, it := range plan {
		k := [2]interface{}{it.Relation, it.TID}
		if _, ok := snaps[k]; ok {
			continue
		}
		tbl, err := db.Table(it.Relation)
		if err != nil {
			continue
		}
		if tu := tbl.Get(it.TID); tu != nil {
			snaps[k] = tu.Clone()
		}
	}
	return snaps
}

func deltasFromSnapshots(db storage.Source, snaps map[[2]interface{}]*types.Tuple) []ivm.TupleDelta {
	var out []ivm.TupleDelta
	for k, old := range snaps {
		rel := k[0].(string)
		tbl, err := db.Table(rel)
		if err != nil {
			continue
		}
		out = append(out, ivm.TupleDelta{Relation: rel, Old: old, New: tbl.Get(old.ID)})
	}
	// The snapshot map iterates in random order; delta application order
	// decides the view's row order (and the per-epoch delta answers), so sort
	// by (relation, tuple) to keep every run — any worker count, any map seed
	// — byte-identical.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relation != out[j].Relation {
			return out[i].Relation < out[j].Relation
		}
		return out[i].Old.ID < out[j].Old.ID
	})
	return out
}

// runLooseEpoch executes the epoch's plan at the enrichment server and
// writes state and determined values back (§3.3.3, loose). The enrichment
// batch itself runs on the server's own pool; the DBMS-side determinization
// and base-table write-back run on the epoch scheduler, one worker per
// touched (relation, tuple, attribute).
func runLooseEpoch(cfg Config, sched *enrich.Scheduler, plan []PlanItem, epoch int) (loose.BatchTiming, error) {
	var reqs []loose.Request
	for _, it := range plan {
		if cfg.Mgr.Enriched(it.Relation, it.TID, it.Attr, it.FnID) {
			continue
		}
		feature, gen, err := featureOf(cfg.DB, it.Relation, it.TID, it.Attr)
		if errors.Is(err, errTupleGone) {
			// A committed delete raced the epoch; the plan item is moot.
			continue
		}
		if err != nil {
			return loose.BatchTiming{}, err
		}
		reqs = append(reqs, loose.Request{
			Relation: it.Relation, TID: it.TID, Attr: it.Attr, FnID: it.FnID,
			Feature: feature, Gen: gen,
		})
	}
	if len(reqs) == 0 {
		return loose.BatchTiming{}, nil
	}
	resps, timing, err := cfg.Enricher.EnrichBatch(reqs)
	if err != nil {
		return loose.BatchTiming{}, err
	}
	type ta struct {
		rel  string
		tid  int64
		attr string
	}
	touched := make(map[ta]bool)
	var keys []ta // first-touch order, so write-back is deterministic
	for _, r := range resps {
		if r.Failed() {
			// Best-effort: a failed request leaves its state bits unset, so
			// a later epoch's plan simply re-selects the same triplet.
			continue
		}
		if err := cfg.Mgr.ApplyOutputGen(r.Relation, r.TID, r.Attr, r.FnID, r.Probs, r.Gen); err != nil {
			return timing, err
		}
		k := ta{r.Relation, r.TID, r.Attr}
		if !touched[k] {
			touched[k] = true
			keys = append(keys, k)
		}
	}
	// Determinize and write back per touched attribute in parallel: each key
	// owns a distinct (tuple, attr) slot, the state and base tables serialize
	// their own writes, and Determine's cutoff re-executions dedup through
	// the manager's singleflight.
	err = sched.DoTraced(cfg.Tracer, "epoch.determinize", epoch, len(keys), func(i int) error {
		k := keys[i]
		feature, gen, err := featureOf(cfg.DB, k.rel, k.tid, k.attr)
		if errors.Is(err, errTupleGone) {
			// A committed delete raced the write-back; nothing to determinize.
			return nil
		}
		if err != nil {
			return err
		}
		v, err := cfg.Mgr.DetermineAt(k.rel, k.tid, k.attr, feature, gen)
		if err != nil {
			return err
		}
		tbl, err := cfg.DB.BaseTable(k.rel)
		if err != nil {
			return err
		}
		// Generation-guarded derived write: a base-table commit racing this
		// epoch invalidates the determinization instead of being clobbered.
		_, err = tbl.UpdateDerivedAt(k.tid, k.attr, v, gen)
		return err
	})
	return timing, err
}

// runTightEpoch evaluates the rewritten query over the epoch's planned
// tuples (§3.3.3, tight): the rewritten selection predicates run first —
// short-circuiting fixed and earlier derived conditions spares read_udf
// calls — and surviving rows are joined against the view's current inputs
// under the rewritten (UDF-bearing, nested-loop) join conditions, enriching
// join attributes lazily per pair.
//
// Selection rows are evaluated on the epoch scheduler: distinct tuples are
// independent (the manager serializes state per tuple, read_udf invocations
// micro-batch through the runtime's gate), the predicate tree is read-only
// after Resolve, and each evaluation gets its own EvalCtx. Survivors are
// collected in tuple-id order, so join input — and hence the enrichment work
// the join triggers — is identical at every worker count.
func runTightEpoch(cfg Config, sched *enrich.Scheduler, a, rwa *engine.Analysis, rt *tight.Runtime, view *ivm.View, plan []PlanItem, _ *engine.ExecCtx, epoch int) error {
	type af struct {
		attr string
		fn   int
	}
	// Planned triplets grouped by alias then tuple id.
	byAliasTID := make(map[string]map[int64][]af)
	for _, it := range plan {
		m := byAliasTID[it.Alias]
		if m == nil {
			m = make(map[int64][]af)
			byAliasTID[it.Alias] = m
		}
		m[it.TID] = append(m[it.TID], af{it.Attr, it.FnID})
	}

	rt.Planned = func(relation string, tid int64, attr string) []int {
		var out []int
		for alias, m := range byAliasTID {
			tm := a.Table(alias)
			if tm == nil || tm.Relation != relation {
				continue
			}
			for _, x := range m[tid] {
				if x.attr == attr {
					out = append(out, x.fn)
				}
			}
		}
		return out
	}
	defer func() { rt.Planned = nil }()

	ectx := engine.NewExecCtx()
	ectx.NoVector = cfg.NoVectorScan
	ectx.Adapt = cfg.Stats
	ectx.Eval.Runtime = rt

	for _, tm := range rwa.Tables {
		tidMap := byAliasTID[tm.Alias]
		if len(tidMap) == 0 {
			continue
		}
		tbl, err := cfg.DB.Table(tm.Relation)
		if err != nil {
			return err
		}
		rs := expr.SchemaForTable(tm.Alias, tm.Schema)
		tids := make([]int64, 0, len(tidMap))
		if cfg.Strategy == Adaptive {
			// The Adaptive plan ranks tuples by expected benefit-per-cost;
			// evaluate them in that order so a budget-cut epoch spent its
			// read_udf work on the highest-benefit tuples first. The plan
			// order is deterministic (no rng), so join input stays identical
			// at every worker count.
			seen := make(map[int64]bool, len(tidMap))
			for _, it := range plan {
				if it.Alias == tm.Alias && !seen[it.TID] {
					seen[it.TID] = true
					tids = append(tids, it.TID)
				}
			}
		} else {
			for tid := range tidMap {
				tids = append(tids, tid)
			}
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		}
		var rows []*expr.Row
		for _, tid := range tids {
			if tu := tbl.Get(tid); tu != nil {
				rows = append(rows, expr.RowFromTuple(rs, tu))
			}
		}
		// Rewritten selection over the planned tuples: this is where
		// read_udf fires for selection attributes.
		selPred := rewrittenSelPred(rwa, tm.Alias)
		if err := selPred.Resolve(rs); err != nil {
			return err
		}
		keep := make([]bool, len(rows))
		err = sched.DoTraced(cfg.Tracer, "tight.select", epoch, len(rows), func(i int) error {
			ev := &expr.EvalCtx{Runtime: rt}
			tv, evalErr := expr.EvalPred(ev, selPred, rows[i])
			if evalErr != nil {
				return evalErr
			}
			keep[i] = tv == expr.True
			return nil
		})
		if err != nil {
			return err
		}
		var survivors []*expr.Row
		for i, r := range rows {
			if keep[i] {
				survivors = append(survivors, r)
			}
		}
		if len(rwa.Tables) == 1 || len(survivors) == 0 || view == nil {
			continue
		}
		// Join the survivors against the other aliases' current view
		// inputs under the rewritten join conditions.
		leaves := make([]engine.Plan, len(rwa.Tables))
		for li, other := range rwa.Tables {
			if other.Alias == tm.Alias {
				leaves[li] = engine.NewRows(rs, survivors)
				continue
			}
			ors := expr.SchemaForTable(other.Alias, other.Schema)
			leaves[li] = engine.NewRows(ors, view.InputRows(other.Alias))
		}
		joinPlan, err := engine.BuildJoinTree(rwa, leaves)
		if err != nil {
			return err
		}
		if _, err := joinPlan.Execute(ectx); err != nil {
			return err
		}
	}
	return nil
}

// rewrittenSelPred conjoins the rewritten selection conditions of an alias,
// fixed conditions first (preserving the short-circuit savings).
func rewrittenSelPred(rwa *engine.Analysis, alias string) expr.Expr {
	var kids []expr.Expr
	for _, c := range rwa.Sel[alias] {
		if !c.Derived {
			kids = append(kids, c.E.Clone())
		}
	}
	for _, c := range rwa.Sel[alias] {
		if c.Derived {
			kids = append(kids, c.E.Clone())
		}
	}
	if len(kids) == 0 {
		return expr.TruePred{}
	}
	return expr.NewAnd(kids...)
}

// targetsSummary renders the plan's distinct (relation, attr, fn) triplets
// with their row counts as a compact, deterministic span annotation:
// "tweets.topic/0:12 tweets.topic/1:9".
func targetsSummary(plan []PlanItem) string {
	type key struct {
		rel  string
		attr string
		fn   int
	}
	counts := make(map[key]int)
	var order []key // first-appearance order; plan order is deterministic
	for _, it := range plan {
		k := key{it.Relation, it.Attr, it.FnID}
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.rel != b.rel {
			return a.rel < b.rel
		}
		if a.attr != b.attr {
			return a.attr < b.attr
		}
		return a.fn < b.fn
	})
	var sb strings.Builder
	for i, k := range order {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s.%s/%d:%d", k.rel, k.attr, k.fn, counts[k])
	}
	return sb.String()
}

// registerStorageGauges publishes the database's storage counters as
// storage.* gauges, computed at snapshot time. Registering the same DB twice
// (repeated runs over one manager) just replaces the closures.
func registerStorageGauges(reg *telemetry.Registry, db storage.Store) {
	reg.GaugeFunc("storage.inserts", func() int64 { return db.Stats().Inserts })
	reg.GaugeFunc("storage.deletes", func() int64 { return db.Stats().Deletes })
	reg.GaugeFunc("storage.updates", func() int64 { return db.Stats().Updates })
	reg.GaugeFunc("storage.compactions", func() int64 { return db.Stats().Compactions })
	reg.GaugeFunc("storage.live_tuples", func() int64 { return db.Stats().Live })
	reg.GaugeFunc("storage.tombstones", func() int64 { return db.Stats().Tombstones })
}

// errTupleGone marks a plan item whose tuple a concurrent committed delete
// removed between planning and execution; epochs skip it (read-committed)
// instead of aborting the query.
var errTupleGone = errors.New("progressive: tuple deleted during epoch")

// featureOf reads the tuple's feature vector for a derived attribute plus
// the fixed-data generation of the tuple image it was read from.
func featureOf(db storage.Source, relation string, tid int64, attr string) ([]float64, uint64, error) {
	tbl, err := db.Table(relation)
	if err != nil {
		return nil, 0, err
	}
	tu := tbl.Get(tid)
	if tu == nil {
		return nil, 0, errTupleGone
	}
	schema := tbl.Schema()
	col := schema.Col(attr)
	if col == nil {
		return nil, 0, fmt.Errorf("progressive: %s has no column %s", relation, attr)
	}
	return tu.Vals[schema.ColIndex(col.FeatureCol)].Vector(), tu.Gen, nil
}
