package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// ErrCanceled is returned by plan execution when the context's Done channel
// fires. Callers holding a context.Context translate it to ctx.Err().
var ErrCanceled = errors.New("engine: execution canceled")

// Stats collects executor counters; Exp 4 of the paper reports the UDF
// invocation counts gathered here together with expr.EvalCtx.
type Stats struct {
	RowsScanned int64
	JoinPairs   int64 // pairs evaluated by nested-loop joins
	HashJoins   int64
	NLJoins     int64
	IndexScans  int64
	// Vectorized-path counters: column batches built, tuple lanes pushed
	// through vector kernels, and lanes that fell back to row-at-a-time
	// residual evaluation (uncompiled conjunct suffix).
	BatchesBuilt      int64
	BatchRows         int64
	BatchFallbackRows int64
	// Adaptive-path counters: mid-scan conjunct reorders triggered by a
	// rank flip at a batch boundary, and hash joins that built on the
	// (smaller) left input instead of the default right side.
	AdaptiveReorders   int64
	AdaptiveBuildSwaps int64
}

// Publish adds the collected counters onto a telemetry registry under the
// engine.* names, so per-query executor stats roll up into the system-wide
// snapshot. The engine package stays telemetry-free: callers (loose/tight
// drivers, the progressive executor) pass the registry's counters through
// this narrow adding interface. A nil adder is a no-op.
func (s *Stats) Publish(add func(name string, delta int64)) {
	if s == nil || add == nil {
		return
	}
	add("engine.rows_scanned", s.RowsScanned)
	add("engine.join_pairs", s.JoinPairs)
	add("engine.hash_joins", s.HashJoins)
	add("engine.nl_joins", s.NLJoins)
	add("engine.index_scans", s.IndexScans)
	add("engine.batch_built", s.BatchesBuilt)
	add("engine.batch_rows", s.BatchRows)
	add("engine.batch_fallback_rows", s.BatchFallbackRows)
	add("engine.adaptive_reorders", s.AdaptiveReorders)
	add("engine.adaptive_build_swaps", s.AdaptiveBuildSwaps)
}

// Pool bounds data-parallel plan execution. It is satisfied by
// enrich.Scheduler (the progressive executor passes its scheduler through so
// scans and enrichment share one worker budget) without the engine importing
// the enrich package. Do runs fn(0..n-1) across the pool's workers and
// returns the first error.
type Pool interface {
	Workers() int
	Do(n int, fn func(i int) error) error
}

// ExecCtx carries runtime services through plan execution.
type ExecCtx struct {
	Eval  *expr.EvalCtx
	Stats *Stats
	// Arena amortizes row materialization; nil falls back to per-row
	// allocation (all arena methods are nil-safe).
	Arena *expr.RowArena
	// Pool, when non-nil with more than one worker, enables the partitioned
	// parallel scan+filter path. Leaving it nil keeps execution sequential.
	Pool Pool
	// CopyRows makes scans materialize rows with owned value slices instead
	// of aliasing the immutable stored tuples. The tight driver enables it
	// (together with Eval.PatchRows) so UDF evaluation can patch freshly
	// enriched derived values into rows already flowing through the plan.
	CopyRows bool
	// NoVector forces the row-at-a-time path even where a vectorized
	// filter-over-scan is available (ablations, equivalence testing).
	NoVector bool
	// ParallelMinRows is the table size below which a filter-over-scan stays
	// sequential even when a worker pool is available — fan-out costs more
	// than it saves on small inputs. Zero means DefaultParallelScanMinRows.
	// Living on the context (not a package variable) keeps concurrent
	// sessions from racing on each other's ablation settings.
	ParallelMinRows int
	// Done, when non-nil, cancels execution: plan nodes poll it between
	// batches of work and abort with ErrCanceled once it is closed. Wire it
	// to a context's Done channel to make long scans, filters and joins
	// killable mid-flight.
	Done <-chan struct{}
	// Prof, when non-nil, records a per-operator OpProfile tree (EXPLAIN
	// ANALYZE). Nil — the default — keeps every Execute wrapper on a single
	// nil-check branch with zero allocations.
	Prof *Profiler
	// Adapt, when non-nil, enables adaptive execution (DESIGN §14): filters
	// reorder their pure conjunct prefix cheapest-rejection-first, hash
	// joins pick the smaller build side at runtime, and observed
	// selectivities/cardinalities feed back into the store. Nil — the
	// default — is the exact pre-adaptive code path.
	Adapt *stats.Store
	// vec holds the context's reusable vectorized-scan buffers (snapshot,
	// batch, bitmaps); lazily built, never shared across goroutines.
	vec *vecBufs
}

// DefaultParallelScanMinRows is the default ExecCtx.ParallelMinRows.
const DefaultParallelScanMinRows = 4096

// parallelMinRows resolves the context's threshold.
func (ctx *ExecCtx) parallelMinRows() int {
	if ctx.ParallelMinRows > 0 {
		return ctx.ParallelMinRows
	}
	return DefaultParallelScanMinRows
}

// NewExecCtx returns a context with fresh counters, a fresh row arena, and
// no UDF runtime.
func NewExecCtx() *ExecCtx {
	return &ExecCtx{Eval: &expr.EvalCtx{}, Stats: &Stats{}, Arena: &expr.RowArena{}}
}

// cancelCheckStride is how many rows a loop processes between Done polls —
// frequent enough that cancellation lands within microseconds, rare enough
// that the poll never shows up in a profile.
const cancelCheckStride = 1024

// Fork returns the context a sub-execution of ctx runs on: one shard of a
// scatter, one partition of a parallel scan — anything that executes part of
// ctx's query on its own goroutine. This is the one list of what such a
// sub-execution inherits; a knob added to ExecCtx is threaded here or not at
// all.
func (ctx *ExecCtx) Fork() *ExecCtx {
	return &ExecCtx{
		// Counters, arena and eval scratch are not goroutine-safe: fresh per
		// fork, the parent folds in what it reports. The UDF runtime is
		// shared (it synchronizes itself).
		Eval:  &expr.EvalCtx{Runtime: ctx.Eval.Runtime},
		Stats: &Stats{},
		Arena: &expr.RowArena{},

		CopyRows:        ctx.CopyRows,
		NoVector:        ctx.NoVector,
		ParallelMinRows: ctx.ParallelMinRows,
		Done:            ctx.Done,
		Adapt:           ctx.Adapt,

		// Pool is not inherited: a fork already is one unit of the parent's
		// fan-out, and nesting another would oversubscribe the workers.
		// Prof is not inherited: the profiler tree is not goroutine-safe; the
		// parent records the fan-out as one node with inclusive figures.
	}
}

// forkPartition forks ctx for one partition of a parallel scan. Adapt is
// dropped: a partition sees only its slice, and its cardinalities would enter
// the store as the whole operator's, in scheduling order.
func (ctx *ExecCtx) forkPartition() *ExecCtx {
	p := ctx.Fork()
	p.Adapt = nil
	return p
}

// CancelErr polls the context's Done channel; ErrCanceled once it fired.
func (ctx *ExecCtx) CancelErr() error {
	if ctx.Done == nil {
		return nil
	}
	select {
	case <-ctx.Done:
		return ErrCanceled
	default:
		return nil
	}
}

// PublishStats publishes the executor counters plus the arena's allocation
// counters (engine.alloc_rows / engine.alloc_chunks) onto a telemetry adder.
func (ctx *ExecCtx) PublishStats(add func(name string, delta int64)) {
	ctx.Stats.Publish(add)
	if add == nil {
		return
	}
	rows, chunks := ctx.Arena.Counters()
	add("engine.alloc_rows", rows)
	add("engine.alloc_chunks", chunks)
}

// Plan is a node of an executable query plan. Execution is materialized:
// each node returns its full result set, which is appropriate at the data
// scales the progressive engine works with per epoch.
type Plan interface {
	Schema() *expr.RowSchema
	Execute(ctx *ExecCtx) ([]*expr.Row, error)
	// Explain renders the subtree, one node per line, indented.
	Explain(indent string) string
}

// Scan reads every tuple of a base table.
type Scan struct {
	Table storage.Relation
	Alias string
	rs    *expr.RowSchema
}

// NewScan builds a scan node.
func NewScan(t storage.Relation, alias string) *Scan {
	return &Scan{Table: t, Alias: alias, rs: expr.SchemaForTable(alias, t.Schema())}
}

// Schema returns the scan's row schema.
func (s *Scan) Schema() *expr.RowSchema { return s.rs }

// Execute materializes the table: one snapshot of the slab under the read
// lock, then lock-free arena-backed row wrapping.
func (s *Scan) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return s.materialize(ctx, s.Table.Tuples()), nil
	}
	n := ctx.profEnter("Scan", s.Table.Schema().Name+" AS "+s.Alias)
	out := s.materialize(ctx, s.Table.Tuples())
	n.RowsIn = int64(len(out))
	ctx.profExit(n, len(out), nil)
	return out, nil
}

// materialize wraps a tuple snapshot (or a partition of one) as executor
// rows, in order. The cardinality is known, so the arena's chunks are
// reserved up front: one allocation each for the row and TID arrays.
func (s *Scan) materialize(ctx *ExecCtx, tuples []*types.Tuple) []*expr.Row {
	ctx.Arena.Reserve(len(tuples), 0, len(tuples))
	out := make([]*expr.Row, len(tuples))
	if ctx.CopyRows {
		for i, tu := range tuples {
			out[i] = ctx.Arena.RowFromTupleCopy(s.rs, tu)
		}
	} else {
		for i, tu := range tuples {
			out[i] = ctx.Arena.RowFromTuple(s.rs, tu)
		}
	}
	ctx.Stats.RowsScanned += int64(len(out))
	return out
}

// Explain renders the node.
func (s *Scan) Explain(indent string) string {
	return fmt.Sprintf("%sScan %s AS %s\n", indent, s.Table.Schema().Name, s.Alias)
}

// Filter keeps rows whose predicate evaluates to True (Unknown drops the
// row, per SQL).
type Filter struct {
	Child Plan
	Pred  expr.Expr
	// hasUDF records whether the predicate contains a UDF call; UDF-bearing
	// predicates mutate shared enrichment state and never take the parallel
	// scan path.
	hasUDF bool
	// conjs is the predicate's top-level conjunct list in static order;
	// conjs[:pureN] is the leading UDF-free prefix the adaptive path may
	// permute (DESIGN §14) — everything from the first UDF-bearing conjunct
	// on keeps its order so enrichment side effects stay byte-identical.
	conjs []expr.Expr
	pureN int
	// vec is the predicate compiled to vector kernels, built once on first
	// vectorized execution (nil after vecOnce fires means not vectorizable).
	vec     *expr.VecPred
	vecOnce sync.Once
}

// NewFilter builds a filter node; the predicate must already be resolved
// against the child schema.
func NewFilter(child Plan, pred expr.Expr) *Filter {
	f := &Filter{Child: child, Pred: pred}
	pred.Walk(func(e expr.Expr) {
		if _, ok := e.(*expr.UDFCall); ok {
			f.hasUDF = true
		}
	})
	f.conjs = expr.Conjuncts(pred)
	for _, c := range f.conjs {
		if containsUDF(c) {
			break
		}
		f.pureN++
	}
	return f
}

// Schema returns the child schema.
func (f *Filter) Schema() *expr.RowSchema { return f.Child.Schema() }

// ownsResult reports whether a plan node's Execute returns a freshly built
// slice the caller may overwrite in place. Rows leaves share their backing
// slice with whoever built them (IVM view snapshots alias it), and unknown
// plan implementations default to the safe copy path.
func ownsResult(p Plan) bool {
	switch p.(type) {
	case *Scan, *IndexScan, *Filter, *Join, *Project, *Aggregate:
		return true
	default:
		return false
	}
}

// Execute filters the child's rows: in place on the child's slice when the
// child owns its result, via a partitioned parallel scan when the child is a
// bare table scan and a worker pool is attached.
func (f *Filter) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return f.execute(ctx)
	}
	n := ctx.profEnter("Filter", fmt.Sprint(f.Pred))
	out, err := f.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

func (f *Filter) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if s, ok := f.Child.(*Scan); ok {
		if out, handled, err := f.vecExecute(ctx, s); handled {
			return out, err
		}
		if !f.hasUDF && ctx.Pool != nil && ctx.Pool.Workers() > 1 {
			return f.scanFilter(ctx, s)
		}
	}
	in, err := f.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var out []*expr.Row
	if ownsResult(f.Child) {
		out = in[:0]
	}
	return f.filterInto(ctx, in, out)
}

// filterInto appends the rows of in that satisfy the predicate to out; out
// may alias in's prefix (the write index never passes the read index).
func (f *Filter) filterInto(ctx *ExecCtx, in, out []*expr.Row) ([]*expr.Row, error) {
	if ctx.Adapt != nil && f.pureN >= 2 {
		return f.filterAdaptive(ctx, in, out)
	}
	n0 := len(out)
	for i, r := range in {
		if i%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
		}
		tv, err := expr.EvalPred(ctx.Eval, f.Pred, r)
		if err != nil {
			return nil, err
		}
		if tv == expr.True {
			out = append(out, r)
		}
	}
	if ctx.Adapt != nil && len(in) > 0 {
		// Not enough pure conjuncts to reorder, but the observed pass rate
		// still feeds the cost model (EXPLAIN annotations, join ordering).
		ctx.Adapt.ObservePredicate(predKey(f.Pred), int64(len(in)), int64(len(out)-n0), -1)
	}
	return out, nil
}

// scanFilter fuses scan and filter over one slab snapshot, partitioning it
// contiguously across the pool's workers. Partition results are concatenated
// in partition order, so output order — and therefore every downstream
// result — is byte-identical to the sequential plan regardless of worker
// count or scheduling.
func (f *Filter) scanFilter(ctx *ExecCtx, s *Scan) ([]*expr.Row, error) {
	tuples := s.Table.Tuples()
	n := len(tuples)
	if n < ctx.parallelMinRows() {
		in := s.materialize(ctx, tuples)
		return f.filterInto(ctx, in, in[:0])
	}
	parts := ctx.Pool.Workers()
	if parts > n {
		parts = n
	}
	per := (n + parts - 1) / parts
	results := make([][]*expr.Row, parts)
	err := ctx.Pool.Do(parts, func(pi int) error {
		lo, hi := pi*per, (pi+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return nil
		}
		// The predicate is UDF-free (gated above), so no runtime state or
		// invocation counters are touched.
		pctx := ctx.forkPartition()
		in := s.materialize(pctx, tuples[lo:hi])
		out, err := f.filterInto(pctx, in, in[:0])
		results[pi] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	ctx.Stats.RowsScanned += int64(n)
	total := 0
	for _, p := range results {
		total += len(p)
	}
	out := make([]*expr.Row, 0, total)
	for _, p := range results {
		out = append(out, p...)
	}
	return out, nil
}

// Explain renders the subtree.
func (f *Filter) Explain(indent string) string {
	return fmt.Sprintf("%sFilter %s\n%s", indent, f.Pred, f.Child.Explain(indent+"  "))
}

// Join combines two inputs. When HashKeysL/R are set the join builds a hash
// table on the right input; otherwise it runs a nested loop evaluating Cond
// per pair. The distinction matters for the paper's Q8 result: the tight
// design's rewritten join conditions contain disjunctions and UDFs, which
// rule out the hash strategy.
type Join struct {
	L, R Plan
	rs   *expr.RowSchema

	// HashKeysL/R are column indexes (into the combined schema for L, and
	// into R's own schema offset by L's width) of equi-join keys. Empty
	// slices select the nested-loop strategy.
	HashKeysL, HashKeysR []int
	// Cond is the residual condition evaluated on each combined row
	// (TruePred when the hash keys cover the whole join condition).
	Cond expr.Expr
}

// NewJoin builds a join node over the concatenated schema.
func NewJoin(l, r Plan) *Join {
	return &Join{L: l, R: r, rs: expr.Concat(l.Schema(), r.Schema()), Cond: expr.TruePred{}}
}

// Schema returns the combined schema.
func (j *Join) Schema() *expr.RowSchema { return j.rs }

// Hash reports whether the hash strategy is selected.
func (j *Join) Hash() bool { return len(j.HashKeysL) > 0 }

// Execute runs the join.
func (j *Join) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return j.execute(ctx)
	}
	name := "NestedLoopJoin"
	if j.Hash() {
		name = "HashJoin"
	}
	n := ctx.profEnter(name, fmt.Sprintf("on %s", j.Cond))
	out, err := j.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

func (j *Join) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	left, err := j.L.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.R.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return j.joinRows(ctx, left, right)
}

// joinRows joins two materialized inputs; exported via JoinMaterialized for
// the IVM module, which re-joins deltas against stored inputs.
func (j *Join) joinRows(ctx *ExecCtx, left, right []*expr.Row) ([]*expr.Row, error) {
	// A TruePred residual means the keys cover the whole join condition —
	// nothing to evaluate per emitted row.
	_, condTrue := j.Cond.(expr.TruePred)
	var out []*expr.Row
	if j.Hash() {
		ctx.Stats.HashJoins++
		rOffset := len(j.L.Schema().Cols)
		if ctx.Adapt != nil && len(left)*adaptiveBuildSwapFactor <= len(right) {
			// Runtime build-side selection: both inputs are materialized, so
			// the cardinalities are exact — build on the clearly smaller
			// left input. Output order is byte-identical (see
			// hashJoinBuildLeft); only memory and probe cost move.
			ctx.Stats.AdaptiveBuildSwaps++
			swapped, err := j.hashJoinBuildLeft(ctx, left, right, rOffset, condTrue)
			if err == nil {
				ctx.Adapt.ObserveOp(j.opKey(), int64(len(left)+len(right)), int64(len(swapped)))
			}
			return swapped, err
		}
		if fast, ok, err := j.hashJoinInt(ctx, left, right, rOffset); ok {
			if err == nil && ctx.Adapt != nil {
				ctx.Adapt.ObserveOp(j.opKey(), int64(len(left)+len(right)), int64(len(fast)))
			}
			return fast, err
		}
		ht := make(map[uint64][]*expr.Row, len(right))
		for _, r := range right {
			h, ok := hashRowKey(r, j.HashKeysR, rOffset)
			if !ok {
				continue // NULL join keys never match (SQL semantics)
			}
			ht[h] = append(ht[h], r)
		}
		for li, l := range left {
			if li%cancelCheckStride == 0 {
				if err := ctx.CancelErr(); err != nil {
					return nil, err
				}
			}
			h, ok := hashRowKey(l, j.HashKeysL, 0)
			if !ok {
				continue
			}
			for _, r := range ht[h] {
				// Hash equality is necessary, not sufficient: verify the key
				// columns before emitting (collisions never produce rows).
				if !joinKeysEqual(l, j.HashKeysL, r, j.HashKeysR, rOffset) {
					continue
				}
				row := ctx.Arena.JoinRows(j.rs, l, r)
				if condTrue {
					out = append(out, row)
					continue
				}
				tv, err := expr.EvalPred(ctx.Eval, j.Cond, row)
				if err != nil {
					return nil, err
				}
				if tv == expr.True {
					out = append(out, row)
				}
			}
		}
		if ctx.Adapt != nil {
			ctx.Adapt.ObserveOp(j.opKey(), int64(len(left)+len(right)), int64(len(out)))
		}
		return out, nil
	}
	ctx.Stats.NLJoins++
	for _, l := range left {
		if err := ctx.CancelErr(); err != nil {
			return nil, err
		}
		for _, r := range right {
			ctx.Stats.JoinPairs++
			row := ctx.Arena.JoinRows(j.rs, l, r)
			if condTrue {
				out = append(out, row)
				continue
			}
			tv, err := expr.EvalPred(ctx.Eval, j.Cond, row)
			if err != nil {
				return nil, err
			}
			if tv == expr.True {
				// The combined row owns its values (JoinRows copies), so a
				// UDF-bearing condition (tight design) patched any values it
				// enriched into `row` itself — emit it as evaluated.
				out = append(out, row)
			}
		}
	}
	if ctx.Adapt != nil {
		ctx.Adapt.ObserveOp(j.opKey(), int64(len(left)+len(right)), int64(len(out)))
	}
	return out, nil
}

// hashJoinInt is the single-INT-key join fast path: probe a map[int64]
// directly instead of hashing values. Exact integer equality replaces the
// hash-then-verify dance. Returns ok=false — fall back to the generic hashed
// join — when the key is composite or a non-NULL build-side key is not INT.
func (j *Join) hashJoinInt(ctx *ExecCtx, left, right []*expr.Row, rOffset int) ([]*expr.Row, bool, error) {
	if len(j.HashKeysL) != 1 {
		return nil, false, nil
	}
	lk, rk := j.HashKeysL[0], j.HashKeysR[0]-rOffset
	// Grouped (CSR-style) build table: a pointer-free map from key to a span
	// in one shared rows array, instead of one []*Row per distinct key. The
	// garbage collector never scans the span map, and the build side costs
	// two allocations regardless of key cardinality. A missing key yields the
	// zero span {0, 0}, i.e. an empty match list.
	type span struct{ off, n int32 }
	spans := make(map[int64]span, len(right))
	for _, r := range right {
		v := r.Vals[rk]
		if v.IsNull() {
			continue // NULL join keys never match
		}
		if v.Kind() != types.KindInt {
			return nil, false, nil
		}
		s := spans[v.Int()]
		s.n++
		spans[v.Int()] = s
	}
	var off int32
	for k, s := range spans {
		spans[k] = span{off: off} // n restarts at 0 as the fill cursor
		off += s.n
	}
	build := make([]*expr.Row, off)
	for _, r := range right {
		v := r.Vals[rk]
		if v.IsNull() {
			continue
		}
		s := spans[v.Int()]
		build[s.off+s.n] = r
		s.n++
		spans[v.Int()] = s
	}
	if _, condTrue := j.Cond.(expr.TruePred); condTrue {
		// The keys cover the whole join condition: no residual to evaluate,
		// and the output cardinality is countable up front, so the output
		// slice and the arena's chunks are sized exactly.
		total := 0
		for _, l := range left {
			if v := l.Vals[lk]; !v.IsNull() && v.Kind() == types.KindInt {
				total += int(spans[v.Int()].n)
			}
		}
		ctx.Arena.Reserve(total, total*len(j.rs.Cols), total*len(j.rs.Slots))
		out := make([]*expr.Row, 0, total)
		for li, l := range left {
			if li%cancelCheckStride == 0 {
				if err := ctx.CancelErr(); err != nil {
					return nil, true, err
				}
			}
			v := l.Vals[lk]
			if v.IsNull() || v.Kind() != types.KindInt {
				continue
			}
			s := spans[v.Int()]
			for _, r := range build[s.off : s.off+s.n] {
				out = append(out, ctx.Arena.JoinRows(j.rs, l, r))
			}
		}
		return out, true, nil
	}
	var out []*expr.Row
	for li, l := range left {
		if li%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, true, err
			}
		}
		v := l.Vals[lk]
		if v.IsNull() || v.Kind() != types.KindInt {
			continue // non-INT probe keys can never equal an INT build key
		}
		s := spans[v.Int()]
		for _, r := range build[s.off : s.off+s.n] {
			row := ctx.Arena.JoinRows(j.rs, l, r)
			tv, err := expr.EvalPred(ctx.Eval, j.Cond, row)
			if err != nil {
				return nil, true, err
			}
			if tv == expr.True {
				out = append(out, row)
			}
		}
	}
	return out, true, nil
}

// JoinMaterialized exposes the join kernel over explicit inputs (IVM delta
// evaluation joins ΔL against stored R and vice versa).
func (j *Join) JoinMaterialized(ctx *ExecCtx, left, right []*expr.Row) ([]*expr.Row, error) {
	return j.joinRows(ctx, left, right)
}

// hashRowKey hashes the composite equi-join key through the shared
// types.Hasher; ok is false when any key column is NULL (such rows can never
// match under three-valued logic).
func hashRowKey(r *expr.Row, keys []int, offset int) (uint64, bool) {
	h := types.NewHasher()
	for _, k := range keys {
		v := r.Vals[k-offset]
		if v.IsNull() {
			return 0, false
		}
		h.WriteValue(v)
	}
	return h.Sum64(), true
}

// joinKeysEqual verifies a hash-bucket candidate pair column by column.
func joinKeysEqual(l *expr.Row, lKeys []int, r *expr.Row, rKeys []int, rOffset int) bool {
	for i := range lKeys {
		if !types.KeyEqual(l.Vals[lKeys[i]], r.Vals[rKeys[i]-rOffset]) {
			return false
		}
	}
	return true
}

// Explain renders the subtree.
func (j *Join) Explain(indent string) string {
	strategy := "NestedLoopJoin"
	if j.Hash() {
		strategy = "HashJoin"
	}
	return fmt.Sprintf("%s%s on %s\n%s%s", indent, strategy, j.Cond,
		j.L.Explain(indent+"  "), j.R.Explain(indent+"  "))
}

// AggSpec is one aggregate in the select list, resolved against the child
// schema (ColIndex < 0 for COUNT(*)).
type AggSpec struct {
	Kind     sqlparser.AggKind
	ColIndex int
	Name     string
}

// Aggregate groups its input and computes the aggregates. With no group-by
// columns it produces a single row over the whole input.
type Aggregate struct {
	Child   Plan
	GroupBy []int // column indexes into the child schema
	Aggs    []AggSpec
	rs      *expr.RowSchema
}

// Schema returns the aggregation output schema: group columns then
// aggregates, arranged per the select list.
func (a *Aggregate) Schema() *expr.RowSchema { return a.rs }

// Execute runs hash aggregation.
func (a *Aggregate) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return a.execute(ctx)
	}
	names := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		names[i] = s.Name
	}
	n := ctx.profEnter("Aggregate", fmt.Sprintf("group=%v aggs=%s", a.GroupBy, strings.Join(names, ",")))
	out, err := a.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

func (a *Aggregate) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	in, err := a.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return a.AggregateRows(in)
}

// aggState accumulates one group.
type aggState struct {
	groupVals []types.Value
	count     []int64   // per agg: rows contributing
	sum       []float64 // per agg: running sum
	minmax    []types.Value
	rows      int64 // COUNT(*) denominator
}

// AggregateRows aggregates explicit input rows (shared with tests; IVM keeps
// its own incremental group state instead).
func (a *Aggregate) AggregateRows(in []*expr.Row) ([]*expr.Row, error) {
	groups := make(map[string]*aggState)
	var order []string
	for _, r := range in {
		key := r.Key(a.GroupBy)
		st, ok := groups[key]
		if !ok {
			gv := make([]types.Value, len(a.GroupBy))
			for i, gi := range a.GroupBy {
				gv[i] = r.Vals[gi]
			}
			st = &aggState{
				groupVals: gv,
				count:     make([]int64, len(a.Aggs)),
				sum:       make([]float64, len(a.Aggs)),
				minmax:    make([]types.Value, len(a.Aggs)),
			}
			groups[key] = st
			order = append(order, key)
		}
		st.rows++
		for ai, spec := range a.Aggs {
			if spec.ColIndex < 0 { // COUNT(*)
				continue
			}
			v := r.Vals[spec.ColIndex]
			if v.IsNull() {
				continue
			}
			st.count[ai]++
			switch spec.Kind {
			case sqlparser.AggSum, sqlparser.AggAvg:
				st.sum[ai] += v.Float()
			case sqlparser.AggMin:
				if st.minmax[ai].IsNull() {
					st.minmax[ai] = v
				} else if c, ok := v.Compare(st.minmax[ai]); ok && c < 0 {
					st.minmax[ai] = v
				}
			case sqlparser.AggMax:
				if st.minmax[ai].IsNull() {
					st.minmax[ai] = v
				} else if c, ok := v.Compare(st.minmax[ai]); ok && c > 0 {
					st.minmax[ai] = v
				}
			}
		}
	}
	sort.Strings(order) // deterministic output
	out := make([]*expr.Row, 0, len(order))
	for _, key := range order {
		st := groups[key]
		vals := make([]types.Value, len(a.rs.Cols))
		for i := range a.GroupBy {
			vals[i] = st.groupVals[i]
		}
		base := len(a.GroupBy)
		for ai, spec := range a.Aggs {
			vals[base+ai] = finishAgg(spec, st, ai)
		}
		out = append(out, &expr.Row{Schema: a.rs, Vals: vals})
	}
	return out, nil
}

func finishAgg(spec AggSpec, st *aggState, ai int) types.Value {
	switch spec.Kind {
	case sqlparser.AggCount:
		if spec.ColIndex < 0 {
			return types.NewInt(st.rows)
		}
		return types.NewInt(st.count[ai])
	case sqlparser.AggSum:
		if st.count[ai] == 0 {
			return types.Null
		}
		return types.NewFloat(st.sum[ai])
	case sqlparser.AggAvg:
		if st.count[ai] == 0 {
			return types.Null
		}
		return types.NewFloat(st.sum[ai] / float64(st.count[ai]))
	case sqlparser.AggMin, sqlparser.AggMax:
		return st.minmax[ai]
	default:
		return types.Null
	}
}

// Explain renders the subtree.
func (a *Aggregate) Explain(indent string) string {
	names := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		names[i] = s.Name
	}
	return fmt.Sprintf("%sAggregate group=%v aggs=%s\n%s", indent, a.GroupBy,
		strings.Join(names, ","), a.Child.Explain(indent+"  "))
}

// Project narrows the child's rows to the listed column indexes.
type Project struct {
	Child Plan
	Cols  []int
	rs    *expr.RowSchema
}

// NewProject builds a projection node.
func NewProject(child Plan, cols []int) *Project {
	crs := child.Schema()
	rs := &expr.RowSchema{Slots: crs.Slots, Cols: make([]expr.ColInfo, len(cols))}
	for i, ci := range cols {
		rs.Cols[i] = crs.Cols[ci]
	}
	return &Project{Child: child, Cols: cols, rs: rs}
}

// Schema returns the projected schema.
func (p *Project) Schema() *expr.RowSchema { return p.rs }

// Execute projects the child's rows. TIDs are preserved so downstream
// consumers can still identify base tuples.
func (p *Project) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return p.execute(ctx)
	}
	n := ctx.profEnter("Project", fmt.Sprint(p.Cols))
	out, err := p.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

func (p *Project) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if out, handled, err := p.vecExecute(ctx); handled {
		return out, err
	}
	in, err := p.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*expr.Row, len(in))
	for i, r := range in {
		vals := ctx.Arena.ValSlice(len(p.Cols))
		for vi, ci := range p.Cols {
			vals[vi] = r.Vals[ci]
		}
		out[i] = ctx.Arena.NewRow(p.rs, vals, r.TIDs)
	}
	return out, nil
}

// Explain renders the subtree.
func (p *Project) Explain(indent string) string {
	return fmt.Sprintf("%sProject %v\n%s", indent, p.Cols, p.Child.Explain(indent+"  "))
}
