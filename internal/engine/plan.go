package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"enrichdb/internal/expr"
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
	// Vectorized-path counters: column batches built, tuple lanes pushed
	// through vector kernels, and lanes that fell back to row-at-a-time
	// residual evaluation (uncompiled conjunct suffix).
	BatchesBuilt      int64
	BatchRows         int64
	BatchFallbackRows int64
	// MarkChunksDecided counts batches whose chunk a mark test (a loose
	// probe's AnyUnenriched, a tight guard's pending test) decided from the
	// chunk's mark-vector AND, reading no lane.
	MarkChunksDecided int64
	// AdaptiveBuildSwaps counts hash joins that built on the (smaller) left
	// input instead of the default right side.
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
	add("engine.batch_built", s.BatchesBuilt)
	add("engine.batch_rows", s.BatchRows)
	add("engine.batch_fallback_rows", s.BatchFallbackRows)
	add("engine.mark_chunks_decided", s.MarkChunksDecided)
	add("engine.adaptive_build_swaps", s.AdaptiveBuildSwaps)
}

// ExecCtx carries runtime services through plan execution. A plan runs on
// its caller's goroutine; only shard.Scatter fans one out (see Fork).
type ExecCtx struct {
	Eval  *expr.EvalCtx
	Stats *Stats
	// Arena amortizes row materialization; nil falls back to per-row
	// allocation (all arena methods are nil-safe).
	Arena *expr.RowArena
	// NoVector forces the row-at-a-time path even where a vectorized
	// filter-over-scan is available (ablations, equivalence testing).
	NoVector bool
	// Done, when non-nil, cancels execution: plan nodes poll it between
	// batches of work and abort with ErrCanceled once it is closed. Wire it
	// to a context's Done channel to make long scans, filters and joins
	// killable mid-flight.
	Done <-chan struct{}
	// Prof, when non-nil, records a per-operator OpProfile tree (EXPLAIN
	// ANALYZE). Nil — the default — keeps every Execute wrapper on a single
	// nil-check branch with zero allocations.
	Prof *Profiler
	// Adapt, when non-nil, enables adaptive execution (DESIGN §14): every
	// filter reports its pass rate once per execution, hash joins pick the
	// smaller build side at runtime and report their cardinalities. Nil —
	// the default — is the exact pre-adaptive code path.
	Adapt *stats.Store
	// vec holds the context's reusable vectorized-scan buffers (snapshot,
	// batch, bitmaps); lazily built, never shared across goroutines.
	vec *vecBufs
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

// Fork returns the context one shard of a shard.Scatter runs on: the only
// place a query's plan executes off its caller's goroutine. This is the one
// list of what such a sub-execution inherits; a knob added to ExecCtx is
// threaded here or not at all.
func (ctx *ExecCtx) Fork() *ExecCtx {
	return &ExecCtx{
		// Counters, arena and eval scratch are not goroutine-safe: fresh per
		// fork, the parent folds in what it reports. The UDF runtime is
		// shared (it synchronizes itself).
		Eval:  &expr.EvalCtx{Runtime: ctx.Eval.Runtime, PatchRows: ctx.Eval.PatchRows},
		Stats: &Stats{},
		Arena: &expr.RowArena{},

		NoVector: ctx.NoVector,
		Done:     ctx.Done,
		Adapt:    ctx.Adapt,

		// Prof is not inherited: the profiler tree is not goroutine-safe; the
		// parent records the fan-out as one node with inclusive figures.
	}
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

// Answer is a plan's result: Cols when a projection's fused scan branch
// answered in columns (see Project.vecExecute), Rows otherwise.
type Answer struct {
	Cols *expr.Columns
	Rows []*expr.Row
}

// ExecuteAnswer runs p and answers its result as the plan built it:
// columns from a projection's fused scan branch, rows from everything else.
// Plan.Execute is its row view.
func ExecuteAnswer(p Plan, ctx *ExecCtx) (Answer, error) {
	if pr, ok := p.(*Project); ok {
		return pr.run(ctx)
	}
	rows, err := p.Execute(ctx)
	return Answer{Rows: rows}, err
}

// Len returns the row count.
func (a Answer) Len() int {
	if a.Cols != nil {
		return a.Cols.Len()
	}
	return len(a.Rows)
}

// View returns the answer as rows over schema rs: Rows, or the row view of
// Cols.
func (a Answer) View(rs *expr.RowSchema) []*expr.Row {
	if a.Cols != nil {
		return a.Cols.Rows(rs)
	}
	return a.Rows
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

// Execute materializes the table: its sealed chunks, taken once, then
// lock-free arena-backed row wrapping.
func (s *Scan) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return s.materialize(ctx), nil
	}
	n := ctx.profEnter("Scan", s.Table.Schema().Name+" AS "+s.Alias)
	out := s.materialize(ctx)
	n.RowsIn = int64(len(out))
	ctx.profExit(n, len(out), nil)
	return out, nil
}

// materialize wraps the table's sealed chunks as executor rows, in order.
// The cardinality is known, so the arena's chunks are reserved up front:
// one allocation each for the row and TID arrays.
func (s *Scan) materialize(ctx *ExecCtx) []*expr.Row {
	chunks, n := ctx.scanChunks(s.Table)
	ctx.Arena.Reserve(n, 0, n)
	out := make([]*expr.Row, 0, n)
	for _, c := range chunks {
		for _, tu := range c.Tuples {
			if ctx.Eval.PatchRows {
				out = append(out, ctx.Arena.RowFromTupleCopy(s.rs, tu))
			} else {
				out = append(out, ctx.Arena.RowFromTuple(s.rs, tu))
			}
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
	// Pred's conjuncts are always evaluated in their static order (fixed
	// before derived, see splitSelPred).
	Pred expr.Expr
	// vec is the predicate compiled to vector kernels, built once on first
	// vectorized execution (nil after vecOnce fires means not vectorizable).
	vec     *expr.VecPred
	vecOnce sync.Once
}

// NewFilter builds a filter node; the predicate must already be resolved
// against the child schema.
func NewFilter(child Plan, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema returns the child schema.
func (f *Filter) Schema() *expr.RowSchema { return f.Child.Schema() }

// ownsResult reports whether a plan node's Execute returns a freshly built
// slice the caller may overwrite in place. Rows leaves share their backing
// slice with whoever built them (IVM view snapshots alias it), and unknown
// plan implementations default to the safe copy path.
func ownsResult(p Plan) bool {
	switch p.(type) {
	case *Scan, *Filter, *Join, *Project, *Aggregate:
		return true
	default:
		return false
	}
}

// Execute filters the child's rows: through the vector kernels when the
// child is a bare table scan the predicate compiles over, else in place on
// the child's slice when the child owns its result.
func (f *Filter) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return f.execute(ctx)
	}
	n := ctx.profEnter("Filter", fmt.Sprint(f.Pred))
	out, err := f.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

// execute runs whichever path applies and reports the execution's pass rate
// to the stats store once, so the store sees the same observation on the row
// and vector paths alike.
func (f *Filter) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	out, rowsIn, err := f.run(ctx)
	if err == nil {
		f.observe(ctx, rowsIn, len(out))
	}
	return out, err
}

// run returns the filter's output and the number of rows it evaluated.
func (f *Filter) run(ctx *ExecCtx) ([]*expr.Row, int, error) {
	if s, ok := f.Child.(*Scan); ok {
		if out, n, handled, err := f.vecExecute(ctx, s); handled {
			return out, n, err
		}
	}
	in, err := f.Child.Execute(ctx)
	if err != nil {
		return nil, 0, err
	}
	var out []*expr.Row
	if ownsResult(f.Child) {
		out = in[:0]
	}
	out, err = f.filterInto(ctx, in, out)
	return out, len(in), err
}

// observe reports rowsOut of rowsIn passing the predicate to the stats store.
func (f *Filter) observe(ctx *ExecCtx, rowsIn, rowsOut int) {
	if ctx.Adapt != nil {
		ctx.Adapt.ObservePredicate(predKey(f.Pred), int64(rowsIn), int64(rowsOut))
	}
}

// filterInto appends the rows of in that satisfy the predicate to out; out
// may alias in's prefix (the write index never passes the read index).
func (f *Filter) filterInto(ctx *ExecCtx, in, out []*expr.Row) ([]*expr.Row, error) {
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

// joinRows joins two materialized inputs.
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
		if j.intKey() {
			fast, err := j.hashJoinInt(ctx, left, right, rOffset)
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

// intKey reports whether the join has one key, declared INT on both sides:
// every non-NULL key cell is then an INT, since storage refuses any other.
func (j *Join) intKey() bool {
	return len(j.HashKeysL) == 1 && j.rs.Cols[j.HashKeysL[0]].Kind == types.KindInt &&
		j.rs.Cols[j.HashKeysR[0]].Kind == types.KindInt
}

// hashJoinInt is the single-INT-key join fast path (see intKey): probe a
// map[int64] directly instead of hashing values. Exact integer equality
// replaces the hash-then-verify dance.
func (j *Join) hashJoinInt(ctx *ExecCtx, left, right []*expr.Row, rOffset int) ([]*expr.Row, error) {
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
			if v := l.Vals[lk]; !v.IsNull() {
				total += int(spans[v.Int()].n)
			}
		}
		ctx.Arena.Reserve(total, total*len(j.rs.Cols), total*len(j.rs.Slots))
		out := make([]*expr.Row, 0, total)
		for li, l := range left {
			if li%cancelCheckStride == 0 {
				if err := ctx.CancelErr(); err != nil {
					return nil, err
				}
			}
			v := l.Vals[lk]
			if v.IsNull() {
				continue
			}
			s := spans[v.Int()]
			for _, r := range build[s.off : s.off+s.n] {
				out = append(out, ctx.Arena.JoinRows(j.rs, l, r))
			}
		}
		return out, nil
	}
	var out []*expr.Row
	for li, l := range left {
		if li%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
		}
		v := l.Vals[lk]
		if v.IsNull() {
			continue
		}
		s := spans[v.Int()]
		for _, r := range build[s.off : s.off+s.n] {
			row := ctx.Arena.JoinRows(j.rs, l, r)
			tv, err := expr.EvalPred(ctx.Eval, j.Cond, row)
			if err != nil {
				return nil, err
			}
			if tv == expr.True {
				out = append(out, row)
			}
		}
	}
	return out, nil
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

// Aggregate groups its input and counts each group's rows: COUNT(*) is the
// one aggregate. With no group-by columns it produces a single row over the
// whole input.
type Aggregate struct {
	Child   Plan
	GroupBy []int    // column indexes into the child schema
	Aggs    []string // one COUNT(*) output column per select-list count, by name
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
	n := ctx.profEnter("Aggregate", fmt.Sprintf("group=%v aggs=%s", a.GroupBy, strings.Join(a.Aggs, ",")))
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
	rows      int64
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
			st = &aggState{groupVals: gv}
			groups[key] = st
			order = append(order, key)
		}
		st.rows++
	}
	sort.Strings(order) // deterministic output
	out := make([]*expr.Row, 0, len(order))
	for _, key := range order {
		st := groups[key]
		out = append(out, &expr.Row{Schema: a.rs, Vals: a.GroupRow(st.groupVals, st.rows)})
	}
	return out, nil
}

// GroupRow is the output row of a group: its group-by values, then its row
// count once per COUNT(*) in the select list.
func (a *Aggregate) GroupRow(groupVals []types.Value, rows int64) []types.Value {
	vals := make([]types.Value, len(a.rs.Cols))
	copy(vals, groupVals)
	for i := len(groupVals); i < len(vals); i++ {
		vals[i] = types.NewInt(rows)
	}
	return vals
}

// Explain renders the subtree.
func (a *Aggregate) Explain(indent string) string {
	return fmt.Sprintf("%sAggregate group=%v aggs=%s\n%s", indent, a.GroupBy,
		strings.Join(a.Aggs, ","), a.Child.Explain(indent+"  "))
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
	ans, err := p.run(ctx)
	return ans.View(p.rs), err
}

// run is the projection's answer before any row view: see ExecuteAnswer.
func (p *Project) run(ctx *ExecCtx) (Answer, error) {
	if ctx.Prof == nil {
		return p.execute(ctx)
	}
	n := ctx.profEnter("Project", fmt.Sprint(p.Cols))
	ans, err := p.execute(ctx)
	ctx.profExit(n, ans.Len(), err)
	return ans, err
}

func (p *Project) execute(ctx *ExecCtx) (Answer, error) {
	if ans, handled, err := p.vecExecute(ctx); handled {
		return ans, err
	}
	in, err := p.Child.Execute(ctx)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Rows: p.project(ctx, in)}, nil
}

// project narrows each row to the projected columns, keeping its TIDs.
func (p *Project) project(ctx *ExecCtx, in []*expr.Row) []*expr.Row {
	out := make([]*expr.Row, len(in))
	for i, r := range in {
		vals := ctx.Arena.ValSlice(len(p.Cols))
		for vi, ci := range p.Cols {
			vals[vi] = r.Vals[ci]
		}
		out[i] = ctx.Arena.NewRow(p.rs, vals, r.TIDs)
	}
	return out
}

// Explain renders the subtree.
func (p *Project) Explain(indent string) string {
	return fmt.Sprintf("%sProject %v\n%s", indent, p.Cols, p.Child.Explain(indent+"  "))
}
