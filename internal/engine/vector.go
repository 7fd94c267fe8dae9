package engine

import (
	"math/bits"

	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// This file implements the vectorized filter-over-scan path: the slab
// snapshot is walked in BatchSize strides of typed column vectors, compiled
// predicate kernels fold each conjunct into two selection bitmaps (t: all
// conjuncts so far True, nf: none False), and []*expr.Row is materialized
// only for surviving lanes — or, when an uncompiled residual remains, for
// every not-False lane so residual evaluation (including UDF side effects)
// happens on exactly the rows the row path would evaluate, in the same order.
//
// The pass structure is: (1) kernels over all batches into whole-scan
// bitmaps — no rows built, no side effects, so a column-fill bail (declared
// kind deviating from stored values) falls back to the row path with nothing
// observable having happened; (2) emit rows from set lanes. Output is
// byte-identical to the row path by construction and enforced by the
// equivalence battery with ExecCtx.NoVector on and off.

// tupleSnapshotter is satisfied by storage.Table and storage.TableView: a
// slab snapshot appended into a caller-reused buffer.
type tupleSnapshotter interface {
	TuplesInto(buf []*types.Tuple) []*types.Tuple
}

// vecBufs are an ExecCtx's reusable vectorized-scan buffers. They are scoped
// to one goroutine (parallel partitions build their own contexts) and never
// escape an Execute call.
type vecBufs struct {
	snap  []*types.Tuple
	batch expr.Batch
	t, nf expr.Bitmap
}

func (ctx *ExecCtx) vecbufs() *vecBufs {
	if ctx.vec == nil {
		ctx.vec = &vecBufs{}
	}
	return ctx.vec
}

// snapshotTuples snapshots the relation into the context's reused buffer.
func (ctx *ExecCtx) snapshotTuples(rel storage.Relation) []*types.Tuple {
	bufs := ctx.vecbufs()
	if ts, ok := rel.(tupleSnapshotter); ok {
		bufs.snap = ts.TuplesInto(bufs.snap)
	} else {
		bufs.snap = rel.Tuples()
	}
	return bufs.snap
}

// vecPred compiles the filter predicate against the scan schema once.
func (f *Filter) vecPred(rs *expr.RowSchema) *expr.VecPred {
	f.vecOnce.Do(func() { f.vec = expr.CompileVecPred(f.Pred, rs) })
	return f.vec
}

// vecSelect runs the compiled kernels over the whole tuple range, batch by
// batch, leaving the selection in the context's t/nf bitmaps. ok is false on
// a column-fill bail. Batch strides are BatchSize lanes, so each stride's
// bitmap window is word-aligned and kernels write the whole-range bitmaps
// directly through subslices.
func vecSelect(ctx *ExecCtx, rs *expr.RowSchema, vp *expr.VecPred, tuples []*types.Tuple) (t, nf expr.Bitmap, ok bool) {
	bufs := ctx.vecbufs()
	n := len(tuples)
	bufs.t = bufs.t.Reset(n)
	bufs.t.SetAll(n)
	bufs.nf = bufs.nf.Reset(n)
	bufs.nf.SetAll(n)
	for lo := 0; lo < n; lo += expr.BatchSize {
		if ctx.CancelErr() != nil {
			return nil, nil, false // caller's row path surfaces ErrCanceled
		}
		hi := lo + expr.BatchSize
		if hi > n {
			hi = n
		}
		m := hi - lo
		bufs.batch.Reset(rs, tuples[lo:hi])
		wlo, wn := lo>>6, (m+63)>>6
		if !vp.Eval(&bufs.batch, bufs.t[wlo:wlo+wn], bufs.nf[wlo:wlo+wn]) {
			return nil, nil, false
		}
		ctx.Stats.BatchesBuilt++
		ctx.Stats.BatchRows += int64(m)
	}
	return bufs.t, bufs.nf, true
}

// eachSet calls fn for every set lane in ascending order, skipping zero
// words.
func eachSet(b expr.Bitmap, fn func(i int) bool) bool {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if !fn(i) {
				return false
			}
		}
	}
	return true
}

// vecRow materializes one surviving tuple exactly as Scan.materialize would.
func (f *Filter) vecRow(ctx *ExecCtx, s *Scan, tu *types.Tuple) *expr.Row {
	if ctx.CopyRows {
		return ctx.Arena.RowFromTupleCopy(s.rs, tu)
	}
	return ctx.Arena.RowFromTuple(s.rs, tu)
}

// vecExecute attempts the vectorized filter-over-scan. handled is false when
// the path does not apply (ablation knob, uncompilable predicate, column-fill
// bail) — the caller then runs the row path.
func (f *Filter) vecExecute(ctx *ExecCtx, s *Scan) (out []*expr.Row, handled bool, err error) {
	if ctx.NoVector {
		return nil, false, nil
	}
	vp := f.vecPred(s.rs)
	if vp == nil {
		return nil, false, nil
	}
	tuples := ctx.snapshotTuples(s.Table)
	n := len(tuples)
	if !f.hasUDF && ctx.Pool != nil && ctx.Pool.Workers() > 1 && n >= ctx.parallelMinRows() {
		return f.vecScanFilterParallel(ctx, s, vp, tuples)
	}
	return f.vecScanFilterRange(ctx, s, vp, tuples)
}

// vecScanFilterRange filters one contiguous tuple range on the calling
// goroutine.
func (f *Filter) vecScanFilterRange(ctx *ExecCtx, s *Scan, vp *expr.VecPred, tuples []*types.Tuple) ([]*expr.Row, bool, error) {
	n := len(tuples)
	t, nf, ok := vecSelect(ctx, s.rs, vp, tuples)
	if !ok {
		return nil, false, nil
	}
	if vp.Residual == nil {
		// Fully compiled: survivors are countable up front, so the output
		// slice and arena chunks are sized exactly.
		count := t.Count()
		ctx.Arena.Reserve(count, 0, count)
		out := make([]*expr.Row, 0, count)
		eachSet(t, func(i int) bool {
			out = append(out, f.vecRow(ctx, s, tuples[i]))
			return true
		})
		ctx.Stats.RowsScanned += int64(n)
		return out, true, nil
	}
	// Residual: evaluate the uncompiled suffix row-at-a-time on every
	// not-False lane (the row path's And continues through Unknown, so UDF
	// side effects must fire for those lanes too). A UDF-bearing residual
	// opens a batching window so the enrichment runtime can coalesce the
	// sequential read_udf calls of this scan into one invocation payment.
	var bc expr.BatchCoalescer
	if vp.ResidualUDF {
		bc, _ = ctx.Eval.Runtime.(expr.BatchCoalescer)
	}
	if bc != nil {
		bc.BeginBatchWindow()
		defer bc.EndBatchWindow()
	}
	var out []*expr.Row
	var evalErr error
	eachSet(nf, func(i int) bool {
		ctx.Stats.BatchFallbackRows++
		r := f.vecRow(ctx, s, tuples[i])
		tv, err := expr.EvalPred(ctx.Eval, vp.Residual, r)
		if err != nil {
			evalErr = err
			return false
		}
		if tv == expr.True && t.Get(i) {
			out = append(out, r)
		}
		return true
	})
	if evalErr != nil {
		return nil, true, evalErr
	}
	ctx.Stats.RowsScanned += int64(n)
	return out, true, nil
}

// vecScanFilterParallel partitions the snapshot contiguously across the
// pool, mirroring Filter.scanFilter: per-partition contexts, partition-order
// concatenation, byte-identical output at any worker count. Only UDF-free
// predicates reach here (vecExecute gates on hasUDF).
func (f *Filter) vecScanFilterParallel(ctx *ExecCtx, s *Scan, vp *expr.VecPred, tuples []*types.Tuple) ([]*expr.Row, bool, error) {
	n := len(tuples)
	parts := ctx.Pool.Workers()
	if parts > n {
		parts = n
	}
	per := (n + parts - 1) / parts
	results := make([][]*expr.Row, parts)
	bails := make([]bool, parts)
	pstats := make([]Stats, parts)
	err := ctx.Pool.Do(parts, func(pi int) error {
		lo, hi := pi*per, (pi+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return nil
		}
		pctx := ctx.forkPartition()
		pctx.Stats = &pstats[pi]
		out, ok, err := f.vecScanFilterRange(pctx, s, vp, tuples[lo:hi])
		if !ok {
			bails[pi] = true
			return nil
		}
		results[pi] = out
		return err
	})
	if err != nil {
		return nil, true, err
	}
	for _, b := range bails {
		if b {
			return nil, false, nil
		}
	}
	for i := range pstats {
		ctx.Stats.RowsScanned += pstats[i].RowsScanned
		ctx.Stats.BatchesBuilt += pstats[i].BatchesBuilt
		ctx.Stats.BatchRows += pstats[i].BatchRows
		ctx.Stats.BatchFallbackRows += pstats[i].BatchFallbackRows
	}
	total := 0
	for _, p := range results {
		total += len(p)
	}
	out := make([]*expr.Row, 0, total)
	for _, p := range results {
		out = append(out, p...)
	}
	return out, true, nil
}

// vecExecute attempts the fused project-filter-scan: when the child filter's
// predicate compiled fully (no residual, hence no UDFs and no PatchRows),
// projected rows are assembled straight from surviving tuples without ever
// materializing the intermediate filter rows. Larger inputs with a pool
// available are left to the filter's parallel vector path instead.
func (p *Project) vecExecute(ctx *ExecCtx) ([]*expr.Row, bool, error) {
	if ctx.NoVector {
		return nil, false, nil
	}
	f, ok := p.Child.(*Filter)
	if !ok {
		return nil, false, nil
	}
	s, ok := f.Child.(*Scan)
	if !ok {
		return nil, false, nil
	}
	vp := f.vecPred(s.rs)
	if vp == nil || vp.Residual != nil {
		return nil, false, nil
	}
	tuples := ctx.snapshotTuples(s.Table)
	n := len(tuples)
	if !f.hasUDF && ctx.Pool != nil && ctx.Pool.Workers() > 1 && n >= ctx.parallelMinRows() {
		return nil, false, nil
	}
	t, _, ok := vecSelect(ctx, s.rs, vp, tuples)
	if !ok {
		return nil, false, nil
	}
	count := t.Count()
	ctx.Arena.Reserve(count, count*len(p.Cols), count)
	out := make([]*expr.Row, 0, count)
	eachSet(t, func(i int) bool {
		tu := tuples[i]
		vals := ctx.Arena.ValSlice(len(p.Cols))
		for vi, ci := range p.Cols {
			vals[vi] = tu.Vals[ci]
		}
		tids := ctx.Arena.TidSlice(1)
		tids[0] = tu.ID
		out = append(out, ctx.Arena.NewRow(p.rs, vals, tids))
		return true
	})
	ctx.Stats.RowsScanned += int64(n)
	return out, true, nil
}
