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
// A tight filter's guarded conjuncts compile too: lanes whose image marks the
// guarded attributes are decided by kernels over the stored values, and only
// the pending lanes (see expr.VecPred) are row-evaluated, on the conjunct
// suffix from the first guarded conjunct on. For a single-table tight filter
// the row evaluator is thus only the UDF residual over unmarked images.
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
	snap        []*types.Tuple
	batch       expr.Batch
	t, nf, pend expr.Bitmap
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
// batch, leaving the selection in the context's t/nf bitmaps and the pending
// lanes in pend (nil when the predicate has no guarded conjunct). ok is false
// on a column-fill bail. Batch strides are BatchSize lanes, so each stride's
// bitmap window is word-aligned and kernels write the whole-range bitmaps
// directly through subslices.
func vecSelect(ctx *ExecCtx, rs *expr.RowSchema, vp *expr.VecPred, tuples []*types.Tuple) (t, nf, pend expr.Bitmap, ok bool) {
	bufs := ctx.vecbufs()
	n := len(tuples)
	bufs.t = bufs.t.Reset(n)
	bufs.t.SetAll(n)
	bufs.nf = bufs.nf.Reset(n)
	bufs.nf.SetAll(n)
	if vp.Pending != nil {
		bufs.pend = bufs.pend.Reset(n)
		pend = bufs.pend
	}
	for lo := 0; lo < n; lo += expr.BatchSize {
		if ctx.CancelErr() != nil {
			return nil, nil, nil, false // caller's row path surfaces ErrCanceled
		}
		hi := lo + expr.BatchSize
		if hi > n {
			hi = n
		}
		m := hi - lo
		bufs.batch.Reset(rs, tuples[lo:hi])
		wlo, wn := lo>>6, (m+63)>>6
		var pw expr.Bitmap
		if pend != nil {
			pw = pend[wlo : wlo+wn]
		}
		if !vp.Eval(&bufs.batch, bufs.t[wlo:wlo+wn], bufs.nf[wlo:wlo+wn], pw) {
			return nil, nil, nil, false
		}
		ctx.Stats.BatchesBuilt++
		ctx.Stats.BatchRows += int64(m)
	}
	return bufs.t, bufs.nf, pend, true
}

// eachSet calls fn for every lane set in a or in b (b may be nil), in
// ascending order, skipping zero words.
func eachSet(a, b expr.Bitmap, fn func(i int) bool) bool {
	for wi, w := range a {
		if b != nil {
			w |= b[wi]
		}
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

// vecExecute attempts the vectorized filter-over-scan; n is the snapshot's
// size. handled is false when the path does not apply (ablation knob,
// uncompilable predicate, column-fill bail) — the caller then runs the row
// path.
func (f *Filter) vecExecute(ctx *ExecCtx, s *Scan) (out []*expr.Row, n int, handled bool, err error) {
	if ctx.NoVector {
		return nil, 0, false, nil
	}
	vp := f.vecPred(s.rs)
	if vp == nil {
		return nil, 0, false, nil
	}
	tuples := ctx.snapshotTuples(s.Table)
	n = len(tuples)
	if !f.hasUDF && ctx.Pool != nil && ctx.Pool.Workers() > 1 && n >= ctx.parallelMinRows() {
		out, handled, err = f.vecScanFilterParallel(ctx, s, vp, tuples)
	} else {
		out, handled, err = f.vecScanFilterRange(ctx, s, vp, tuples)
	}
	return out, n, handled, err
}

// vecScanFilterRange filters one contiguous tuple range on the calling
// goroutine.
func (f *Filter) vecScanFilterRange(ctx *ExecCtx, s *Scan, vp *expr.VecPred, tuples []*types.Tuple) ([]*expr.Row, bool, error) {
	t, nf, pend, ok := vecSelect(ctx, s.rs, vp, tuples)
	if !ok {
		return nil, false, nil
	}
	out, err := f.vecEmit(ctx, s, vp, tuples, t, nf, pend)
	return out, true, err
}

// vecEmit materializes the rows a kernel selection lets through, in lane
// order.
func (f *Filter) vecEmit(ctx *ExecCtx, s *Scan, vp *expr.VecPred, tuples []*types.Tuple, t, nf, pend expr.Bitmap) ([]*expr.Row, error) {
	n := len(tuples)
	if vp.Residual == nil && !pend.Any() {
		// Decided by kernels alone: survivors are countable up front, so the
		// output slice and arena chunks are sized exactly.
		count := t.Count()
		ctx.Arena.Reserve(count, 0, count)
		out := make([]*expr.Row, 0, count)
		eachSet(t, nil, func(i int) bool {
			out = append(out, f.vecRow(ctx, s, tuples[i]))
			return true
		})
		ctx.Stats.RowsScanned += int64(n)
		return out, nil
	}
	// Row-evaluate the pending lanes on Pending, and the uncompiled suffix on
	// every other not-False lane (the row path's And continues through
	// Unknown, so UDF side effects must fire for those lanes too), all in
	// lane order.
	lanes := t
	if vp.Residual != nil {
		lanes = nf
	}
	var out []*expr.Row
	var evalErr error
	eachSet(lanes, pend, func(i int) bool {
		r := f.vecRow(ctx, s, tuples[i])
		pred, pass := vp.Residual, t.Get(i)
		if pend != nil && pend.Get(i) {
			pred = vp.Pending // t holds the verdict of the conjuncts before it
		}
		if pred != nil {
			ctx.Stats.BatchFallbackRows++
			tv, err := expr.EvalPred(ctx.Eval, pred, r)
			if err != nil {
				evalErr = err
				return false
			}
			pass = pass && tv == expr.True
		}
		if pass {
			out = append(out, r)
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	ctx.Stats.RowsScanned += int64(n)
	return out, nil
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
		pctx := ctx.Fork()
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
// predicate compiled fully (no residual) and no lane is pending, the kernels
// decided every lane from stored values, so projected rows are assembled
// straight from surviving tuples without ever materializing the intermediate
// filter rows. Pending lanes run ω, which may patch enriched values into
// their rows; the filter's rows are then projected. Larger inputs with a
// pool available are left to the filter's parallel vector path instead.
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
	t, nf, pend, ok := vecSelect(ctx, s.rs, vp, tuples)
	if !ok {
		return nil, false, nil
	}
	if pend.Any() {
		rows, err := f.vecEmit(ctx, s, vp, tuples, t, nf, pend)
		if err != nil {
			return nil, true, err
		}
		f.observe(ctx, n, len(rows))
		return p.project(ctx, rows), true, nil
	}
	count := t.Count()
	f.observe(ctx, n, count)
	ctx.Arena.Reserve(count, count*len(p.Cols), count)
	out := make([]*expr.Row, 0, count)
	eachSet(t, nil, func(i int) bool {
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
