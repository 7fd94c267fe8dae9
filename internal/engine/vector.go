package engine

import (
	"math/bits"

	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// This file implements the vectorized filter-over-scan path: the scan's
// chunks (expr.Chunk, BatchSize lanes each) are walked as batches of typed
// column vectors, compiled predicate kernels fold each conjunct into two
// selection bitmaps (t: all conjuncts so far True, nf: none False), and
// []*expr.Row is materialized only for surviving lanes — or, when an
// uncompiled residual remains, for every not-False lane so residual
// evaluation (including UDF side effects) happens on exactly the rows the row
// path would evaluate, in the same order. A tight filter's guarded conjuncts
// compile too: lanes whose image marks the guarded attributes are decided by
// kernels over the stored values, and only the pending lanes (see
// expr.VecPred) are row-evaluated, on the conjunct suffix from the first
// guarded conjunct on. For a single-table tight filter the row evaluator is
// thus only the UDF residual over unmarked images.
//
// Every relation hands scans its sealed chunks (storage.Relation's
// ChunksInto), whose column vectors outlive the scan, and every stored cell
// has its column's declared kind. So whether a conjunct runs as a kernel is
// decided once, when the predicate compiles against the declared kinds,
// never mid-scan. The pass structure is: (1) kernels over all batches into
// whole-scan bitmaps, with no rows built and no side effects; (2) emit rows
// from set lanes, or, under a projection the kernels decided alone, gather
// the projected columns from the chunks' vectors with no row built
// (Project.gather). Output is byte-identical to the row path by
// construction and enforced by the equivalence batteries with
// ExecCtx.NoVector on and off.

// vecBufs are an ExecCtx's reusable vectorized-scan buffers. They are scoped
// to the context's goroutine and never escape an Execute call.
type vecBufs struct {
	chunks      []*expr.Chunk
	batch       expr.Batch
	t, nf, pend expr.Bitmap
}

func (ctx *ExecCtx) vecbufs() *vecBufs {
	if ctx.vec == nil {
		ctx.vec = &vecBufs{}
	}
	return ctx.vec
}

// scanChunks takes the relation's sealed chunks into the context's reused
// buffer. Every chunk but the last holds BatchSize lanes, so each chunk's
// bitmap window is word-aligned; n is the lane total.
func (ctx *ExecCtx) scanChunks(rel storage.Relation) (chunks []*expr.Chunk, n int) {
	bufs := ctx.vecbufs()
	bufs.chunks = rel.ChunksInto(bufs.chunks)
	for _, c := range bufs.chunks {
		n += len(c.Tuples)
	}
	return bufs.chunks, n
}

// laneTuple is lane i's tuple across chunks.
func laneTuple(chunks []*expr.Chunk, i int) *types.Tuple {
	return chunks[i/expr.BatchSize].Tuples[i%expr.BatchSize]
}

// vecPred compiles the filter predicate against the scan schema once.
func (f *Filter) vecPred(rs *expr.RowSchema) *expr.VecPred {
	f.vecOnce.Do(func() { f.vec = expr.CompileVecPred(f.Pred, rs) })
	return f.vec
}

// vecSelect runs the compiled kernels over the n lanes of the chunks, batch
// by batch, leaving the selection in the context's t/nf bitmaps and the
// pending lanes in pend (nil when the predicate has no guarded conjunct).
// Each chunk's bitmap window is word-aligned (see scanChunks), so kernels
// write the whole-scan bitmaps directly through subslices.
func vecSelect(ctx *ExecCtx, rs *expr.RowSchema, vp *expr.VecPred, chunks []*expr.Chunk, n int) (t, nf, pend expr.Bitmap, err error) {
	bufs := ctx.vecbufs()
	bufs.t = bufs.t.Reset(n)
	bufs.t.SetAll(n)
	bufs.nf = bufs.nf.Reset(n)
	bufs.nf.SetAll(n)
	if vp.Pending != nil {
		bufs.pend = bufs.pend.Reset(n)
		pend = bufs.pend
	}
	lo := 0
	for _, c := range chunks {
		if err := ctx.CancelErr(); err != nil {
			return nil, nil, nil, err
		}
		m := len(c.Tuples)
		bufs.batch.Reset(rs, c)
		wlo, wn := lo>>6, (m+63)>>6
		var pw expr.Bitmap
		if pend != nil {
			pw = pend[wlo : wlo+wn]
		}
		vp.Eval(&bufs.batch, bufs.t[wlo:wlo+wn], bufs.nf[wlo:wlo+wn], pw)
		ctx.Stats.BatchesBuilt++
		if bufs.batch.MarksDecided {
			ctx.Stats.MarkChunksDecided++
		}
		ctx.Stats.BatchRows += int64(m)
		lo += m
	}
	return bufs.t, bufs.nf, pend, nil
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
	if ctx.Eval.PatchRows {
		return ctx.Arena.RowFromTupleCopy(s.rs, tu)
	}
	return ctx.Arena.RowFromTuple(s.rs, tu)
}

// vecExecute runs the vectorized filter-over-scan; n is the snapshot's
// size. handled is false when the path does not apply (ablation knob,
// uncompilable predicate): the caller then runs the row path.
func (f *Filter) vecExecute(ctx *ExecCtx, s *Scan) (out []*expr.Row, n int, handled bool, err error) {
	if ctx.NoVector {
		return nil, 0, false, nil
	}
	vp := f.vecPred(s.rs)
	if vp == nil {
		return nil, 0, false, nil
	}
	chunks, n := ctx.scanChunks(s.Table)
	t, nf, pend, err := vecSelect(ctx, s.rs, vp, chunks, n)
	if err != nil {
		return nil, n, true, err
	}
	out, err = f.vecEmit(ctx, s, vp, chunks, n, t, nf, pend)
	return out, n, true, err
}

// vecEmit materializes the rows a kernel selection lets through, in lane
// order.
func (f *Filter) vecEmit(ctx *ExecCtx, s *Scan, vp *expr.VecPred, chunks []*expr.Chunk, n int, t, nf, pend expr.Bitmap) ([]*expr.Row, error) {
	if vp.Residual == nil && !pend.Any() {
		// Decided by kernels alone: survivors are countable up front, so the
		// output slice and arena chunks are sized exactly.
		count := t.Count()
		ctx.Arena.Reserve(count, 0, count)
		out := make([]*expr.Row, 0, count)
		eachSet(t, nil, func(i int) bool {
			out = append(out, f.vecRow(ctx, s, laneTuple(chunks, i)))
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
		r := f.vecRow(ctx, s, laneTuple(chunks, i))
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

// vecExecute runs the fused project-filter-scan. When the child filter's
// predicate compiled fully (no residual), no projected column is VECTOR
// (which has no kernel vector, decided before the scan) and no lane is
// pending, the kernels decided every lane from stored values, so the
// projection is gathered straight from the chunks' column vectors into
// columns (see gather), with no row built. Pending lanes run ω, which may
// patch enriched values into their rows; the filter's rows are then
// projected.
func (p *Project) vecExecute(ctx *ExecCtx) (ans Answer, handled bool, err error) {
	if ctx.NoVector {
		return Answer{}, false, nil
	}
	f, ok := p.Child.(*Filter)
	if !ok {
		return Answer{}, false, nil
	}
	s, ok := f.Child.(*Scan)
	if !ok {
		return Answer{}, false, nil
	}
	vp := f.vecPred(s.rs)
	if vp == nil || vp.Residual != nil {
		return Answer{}, false, nil
	}
	kinds := p.gatherKinds()
	chunks, n := ctx.scanChunks(s.Table)
	t, nf, pend, err := vecSelect(ctx, s.rs, vp, chunks, n)
	if err != nil {
		return Answer{}, true, err
	}
	if kinds != nil && !pend.Any() {
		cols := p.gather(ctx, s, kinds, chunks, t)
		f.observe(ctx, n, cols.Len())
		ctx.Stats.RowsScanned += int64(n)
		return Answer{Cols: cols}, true, nil
	}
	rows, err := f.vecEmit(ctx, s, vp, chunks, n, t, nf, pend)
	if err != nil {
		return Answer{}, true, err
	}
	f.observe(ctx, n, len(rows))
	return Answer{Rows: p.project(ctx, rows)}, true, nil
}

// gatherKinds returns the projected columns' kinds, or nil when one is
// VECTOR: it has no kernel vector, so its projection is built from rows.
func (p *Project) gatherKinds() []types.Kind {
	kinds := make([]types.Kind, len(p.Cols))
	for vi := range p.Cols {
		if kinds[vi] = p.rs.Cols[vi].Kind; kinds[vi] == types.KindVector {
			return nil
		}
	}
	return kinds
}

// gather builds the projection of the lanes t selects as columns of the
// given kinds, chunk by chunk: the selected lanes' indexes, then one typed
// copy per projected column out of the chunk's vector, and each lane's
// tuple id and insertion sequence.
func (p *Project) gather(ctx *ExecCtx, s *Scan, kinds []types.Kind, chunks []*expr.Chunk, t expr.Bitmap) *expr.Columns {
	cols := expr.NewColumns(kinds, t.Count(), true)
	batch := &ctx.vecbufs().batch
	var sel [expr.BatchSize]int32
	lo, k := 0, 0
	for _, c := range chunks {
		m := len(c.Tuples)
		ns := 0
		for wi, w := range t[lo>>6 : (lo+m+63)>>6] {
			for w != 0 {
				sel[ns] = int32(wi<<6 + bits.TrailingZeros64(w))
				ns++
				w &= w - 1
			}
		}
		lo += m
		if ns == 0 {
			continue
		}
		batch.Reset(s.rs, c)
		for vi, ci := range p.Cols {
			cols.Cols[vi].Gather(k, batch.Col(ci), sel[:ns])
		}
		for j, i := range sel[:ns] {
			tu := c.Tuples[i]
			cols.TIDs[k+j], cols.Seqs[k+j] = tu.ID, tu.Seq
		}
		k += ns
	}
	return cols
}
