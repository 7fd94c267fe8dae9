package expr

import "enrichdb/internal/types"

// arenaChunk is the number of elements allocated per arena chunk. Large
// enough to amortize allocator round-trips across an epoch's row traffic,
// small enough that a near-empty query does not pin much memory.
const arenaChunk = 1024

// RowArena bump-allocates executor rows and their backing slices in chunks,
// replacing the two-allocations-per-row pattern of the naive materializer
// (one Row struct, one TID slice) with one allocation per arenaChunk rows.
//
// Rows handed out by the arena are never recycled — they escape into query
// results, IVM view snapshots, and enrichment batches, so the arena only
// amortizes allocation, it does not reuse memory. A RowArena must not be
// shared across goroutines; a forked execution context gets its own.
// All methods are nil-receiver safe and fall back to plain allocation, so
// callers that build an ExecCtx by hand keep working.
type RowArena struct {
	rows []Row
	vals []types.Value
	tids []int64

	rowCount, chunkCount int64
}

// Counters reports the number of rows handed out and chunks allocated, for
// the engine.alloc_* telemetry counters.
func (a *RowArena) Counters() (rows, chunks int64) {
	if a == nil {
		return 0, 0
	}
	return a.rowCount, a.chunkCount
}

// Reserve pre-sizes the arena's current chunks for a caller that knows its
// output cardinality, collapsing the per-chunk allocations of a large
// materialization into one allocation per backing array. Space left in the
// current chunks is abandoned (rows already handed out keep it alive).
func (a *RowArena) Reserve(rows, vals, tids int) {
	if a == nil {
		return
	}
	if rows > len(a.rows) {
		a.rows = make([]Row, rows)
		a.chunkCount++
	}
	if vals > len(a.vals) {
		a.vals = make([]types.Value, vals)
		a.chunkCount++
	}
	if tids > len(a.tids) {
		a.tids = make([]int64, tids)
		a.chunkCount++
	}
}

func (a *RowArena) next() *Row {
	if len(a.rows) == 0 {
		a.rows = make([]Row, arenaChunk)
		a.chunkCount++
	}
	r := &a.rows[0]
	a.rows = a.rows[1:]
	a.rowCount++
	return r
}

// valSlice bump-allocates a value slice of length n with capacity clamped to
// n, so a later append cannot scribble over a neighboring row's values.
// Oversized requests get their own allocation.
func (a *RowArena) valSlice(n int) []types.Value {
	if n > arenaChunk/4 {
		return make([]types.Value, n)
	}
	if n > len(a.vals) {
		a.vals = make([]types.Value, arenaChunk)
		a.chunkCount++
	}
	s := a.vals[:n:n]
	a.vals = a.vals[n:]
	return s
}

// tidSlice is valSlice for tuple-id backing arrays.
func (a *RowArena) tidSlice(n int) []int64 {
	if n > arenaChunk/4 {
		return make([]int64, n)
	}
	if n > len(a.tids) {
		a.tids = make([]int64, arenaChunk)
		a.chunkCount++
	}
	s := a.tids[:n:n]
	a.tids = a.tids[n:]
	return s
}

// RowFromTuple is the arena-backed counterpart of the package-level
// RowFromTuple: the row struct and its one-element TID slice come from the
// arena's chunks; the value slice is shared with the stored tuple exactly as
// in the plain path.
func (a *RowArena) RowFromTuple(rs *RowSchema, t *types.Tuple) *Row {
	if a == nil {
		return RowFromTuple(rs, t)
	}
	r := a.next()
	r.Schema = rs
	r.Vals = t.Vals
	tid := a.tidSlice(1)
	tid[0] = t.ID
	r.TIDs = tid
	return r
}

// RowFromTupleCopy is RowFromTuple with an owned value slice: the tuple's
// values are copied into arena-backed storage so the row can be patched in
// place (EvalCtx.PatchRows) without mutating the immutable stored tuple.
func (a *RowArena) RowFromTupleCopy(rs *RowSchema, t *types.Tuple) *Row {
	if a == nil {
		vals := make([]types.Value, len(t.Vals))
		copy(vals, t.Vals)
		return &Row{Schema: rs, Vals: vals, TIDs: []int64{t.ID}}
	}
	r := a.next()
	r.Schema = rs
	vals := a.valSlice(len(t.Vals))
	copy(vals, t.Vals)
	r.Vals = vals
	tid := a.tidSlice(1)
	tid[0] = t.ID
	r.TIDs = tid
	return r
}

// JoinRows is the arena-backed counterpart of the package-level JoinRows.
func (a *RowArena) JoinRows(rs *RowSchema, l, r *Row) *Row {
	if a == nil {
		return JoinRows(rs, l, r)
	}
	row := a.next()
	row.Schema = rs
	vals := a.valSlice(len(l.Vals) + len(r.Vals))
	copy(vals, l.Vals)
	copy(vals[len(l.Vals):], r.Vals)
	row.Vals = vals
	tids := a.tidSlice(len(l.TIDs) + len(r.TIDs))
	copy(tids, l.TIDs)
	copy(tids[len(l.TIDs):], r.TIDs)
	row.TIDs = tids
	return row
}

// NewRow returns an arena-backed row over an externally built value slice.
// The TID slice is shared with the source row, matching how projection has
// always aliased its child's TIDs.
func (a *RowArena) NewRow(rs *RowSchema, vals []types.Value, tids []int64) *Row {
	if a == nil {
		return &Row{Schema: rs, Vals: vals, TIDs: tids}
	}
	r := a.next()
	r.Schema = rs
	r.Vals = vals
	r.TIDs = tids
	return r
}

// ValSlice exposes bump allocation of value slices for callers assembling
// projected rows.
func (a *RowArena) ValSlice(n int) []types.Value {
	if a == nil {
		return make([]types.Value, n)
	}
	return a.valSlice(n)
}
