package expr

import "enrichdb/internal/types"

// Columns is an answer in columnar form, as the fused scan → filter →
// project branch builds it: one typed vector per output column, lane k of
// every vector holding output row k's value, plus row k's base tuple id and
// insertion sequence. The vectors keep ColVec's layout (one payload slot per
// lane, NULL lanes set in Nulls over a zero payload). An answer is immutable once built: consumers slice it, never write it.
type Columns struct {
	Cols []ColVec
	TIDs []int64
	// Seqs holds each row's source tuple insertion sequence, read from the
	// snapshot the scan read: the key a shard merge restores order by. A
	// merged answer leaves it nil.
	Seqs []uint64
}

// NewColumns allocates an answer of n lanes, one vector per kind, each
// sized exactly; seqs says whether it carries insertion sequences.
func NewColumns(kinds []types.Kind, n int, seqs bool) *Columns {
	c := &Columns{Cols: make([]ColVec, len(kinds)), TIDs: make([]int64, n)}
	if seqs {
		c.Seqs = make([]uint64, n)
	}
	for i, k := range kinds {
		cv := &c.Cols[i]
		cv.Kind = k
		cv.Nulls = make(Bitmap, bitmapWords(n))
		if k == types.KindString {
			cv.S = make([]string, n)
		} else {
			cv.I = make([]int64, n)
		}
	}
	return c
}

// Len returns the row count.
func (c *Columns) Len() int { return len(c.TIDs) }

// Kinds returns the vectors' kinds, in column order.
func (c *Columns) Kinds() []types.Kind {
	kinds := make([]types.Kind, len(c.Cols))
	for i := range c.Cols {
		kinds[i] = c.Cols[i].Kind
	}
	return kinds
}

// Rows builds the row view of the answer over schema rs: every row's values
// come from one cell array and its TID slice aliases TIDs, so the view costs
// three allocations whatever the row count.
func (c *Columns) Rows(rs *RowSchema) []*Row {
	n, w := c.Len(), len(c.Cols)
	cells := make([]types.Value, n*w)
	for ci := range c.Cols {
		cv := &c.Cols[ci]
		for k := 0; k < n; k++ {
			cells[k*w+ci] = cv.Value(k)
		}
	}
	rows := make([]Row, n)
	out := make([]*Row, n)
	for k := range rows {
		rows[k] = Row{Schema: rs, Vals: cells[k*w : (k+1)*w : (k+1)*w], TIDs: c.TIDs[k : k+1 : k+1]}
		out[k] = &rows[k]
	}
	return out
}

// Value returns lane k as a Value: exactly the stored cell the lane was
// filled from, since the fill accepts only cells of the vector's kind.
func (cv *ColVec) Value(k int) types.Value {
	if cv.Nulls.Get(k) {
		return types.Null
	}
	switch cv.Kind {
	case types.KindInt:
		return types.NewInt(cv.I[k])
	case types.KindString:
		return types.NewString(cv.S[k])
	default:
		return types.Null
	}
}

// Gather copies lanes sel of src, a vector of cv's kind, into cv's lanes
// [at, at+len(sel)).
func (cv *ColVec) Gather(at int, src *ColVec, sel []int32) {
	if cv.Kind == types.KindString {
		dst := cv.S[at : at+len(sel)]
		for j, i := range sel {
			dst[j] = src.S[i]
		}
	} else {
		dst := cv.I[at : at+len(sel)]
		for j, i := range sel {
			dst[j] = src.I[i]
		}
	}
	if src.Nulls.Any() {
		for j, i := range sel {
			if src.Nulls.Get(int(i)) {
				cv.Nulls.Set(at + j)
			}
		}
	}
}

// CopyLane copies lane p of src, a vector of cv's kind, into cv's lane k.
func (cv *ColVec) CopyLane(k int, src *ColVec, p int) {
	if cv.Kind == types.KindString {
		cv.S[k] = src.S[p]
	} else {
		cv.I[k] = src.I[p]
	}
	if src.Nulls.Get(p) {
		cv.Nulls.Set(k)
	}
}
