package expr

import (
	"math/bits"

	"enrichdb/internal/types"
)

// BatchSize is the number of tuple lanes per column batch. 1024 keeps a
// batch's working set (a few typed columns plus three bitmaps) inside L1/L2
// while amortizing per-batch setup over enough lanes to matter.
const BatchSize = 1024

// Bitmap is a dense bitset over batch lanes: selection vectors and NULL
// masks. Word layout is little-endian lane order (lane i lives in word i/64).
type Bitmap []uint64

// bitmapWords returns the word count needed for n lanes.
func bitmapWords(n int) int { return (n + 63) / 64 }

// Reset resizes the bitmap for n lanes, reusing backing storage, and clears
// every bit. It returns the resized bitmap (callers reassign, slice-style).
func (b Bitmap) Reset(n int) Bitmap {
	w := bitmapWords(n)
	if cap(b) < w {
		return make(Bitmap, w)
	}
	b = b[:w]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Set sets lane i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears lane i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports lane i.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll sets lanes [0,n) and clears the tail of the last word, so Count and
// word-wise AND stay exact.
func (b Bitmap) SetAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 && len(b) > 0 {
		b[len(b)-1] = (1 << uint(tail)) - 1
	}
}

// And intersects o into b word-wise (lanes beyond o's words are cleared).
func (b Bitmap) And(o Bitmap) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// Any reports whether any lane is set (word-wise, no per-lane cost).
func (b Bitmap) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set lanes.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ColVec is one typed column of a batch. Exactly one payload slice is
// populated, chosen by Kind: I for INT/BOOL (bools as 0/1, matching
// Value.Compare's numeric treatment), F for FLOAT, S for STRING. NULL lanes
// have the corresponding bit set in Nulls and a zero payload.
type ColVec struct {
	Kind  types.Kind
	I     []int64
	F     []float64
	S     []string
	Nulls Bitmap
}

// Batch is a column-oriented window over base-table tuples: up to BatchSize
// tuple lanes plus lazily built typed columns. Only columns a compiled
// predicate actually references are filled. The batch assumes single-slot
// (base scan) schemas: column index ci addresses Tuples[lane].Vals[ci]
// directly.
//
// Ownership: a Batch never owns tuple storage — Tuples aliases the scan
// snapshot and column payloads are copies of tuple cells. Batches are reused
// across scan strides via Reset; consumers must not retain column slices
// across callbacks.
type Batch struct {
	Schema *RowSchema
	Tuples []*types.Tuple

	cols   []ColVec
	filled []bool
	plan   []uint16 // FillAll scratch: pending column indices
}

// Reset points the batch at a new stride of tuples, invalidating all filled
// columns while keeping their backing storage for reuse.
func (b *Batch) Reset(rs *RowSchema, tuples []*types.Tuple) {
	b.Schema = rs
	b.Tuples = tuples
	nc := len(rs.Cols)
	if cap(b.cols) < nc {
		b.cols = make([]ColVec, nc)
		b.filled = make([]bool, nc)
	}
	b.cols = b.cols[:nc]
	b.filled = b.filled[:nc]
	for i := range b.filled {
		b.filled[i] = false
	}
}

// Len returns the lane count.
func (b *Batch) Len() int { return len(b.Tuples) }

// FillAll builds every schema column in one pass over the tuple lanes,
// loading each tuple exactly once — the layout that matters when a consumer
// wants the full width (columnar scan), where per-column lazy fills would
// re-chase every tuple pointer once per column. Kind-deviation and
// unsupported-kind rules match Col: false means fall back to the row path
// (the deviating column stays poisoned, untouched columns stay lazy).
func (b *Batch) FillAll() bool {
	n := len(b.Tuples)
	nc := len(b.cols)
	for ci := range b.cols {
		if b.filled[ci] {
			if b.cols[ci].Kind == types.KindNull {
				return false
			}
			continue
		}
		cv := &b.cols[ci]
		kind := b.Schema.Cols[ci].Kind
		cv.Kind = kind // scratch until filled[ci] is set
		cv.Nulls = cv.Nulls.Reset(n)
		switch kind {
		case types.KindInt, types.KindBool:
			if cap(cv.I) < n {
				cv.I = make([]int64, n)
			}
			cv.I = cv.I[:n]
		case types.KindFloat:
			if cap(cv.F) < n {
				cv.F = make([]float64, n)
			}
			cv.F = cv.F[:n]
		case types.KindString:
			if cap(cv.S) < n {
				cv.S = make([]string, n)
			}
			cv.S = cv.S[:n]
		default:
			return false
		}
	}
	pending := b.plan[:0]
	for ci := 0; ci < nc; ci++ {
		if !b.filled[ci] {
			pending = append(pending, uint16(ci))
		}
	}
	b.plan = pending
	for i, tu := range b.Tuples {
		vals := tu.Vals
		for _, ci := range pending {
			cv := &b.cols[ci]
			v := &vals[ci]
			switch cv.Kind {
			case types.KindFloat:
				switch v.Kind() {
				case types.KindFloat:
					cv.F[i] = v.Float()
				case types.KindNull:
					cv.Nulls.Set(i)
					cv.F[i] = 0
				default:
					cv.Kind = types.KindNull
					b.filled[ci] = true
					return false
				}
			case types.KindString:
				switch v.Kind() {
				case types.KindString:
					cv.S[i] = v.Str()
				case types.KindNull:
					cv.Nulls.Set(i)
					cv.S[i] = ""
				default:
					cv.Kind = types.KindNull
					b.filled[ci] = true
					return false
				}
			default: // INT / BOOL
				switch v.Kind() {
				case cv.Kind:
					cv.I[i] = v.Int()
				case types.KindNull:
					cv.Nulls.Set(i)
					cv.I[i] = 0
				default:
					cv.Kind = types.KindNull
					b.filled[ci] = true
					return false
				}
			}
		}
	}
	for ci := range b.filled {
		b.filled[ci] = true
	}
	return true
}

// Col returns the typed vector for column ci, building it from the tuple
// lanes on first access. ok is false when a non-NULL cell's dynamic kind
// deviates from the schema's declared kind — the caller must fall back to
// row-at-a-time evaluation for the whole batch (the row path re-derives
// semantics from dynamic kinds, so nothing is lost but speed).
func (b *Batch) Col(ci int) (*ColVec, bool) {
	if b.filled[ci] {
		cv := &b.cols[ci]
		return cv, cv.Kind != types.KindNull
	}
	b.filled[ci] = true
	cv := &b.cols[ci]
	cv.Kind = types.KindNull // poison until the fill succeeds
	n := len(b.Tuples)
	kind := b.Schema.Cols[ci].Kind
	cv.Nulls = cv.Nulls.Reset(n)
	switch kind {
	case types.KindInt, types.KindBool:
		if cap(cv.I) < n {
			cv.I = make([]int64, n)
		}
		cv.I = cv.I[:n]
		for i, tu := range b.Tuples {
			v := tu.Vals[ci]
			switch v.Kind() {
			case types.KindNull:
				cv.Nulls.Set(i)
				cv.I[i] = 0
			case kind:
				cv.I[i] = v.Int()
			default:
				return cv, false
			}
		}
	case types.KindFloat:
		if cap(cv.F) < n {
			cv.F = make([]float64, n)
		}
		cv.F = cv.F[:n]
		for i, tu := range b.Tuples {
			v := tu.Vals[ci]
			switch v.Kind() {
			case types.KindNull:
				cv.Nulls.Set(i)
				cv.F[i] = 0
			case types.KindFloat:
				cv.F[i] = v.Float()
			default:
				return cv, false
			}
		}
	case types.KindString:
		if cap(cv.S) < n {
			cv.S = make([]string, n)
		}
		cv.S = cv.S[:n]
		for i, tu := range b.Tuples {
			v := tu.Vals[ci]
			switch v.Kind() {
			case types.KindNull:
				cv.Nulls.Set(i)
				cv.S[i] = ""
			case types.KindString:
				cv.S[i] = v.Str()
			default:
				return cv, false
			}
		}
	default:
		// VECTOR (and anything new) has no kernel representation.
		return cv, false
	}
	cv.Kind = kind
	return cv, true
}
