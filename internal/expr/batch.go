package expr

import (
	"math/bits"
	"sync/atomic"

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
// populated, chosen by Kind: I for INT, S for STRING. NULL lanes have the
// corresponding bit set in Nulls and a zero payload.
type ColVec struct {
	Kind  types.Kind
	I     []int64
	S     []string
	Nulls Bitmap
}

// fill builds the vector of column ci, of kind INT or STRING, over the
// tuple lanes. Storage refuses a cell whose kind is not its column's
// (catalog.Schema.CheckKinds), so every non-NULL cell has the vector's kind.
func (cv *ColVec) fill(kind types.Kind, tuples []*types.Tuple, ci int) {
	n := len(tuples)
	cv.Kind = kind
	cv.Nulls = make(Bitmap, bitmapWords(n))
	if kind == types.KindString {
		cv.S = make([]string, n)
	} else {
		cv.I = make([]int64, n)
	}
	for i, tu := range tuples {
		cv.patch(i, tu.Vals[ci])
	}
}

// patch writes v, NULL or of the vector's kind, into lane i: a NULL sets
// the lane's NULL bit over a zero payload, a value replaces the payload.
func (cv *ColVec) patch(i int, v types.Value) {
	switch {
	case v.IsNull():
		cv.Nulls.Set(i)
		if cv.Kind == types.KindString {
			cv.S[i] = ""
		} else {
			cv.I[i] = 0
		}
	case cv.Kind == types.KindString:
		cv.Nulls.Clear(i)
		cv.S[i] = v.Str()
	default:
		cv.Nulls.Clear(i)
		cv.I[i] = v.Int()
	}
}

// clone returns a deep copy of the vector.
func (cv *ColVec) clone() *ColVec {
	return &ColVec{
		Kind:  cv.Kind,
		I:     append([]int64(nil), cv.I...),
		S:     append([]string(nil), cv.S...),
		Nulls: append(Bitmap(nil), cv.Nulls...),
	}
}

// Chunk is a run of at most BatchSize tuple lanes of a scan source. A chunk
// keeps, per column, the typed vector the first kernel to read the column
// built, so later scans of the same chunk read it instead of the tuples.
// That is sound because a chunk's vectors depend only on its tuple
// pointers, and tuples are immutable: whoever hands a chunk to readers must
// never change its lanes again (Set is for a private copy no reader holds).
// Make one with NewChunk.
//
// A chunk also keeps the AND of its lanes' enrichment marks, computed
// by the first mark test that reads the chunk: a mark test whose mask the
// AND covers holds on every lane, and decides the chunk without reading one.
type Chunk struct {
	Tuples []*types.Tuple
	cols   []atomic.Pointer[ColVec]
	marks  atomic.Pointer[uint64] // the lanes' marks' AND, once computed
}

// NewChunk returns a chunk over tuples that caches vectors for ncols
// columns.
func NewChunk(tuples []*types.Tuple, ncols int) *Chunk {
	return &Chunk{Tuples: tuples, cols: make([]atomic.Pointer[ColVec], ncols)}
}

// col returns column ci's vector, building and publishing it on first use.
// Concurrent readers may build it twice; the first to publish wins, and
// both builds are equal.
func (c *Chunk) col(ci int, kind types.Kind) *ColVec {
	if cv := c.cols[ci].Load(); cv != nil {
		return cv
	}
	cv := &ColVec{}
	cv.fill(kind, c.Tuples, ci)
	if c.cols[ci].CompareAndSwap(nil, cv) {
		return cv
	}
	return c.cols[ci].Load()
}

// marksCover reports whether every lane carries all of mask's bits, read
// from the AND of the lanes' types.Tuple.Enriched masks, which it computes
// and publishes on first use as col does. A nil lane (a tombstone) holds no
// mark.
func (c *Chunk) marksCover(mask uint64) bool {
	and := c.marks.Load()
	if and == nil {
		v := ^uint64(0)
		for _, tu := range c.Tuples {
			if tu == nil {
				v = 0
			} else {
				v &= tu.Enriched
			}
			if v == 0 {
				break
			}
		}
		c.marks.CompareAndSwap(nil, &v) // a concurrent build is equal; either wins
		and = c.marks.Load()
	}
	return *and&mask == mask
}

// Clone returns a private copy of the chunk: the same tuple pointers and a
// copy of every column vector built so far, which Set may then change in
// place. The marks' AND is not copied: the next mark test recomputes it.
func (c *Chunk) Clone() *Chunk {
	nc := NewChunk(append([]*types.Tuple(nil), c.Tuples...), len(c.cols))
	for ci := range c.cols {
		if cv := c.cols[ci].Load(); cv != nil {
			nc.cols[ci].Store(cv.clone())
		}
	}
	return nc
}

// Set replaces lane i's tuple with tu, an image that differs from the old
// one in column ci's value (and in its enrichment marks) only, patches ci's
// vector if one is built and drops the marks' AND (a write-back batch sets
// many lanes; recomputing the AND per lane would cost a chunk per write).
// Only the owner of a private copy (Clone) may call it, before any reader
// has the chunk.
func (c *Chunk) Set(i int, tu *types.Tuple, ci int) {
	c.Tuples[i] = tu
	if cv := c.cols[ci].Load(); cv != nil {
		cv.patch(i, tu.Vals[ci])
	}
	c.marks.Store(nil)
}

// Append adds lane tu to a private copy (see Set) and drops the vectors
// built so far, which no longer span the chunk.
func (c *Chunk) Append(tu *types.Tuple) {
	c.Tuples = append(c.Tuples, tu)
	for ci := range c.cols {
		if c.cols[ci].Load() != nil {
			c.cols[ci].Store(nil)
		}
	}
	c.marks.Store(nil)
}

// Batch is a column-oriented window over one chunk of base-table tuples:
// its tuple lanes plus the typed columns a compiled predicate reads, taken
// from the chunk's vectors. The batch assumes single-slot (base scan)
// schemas: column index ci addresses Tuples[lane].Vals[ci] directly.
//
// Ownership: a Batch never owns tuple storage — Tuples aliases the chunk,
// and column payloads are the chunk's, shared with every scan of it.
// Batches are reused across chunks via Reset; consumers must not modify
// column slices.
type Batch struct {
	Schema *RowSchema
	Tuples []*types.Tuple
	// MarksDecided reports that a mark test decided this chunk from its
	// marks' AND, reading no lane (engine.Stats counts such chunks).
	MarksDecided bool

	chunk *Chunk
	vecs  []*ColVec // column ci's vector once Col resolved it
}

// Reset points the batch at a new chunk, forgetting every resolved column.
func (b *Batch) Reset(rs *RowSchema, c *Chunk) {
	b.Schema = rs
	b.Tuples = c.Tuples
	b.chunk = c
	b.MarksDecided = false
	nc := len(rs.Cols)
	if cap(b.vecs) < nc {
		b.vecs = make([]*ColVec, nc)
	}
	b.vecs = b.vecs[:nc]
	clear(b.vecs)
}

// Len returns the lane count.
func (b *Batch) Len() int { return len(b.Tuples) }

// Col returns the typed vector of column ci, an INT or STRING column: the
// chunk's, built on the chunk's first read of the column.
func (b *Batch) Col(ci int) *ColVec {
	cv := b.vecs[ci]
	if cv == nil {
		cv = b.chunk.col(ci, b.Schema.Cols[ci].Kind)
		b.vecs[ci] = cv
	}
	return cv
}
