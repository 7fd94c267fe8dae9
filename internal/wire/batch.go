package wire

import (
	"fmt"
	"math/bits"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// MaxBatchRows caps the lane count one ResultBatch may carry. Servers
// stream results in expr.BatchSize strides, so the cap is pure defense
// against forged frames.
const MaxBatchRows = 1 << 16

// DefaultBatchRows is the stride servers chunk result streams into. It
// matches the executor's columnar batch size, so a result batch on the wire
// is the same unit of work as a batch inside the kernel.
const DefaultBatchRows = 1024

// Col is one column of a result batch, in the columnar layout of
// expr.ColVec: a NULL bitmap plus one typed payload holding the non-NULL
// lanes densely. Kind selects the payload: Ints for INT, Strs for STRING.
// KindNull marks a generic column — a mixed-kind or VECTOR column whose
// lanes are individually encoded Values (Nulls is nil there; NULL lanes are
// Null values). Any other kind byte is a bad frame.
type Col struct {
	Kind  types.Kind
	Nulls []byte // bitmap over lanes, bit i = lane i is NULL; nil when generic
	Ints  []int64
	Strs  []string
	Vals  []types.Value // generic payload, one per lane
}

// ResultBatch is one columnar stride of a result stream.
type ResultBatch struct {
	Query uint32
	NRows uint32
	Cols  []Col
}

// nullBitmapLen returns the byte length of a NULL bitmap over n lanes.
func nullBitmapLen(n int) int { return (n + 7) / 8 }

// nullAt reports bit i of a bitmap (false beyond its length).
func nullAt(bm []byte, i int) bool {
	if i>>3 >= len(bm) {
		return false
	}
	return bm[i>>3]&(1<<(uint(i)&7)) != 0
}

// setNull sets bit i.
func setNull(bm []byte, i int) { bm[i>>3] |= 1 << (uint(i) & 7) }

// nonNullCount counts lanes [0,n) whose NULL bit is clear.
func nonNullCount(bm []byte, n int) int {
	nulls := 0
	full := n >> 3
	for _, b := range bm[:min(full, len(bm))] {
		nulls += bits.OnesCount8(b)
	}
	if tail := n & 7; tail != 0 && full < len(bm) {
		nulls += bits.OnesCount8(bm[full] & byte(1<<uint(tail)-1))
	}
	return n - nulls
}

func (f *ResultBatch) appendPayload(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(f.Query))
	dst = appendUvarint(dst, uint64(f.NRows))
	dst = appendUvarint(dst, uint64(len(f.Cols)))
	for ci := range f.Cols {
		c := &f.Cols[ci]
		dst = append(dst, byte(c.Kind))
		if c.Kind == types.KindNull {
			for _, v := range c.Vals {
				enc, err := v.GobEncode()
				if err != nil {
					// Unencodable kinds cannot occur for values built by the
					// engine; encode a NULL so the frame stays well-formed.
					enc = []byte{byte(types.KindNull)}
				}
				dst = appendBytes(dst, enc)
			}
			continue
		}
		dst = append(dst, c.Nulls...)
		switch c.Kind {
		case types.KindInt:
			for _, v := range c.Ints {
				dst = appendVarint(dst, v)
			}
		case types.KindString:
			for _, s := range c.Strs {
				dst = appendStr(dst, s)
			}
		}
	}
	return dst
}

func decodeResultBatch(r *buf) (Frame, error) {
	var f ResultBatch
	var err error
	if f.Query, err = r.u32(); err != nil {
		return nil, err
	}
	nr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nr > MaxBatchRows {
		return nil, fmt.Errorf("batch of %d rows exceeds cap %d", nr, MaxBatchRows)
	}
	f.NRows = uint32(nr)
	n := int(nr)
	nc, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nc > 0 {
		f.Cols = make([]Col, nc)
	}
	for ci := 0; ci < nc; ci++ {
		c := &f.Cols[ci]
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		c.Kind = types.Kind(k)
		if c.Kind != types.KindNull && c.Kind != types.KindInt && c.Kind != types.KindString {
			err := types.CheckKind(c.Kind)
			if err == nil {
				err = fmt.Errorf("%s has no columnar layout", c.Kind)
			}
			return nil, fmt.Errorf("batch column %d: %w", ci, err)
		}
		if c.Kind == types.KindNull {
			// Generic column: one encoded Value per lane.
			if n > 0 {
				if n > r.remaining() { // every value costs ≥1 byte
					return nil, ErrTruncated
				}
				c.Vals = make([]types.Value, n)
				for i := 0; i < n; i++ {
					enc, err := r.bytes()
					if err != nil {
						return nil, err
					}
					if err := c.Vals[i].GobDecode(enc); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		nb := nullBitmapLen(n)
		if r.remaining() < nb {
			return nil, ErrTruncated
		}
		if nb > 0 {
			c.Nulls = make([]byte, nb)
			copy(c.Nulls, r.b)
			r.b = r.b[nb:]
		}
		dense := nonNullCount(c.Nulls, n)
		if dense > r.remaining() { // every lane costs ≥1 byte
			return nil, ErrTruncated
		}
		if dense == 0 {
			continue
		}
		if c.Kind == types.KindInt {
			c.Ints = make([]int64, dense)
			for i := range c.Ints {
				if c.Ints[i], err = r.varint(); err != nil {
					return nil, err
				}
			}
		} else {
			c.Strs = make([]string, dense)
			for i := range c.Strs {
				if c.Strs[i], err = r.str(); err != nil {
					return nil, err
				}
			}
		}
	}
	return &f, nil
}

// BatchFromValues builds a columnar batch from row-major values (all rows
// the same width). Columns whose non-NULL lanes share one of the kernel
// kinds (INT, STRING) take the typed layout; mixed-kind and
// VECTOR columns fall back to the generic per-value encoding.
func BatchFromValues(query uint32, rows [][]types.Value) *ResultBatch {
	b := &ResultBatch{Query: query, NRows: uint32(len(rows))}
	if len(rows) == 0 {
		return b
	}
	width := len(rows[0])
	b.Cols = make([]Col, width)
	n := len(rows)
	for ci := 0; ci < width; ci++ {
		kind := types.KindNull
		typed := true
		dense := 0 // non-NULL lanes: the typed payload's length
		for _, row := range rows {
			v := row[ci]
			k := v.Kind()
			if k == types.KindNull {
				continue
			}
			dense++
			if k == types.KindVector {
				typed = false
				break
			}
			if kind == types.KindNull {
				kind = k
			} else if kind != k {
				typed = false
				break
			}
		}
		c := &b.Cols[ci]
		if !typed {
			c.Kind = types.KindNull
			c.Vals = make([]types.Value, n)
			for i, row := range rows {
				c.Vals[i] = row[ci]
			}
			continue
		}
		if kind == types.KindNull {
			// All-NULL column: encode as INT with a full bitmap — cheapest
			// typed layout, no payload at all.
			kind = types.KindInt
		}
		c.Kind = kind
		if nb := nullBitmapLen(n); nb > 0 {
			c.Nulls = make([]byte, nb)
		}
		if dense > 0 {
			if kind == types.KindInt {
				c.Ints = make([]int64, 0, dense)
			} else {
				c.Strs = make([]string, 0, dense)
			}
		}
		for i, row := range rows {
			v := row[ci]
			if v.IsNull() {
				setNull(c.Nulls, i)
			} else if kind == types.KindInt {
				c.Ints = append(c.Ints, v.Int())
			} else {
				c.Strs = append(c.Strs, v.Str())
			}
		}
	}
	return b
}

// ColOf slices lanes [lo, hi) of an executor column into a typed result
// column. A range without NULLs shares the column's payload; otherwise its
// non-NULL lanes are copied out densely.
func ColOf(cv *expr.ColVec, lo, hi int) Col {
	c := Col{Kind: cv.Kind, Nulls: make([]byte, nullBitmapLen(hi-lo))}
	nulls := 0
	for i := lo; i < hi; i++ {
		if cv.Nulls.Get(i) {
			setNull(c.Nulls, i-lo)
			nulls++
		}
	}
	if nulls == 0 {
		if cv.Kind == types.KindString {
			c.Strs = cv.S[lo:hi]
		} else {
			c.Ints = cv.I[lo:hi]
		}
		return c
	}
	for i := lo; i < hi; i++ {
		if cv.Nulls.Get(i) {
			continue
		}
		if cv.Kind == types.KindString {
			c.Strs = append(c.Strs, cv.S[i])
		} else {
			c.Ints = append(c.Ints, cv.I[i])
		}
	}
	return c
}

// Values expands the batch back to row-major values. It fails on internal
// inconsistencies (payload shorter than the bitmap promises) rather than
// panicking, so a decoded frame can always be expanded safely.
func (f *ResultBatch) Values() ([][]types.Value, error) {
	return ExpandBatches([]*ResultBatch{f}, len(f.Cols))
}

// ExpandBatches expands a result stream's batches, in order, into rows of
// width values, every cell in one exactly sized array. A batch of another
// width, or one whose payload does not match its bitmap, is an error.
func ExpandBatches(batches []*ResultBatch, width int) ([][]types.Value, error) {
	n := 0
	for _, f := range batches {
		n += int(f.NRows)
	}
	if n == 0 {
		return nil, nil
	}
	rows := make([][]types.Value, n)
	cells := make([]types.Value, n*width)
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	at := 0
	for bi, f := range batches {
		if f.NRows > 0 && len(f.Cols) != width {
			return nil, fmt.Errorf("wire: batch %d has %d columns, want %d", bi, len(f.Cols), width)
		}
		if err := f.expand(rows[at : at+int(f.NRows)]); err != nil {
			return nil, err
		}
		at += int(f.NRows)
	}
	return rows, nil
}

// expand fills rows, one per lane, with the batch's values.
func (f *ResultBatch) expand(rows [][]types.Value) error {
	n := len(rows)
	for ci := range f.Cols {
		c := &f.Cols[ci]
		if c.Kind == types.KindNull {
			if len(c.Vals) != n {
				return fmt.Errorf("wire: generic column %d has %d of %d lanes", ci, len(c.Vals), n)
			}
			for i := 0; i < n; i++ {
				rows[i][ci] = c.Vals[i]
			}
			continue
		}
		di := 0
		for i := 0; i < n; i++ {
			if nullAt(c.Nulls, i) {
				rows[i][ci] = types.Null
				continue
			}
			switch c.Kind {
			case types.KindInt:
				if di >= len(c.Ints) {
					return fmt.Errorf("wire: column %d INT payload underflow", ci)
				}
				rows[i][ci] = types.NewInt(c.Ints[di])
			case types.KindString:
				if di >= len(c.Strs) {
					return fmt.Errorf("wire: column %d STRING payload underflow", ci)
				}
				rows[i][ci] = types.NewString(c.Strs[di])
			default:
				return fmt.Errorf("wire: column %d has unknown kind %d", ci, c.Kind)
			}
			di++
		}
	}
	return nil
}
