package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// TestColOfMatchesBatchFromValues slices random typed columns with NULLs
// at aligned and unaligned lane ranges and checks that the batch decodes to
// the values BatchFromValues would have carried.
func TestColOfMatchesBatchFromValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindInt}
	const n = 300
	cols := expr.NewColumns(kinds, n, false)
	rows := make([][]types.Value, n)
	for k := range rows {
		rows[k] = make([]types.Value, len(kinds))
		for ci, kind := range kinds {
			cv := &cols.Cols[ci]
			if rng.Intn(4) == 0 {
				cv.Nulls.Set(k)
				continue
			}
			switch kind {
			case types.KindInt:
				cv.I[k] = rng.Int63n(1000) - 500
				rows[k][ci] = types.NewInt(cv.I[k])
			case types.KindString:
				cv.S[k] = fmt.Sprint("s", rng.Intn(9))
				rows[k][ci] = types.NewString(cv.S[k])
			}
		}
	}
	ranges := [][2]int{{0, n}, {0, 64}, {64, 128}, {8, 16}, {3, 5}, {7, 200}, {299, 300}}
	for i := 0; i < 20; i++ {
		lo := rng.Intn(n)
		ranges = append(ranges, [2]int{lo, lo + 1 + rng.Intn(n-lo)})
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		b := &ResultBatch{Query: 1, NRows: uint32(hi - lo), Cols: make([]Col, len(kinds))}
		for ci := range kinds {
			b.Cols[ci] = ColOf(&cols.Cols[ci], lo, hi)
		}
		buf, err := AppendFrame(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(bytes.NewReader(buf), 0)
		if err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		got, err := f.(*ResultBatch).Values()
		if err != nil {
			t.Fatal(err)
		}
		want, err := BatchFromValues(1, rows[lo:hi]).Values()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d,%d): got %v\nwant %v", lo, hi, got, want)
		}
	}
}
