package expr

import (
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// images is a TupleGetter over a fixed tuple set.
type images map[int64]*types.Tuple

func (m images) Get(id int64) *types.Tuple { return m[id] }

// TestEnrichedKernelMatchesRowPath: the mark test's vector kernel and its row
// evaluation agree lane by lane, for both polarities and every attribute set.
func TestEnrichedKernelMatchesRowPath(t *testing.T) {
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "f", Kind: types.KindVector},
		{Name: "d1", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
		{Name: "d2", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
	})
	rs := SchemaForTable("R", s)
	m1, m2 := s.MarkBit("d1"), s.MarkBit("d2")
	if m1 == 0 || m2 == 0 || m1 == m2 {
		t.Fatalf("mark bits d1=%b d2=%b", m1, m2)
	}
	var tuples []*types.Tuple
	imgs := images{}
	for i, mark := range []uint64{0, m1, m2, m1 | m2, 0, m1 | m2} {
		tu := &types.Tuple{ID: int64(i + 1), Enriched: mark, Vals: []types.Value{types.NewInt(int64(i + 1)), types.Null, types.Null, types.Null}}
		tuples = append(tuples, tu)
		imgs[tu.ID] = tu
	}
	for _, attrs := range [][]string{{"d1"}, {"d2"}, {"d1", "d2"}, nil} {
		for _, negate := range []bool{false, true} {
			e := NewEnriched(imgs, "R", attrs, negate)
			MustResolve(e, rs)
			vp := CompileVecPred(e, rs)
			if vp == nil || vp.NumKernels() != 1 || vp.Residual != nil {
				t.Fatalf("%s did not compile to one kernel", e)
			}
			var b Batch
			b.Reset(rs, tuples)
			tb, nf := Bitmap(nil).Reset(len(tuples)), Bitmap(nil).Reset(len(tuples))
			tb.SetAll(len(tuples))
			nf.SetAll(len(tuples))
			vp.Eval(&b, tb, nf)
			for i, tu := range tuples {
				tv, err := EvalPred(nil, e, RowFromTuple(rs, tu))
				if err != nil {
					t.Fatal(err)
				}
				if (tv == True) != tb.Get(i) || (tv != False) != nf.Get(i) {
					t.Errorf("%s lane %d (mark %b): row %v, kernel t=%v nf=%v", e, i, tu.Enriched, tv, tb.Get(i), nf.Get(i))
				}
			}
		}
	}
}
