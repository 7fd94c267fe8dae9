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
		{Name: "x", Kind: types.KindInt},
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
			b.Reset(rs, NewChunk(tuples, len(rs.Cols)))
			tb, nf := Bitmap(nil).Reset(len(tuples)), Bitmap(nil).Reset(len(tuples))
			tb.SetAll(len(tuples))
			nf.SetAll(len(tuples))
			vp.Eval(&b, tb, nf, nil)
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

// markRuntime answers the tight UDFs from synthetic tuple images: CheckState
// from the image's mark, GetValue from its stored value, read_udf with a
// value derived from the tuple id. It counts every call.
type markRuntime struct {
	imgs  images
	s     *catalog.Schema
	calls int
}

func (m *markRuntime) CheckState(_ string, tid int64, attr string) (bool, error) {
	m.calls++
	return m.imgs[tid].Enriched&m.s.MarkBit(attr) != 0, nil
}

func (m *markRuntime) GetValue(_ string, tid int64, attr string) (types.Value, error) {
	m.calls++
	return m.imgs[tid].Vals[m.s.ColIndex(attr)], nil
}

func (m *markRuntime) ReadUDF(_ string, tid int64, _ string) (types.Value, error) {
	m.calls++
	return types.NewInt(tid % 2), nil
}

// omega is ω(d = 1) for one derived column d of R.
func omega(d string) Expr {
	cs := NewUDFCall(UDFCheckState, "R", d)
	return NewOr(
		NewAnd(&Not{Kid: cs}, NewCmp(EQ, NewUDFCall(UDFReadUDF, "R", d), NewConst(types.NewInt(1)))),
		NewAnd(cs.Clone(), NewCmp(EQ, NewUDFCall(UDFGetValue, "R", d), NewConst(types.NewInt(1)))),
	)
}

// TestGuardedKernelMatchesRowPath: a fixed conjunct followed by two guarded
// ones compiles to three kernels. Each lane's vector verdict — the kernels'
// on lanes whose image marks both guarded columns, the fixed prefix's t bit
// and Pending's on the pending ones — is the row path's ω verdict, including
// marked images holding NULL and a NULL fixed column, whose Unknown prefix
// must fail a lane that ω alone would pass. Only pending lanes make UDF
// calls.
func TestGuardedKernelMatchesRowPath(t *testing.T) {
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindInt},
		{Name: "f", Kind: types.KindVector},
		{Name: "d1", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
		{Name: "d2", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
	})
	rs := SchemaForTable("R", s)
	m1, m2 := s.MarkBit("d1"), s.MarkBit("d2")
	vals := []types.Value{types.Null, types.NewInt(0), types.NewInt(1)}
	var tuples []*types.Tuple
	imgs := images{}
	id := int64(0)
	for _, mark := range []uint64{0, m1, m2, m1 | m2} {
		for _, x := range vals {
			for _, v1 := range vals {
				for _, v2 := range vals {
					id++
					tu := &types.Tuple{ID: id, Enriched: mark, Vals: []types.Value{types.NewInt(id), x, types.Null, v1, v2}}
					tuples = append(tuples, tu)
					imgs[id] = tu
				}
			}
		}
	}
	pred := NewAnd(
		NewCmp(NE, NewCol("R", "x"), NewConst(types.NewInt(1))),
		NewGuarded([]DerivedRef{{"R", "d1"}}, NewCmp(EQ, NewCol("R", "d1"), NewConst(types.NewInt(1))), omega("d1")),
		NewGuarded([]DerivedRef{{"R", "d2"}}, NewCmp(EQ, NewCol("R", "d2"), NewConst(types.NewInt(1))), omega("d2")),
	)
	MustResolve(pred, rs)
	vp := CompileVecPred(pred, rs)
	if vp == nil || vp.NumKernels() != 3 || vp.Residual != nil || vp.Pending == nil {
		t.Fatalf("%s did not compile to three kernels with a pending suffix", pred)
	}
	var b Batch
	b.Reset(rs, NewChunk(tuples, len(rs.Cols)))
	n := len(tuples)
	tb, nf, pend := Bitmap(nil).Reset(n), Bitmap(nil).Reset(n), Bitmap(nil).Reset(n)
	tb.SetAll(n)
	nf.SetAll(n)
	vp.Eval(&b, tb, nf, pend)
	for i, tu := range tuples {
		row := RowFromTuple(rs, tu)
		rowRT := &markRuntime{imgs: imgs, s: s}
		want, err := EvalPred(&EvalCtx{Runtime: rowRT}, pred, row)
		if err != nil {
			t.Fatal(err)
		}
		x := tu.Vals[1]
		wantPend := (x.IsNull() || x.Int() != 1) && tu.Enriched&(m1|m2) != m1|m2
		if pend.Get(i) != wantPend {
			t.Errorf("lane %d (id %d, mark %b): pending %v, want %v", i, tu.ID, tu.Enriched, pend.Get(i), wantPend)
		}
		got, wantCalls := tb.Get(i), 0
		vecRT := &markRuntime{imgs: imgs, s: s}
		if pend.Get(i) {
			tv, err := EvalPred(&EvalCtx{Runtime: vecRT}, vp.Pending, row)
			if err != nil {
				t.Fatal(err)
			}
			got, wantCalls = got && tv == True, rowRT.calls
		}
		if got != (want == True) || vecRT.calls != wantCalls {
			t.Errorf("lane %d (mark %b, x %v, d1 %v, d2 %v): vector %v with %d calls, row %v with %d calls",
				i, tu.Enriched, x, tu.Vals[3], tu.Vals[4], got, vecRT.calls, want, rowRT.calls)
		}
	}
}
