package expr

import (
	"fmt"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

func TestBitmapOps(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, BatchSize - 1, BatchSize} {
		var b Bitmap
		b = b.Reset(n)
		if b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitmap count %d", n, b.Count())
		}
		b.SetAll(n)
		if b.Count() != n {
			t.Fatalf("n=%d: SetAll count %d", n, b.Count())
		}
		if n == 0 {
			continue
		}
		b.Clear(0)
		b.Clear(n - 1)
		want := n - 2
		if n == 1 {
			want = 0 // cleared the same lane twice
		}
		if b.Count() != want {
			t.Fatalf("n=%d: count after clears = %d, want %d", n, b.Count(), want)
		}
		if b.Get(0) || b.Get(n-1) {
			t.Fatalf("n=%d: cleared lanes still set", n)
		}
		b.Set(0)
		if !b.Get(0) {
			t.Fatalf("n=%d: Set(0) lost", n)
		}
		// Reusing via Reset must clear everything again.
		b = b.Reset(n)
		if b.Count() != 0 {
			t.Fatalf("n=%d: Reset left %d bits", n, b.Count())
		}
	}
}

func batchTestSchema() *RowSchema {
	return SchemaForTable("T", catalog.MustSchema("T", []catalog.Column{
		{Name: "i", Kind: types.KindInt},
		{Name: "f", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	}))
}

func TestBatchColFillAndReuse(t *testing.T) {
	rs := batchTestSchema()
	mk := func(i, f int64, s string) *types.Tuple {
		return &types.Tuple{ID: i, Vals: []types.Value{
			types.NewInt(i), types.NewInt(f), types.NewString(s),
		}}
	}
	var b Batch
	b.Reset(rs, NewChunk([]*types.Tuple{mk(1, 15, "a"), {ID: 2, Vals: []types.Value{types.Null, types.Null, types.Null}}, mk(3, 35, "c")}, 3))
	iv := b.Col(0)
	if iv.Kind != types.KindInt {
		t.Fatal("INT column fill failed")
	}
	if iv.I[0] != 1 || iv.I[2] != 3 || !iv.Nulls.Get(1) || iv.Nulls.Get(0) {
		t.Fatalf("INT column lanes wrong: %v nulls=%v", iv.I, iv.Nulls)
	}
	if fv := b.Col(1); fv.I[2] != 35 || !fv.Nulls.Get(1) {
		t.Fatal("second INT column fill failed")
	}
	if sv := b.Col(2); sv.S[0] != "a" || !sv.Nulls.Get(1) {
		t.Fatal("STRING column fill failed")
	}

	// Reuse over another chunk reads that chunk's vectors.
	b.Reset(rs, NewChunk([]*types.Tuple{mk(9, 95, "z")}, 3))
	if iv := b.Col(0); iv.I[0] != 9 {
		t.Fatal("batch kept the previous chunk's vector after Reset")
	}
}

// TestChunkVectorsBuiltOnceAndPatchedInCopy: a chunk keeps the vector the
// first batch built and hands it to the next batch; Set on a clone patches
// the clone's copy by the fill rules (value, NULL over value, value over
// NULL) and leaves the original's vector alone.
func TestChunkVectorsBuiltOnceAndPatchedInCopy(t *testing.T) {
	rs := batchTestSchema()
	row := func(id int64, i, f, s types.Value) *types.Tuple {
		return &types.Tuple{ID: id, Vals: []types.Value{i, f, s}}
	}
	c := NewChunk([]*types.Tuple{
		row(1, types.NewInt(1), types.NewInt(1), types.NewString("a")),
		row(2, types.Null, types.Null, types.Null),
		row(3, types.NewInt(3), types.NewInt(3), types.NewString("c")),
	}, 3)
	var b Batch
	b.Reset(rs, c)
	iv, fv, sv := b.Col(0), b.Col(1), b.Col(2)
	b.Reset(rs, c)
	if b.Col(0) != iv {
		t.Fatal("second batch over the chunk rebuilt its vector")
	}

	cp := c.Clone()
	cp.Set(0, row(1, types.NewInt(7), types.NewInt(1), types.NewString("a")), 0) // value over value
	cp.Set(2, row(3, types.NewInt(3), types.Null, types.NewString("c")), 1)      // NULL over value
	cp.Set(1, row(2, types.Null, types.Null, types.NewString("b")), 2)           // value over NULL
	b.Reset(rs, cp)
	ci, cf, cs := b.Col(0), b.Col(1), b.Col(2)
	if !cf.Nulls.Get(2) || cf.I[2] != 0 || cs.Nulls.Get(1) || cs.S[1] != "b" {
		t.Fatalf("patched copy: ints %v nulls %v, strings %q nulls %v", cf.I, cf.Nulls, cs.S, cs.Nulls)
	}
	if iv.I[0] != 1 || fv.Nulls.Get(2) || !sv.Nulls.Get(1) || c.Tuples[0].Vals[0].Int() != 1 {
		t.Fatal("Set on the copy changed the original chunk")
	}
	// A patched vector equals a fresh build over the copy's lanes.
	var fresh Batch
	fresh.Reset(rs, NewChunk(cp.Tuples, 3))
	for col, got := range []*ColVec{ci, cf, cs} {
		want := fresh.Col(col)
		if fmt.Sprint(got.I, got.S, got.Nulls) != fmt.Sprint(want.I, want.S, want.Nulls) {
			t.Errorf("column %d: patched %v, rebuilt %v", col, got, want)
		}
	}
}

// TestCompileVecPredShapes pins the prefix rule: compilable conjuncts before
// the first exotic one become kernels, the rest stays as residual. The
// compilable comparisons are an INT column against an INT constant and a
// STRING column against a string constant, column first.
func TestCompileVecPredShapes(t *testing.T) {
	rs := batchTestSchema()
	col := func(n string) *Col { return NewCol("T", n) }
	resolve := func(e Expr) Expr {
		if err := e.Resolve(rs); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Fully compilable conjunction (TruePred lanes are skipped, not kernels).
	full := resolve(NewAnd(
		NewCmp(LT, col("i"), NewConst(types.NewInt(5))),
		TruePred{},
		&IsNull{Kid: col("s"), Negate: true},
		NewCmp(GE, col("s"), NewConst(types.NewString("a"))),
	))
	vp := CompileVecPred(full, rs)
	if vp == nil || vp.Residual != nil || vp.NumKernels() != 3 {
		t.Fatalf("full compile: %+v", vp)
	}

	// Prefix stops at the OR; the OR and everything after it is residual —
	// even the compilable trailing comparison (order semantics).
	part := resolve(NewAnd(
		NewCmp(EQ, col("i"), NewConst(types.NewInt(1))),
		NewOr(NewCmp(EQ, col("i"), NewConst(types.NewInt(2))), TruePred{}),
		NewCmp(GT, col("f"), NewConst(types.NewInt(0))),
	))
	vp = CompileVecPred(part, rs)
	if vp == nil || vp.NumKernels() != 1 || vp.Residual == nil {
		t.Fatalf("partial compile: %+v", vp)
	}
	if and, ok := vp.Residual.(*And); !ok || len(and.Kids) != 2 {
		t.Fatalf("residual should keep both trailing conjuncts: %s", vp.Residual)
	}

	// Leading exotic conjunct: nothing to vectorize.
	if vp := CompileVecPred(resolve(NewOr(TruePred{}, TruePred{})), rs); vp != nil {
		t.Fatalf("pure OR should not compile, got %+v", vp)
	}

	// Mismatched kinds must not compile (the row path raises the eval error).
	if vp := CompileVecPred(resolve(NewCmp(EQ, col("i"), NewConst(types.NewString("x")))), rs); vp != nil {
		t.Fatal("INT-vs-STRING comparison should stay on the row path")
	}

	// Every other comparison runs on the row path: two columns, a constant
	// first, a NULL literal.
	for _, e := range []Expr{
		NewCmp(EQ, col("i"), col("i")),
		NewCmp(GE, NewConst(types.NewInt(1)), col("i")),
		NewCmp(EQ, col("i"), NewConst(types.Null)),
	} {
		if vp := CompileVecPred(resolve(e), rs); vp != nil {
			t.Errorf("%s compiled to %d kernels; want the row path", e, vp.NumKernels())
		}
	}
}

// TestVecPredKleeneLanes drives one batch through kernels directly and
// checks the t/nf bitmaps implement SQL three-valued AND: True lanes set in
// both, Unknown lanes only in nf, False lanes in neither.
func TestVecPredKleeneLanes(t *testing.T) {
	rs := batchTestSchema()
	tuples := []*types.Tuple{
		{ID: 1, Vals: []types.Value{types.NewInt(1), types.NewInt(0), types.NewString("")}}, // i<5: True
		{ID: 2, Vals: []types.Value{types.Null, types.NewInt(0), types.NewString("")}},      // NULL<5: Unknown
		{ID: 3, Vals: []types.Value{types.NewInt(9), types.NewInt(0), types.NewString("")}}, // 9<5: False
	}
	pred := NewCmp(LT, NewCol("T", "i"), NewConst(types.NewInt(5)))
	if err := pred.Resolve(rs); err != nil {
		t.Fatal(err)
	}
	vp := CompileVecPred(pred, rs)
	if vp == nil {
		t.Fatal("predicate did not compile")
	}
	var b Batch
	b.Reset(rs, NewChunk(tuples, 3))
	var tm, nf Bitmap
	tm = tm.Reset(3)
	tm.SetAll(3)
	nf = nf.Reset(3)
	nf.SetAll(3)
	vp.Eval(&b, tm, nf, nil)
	wantT := []bool{true, false, false}
	wantNF := []bool{true, true, false}
	for i := 0; i < 3; i++ {
		if tm.Get(i) != wantT[i] || nf.Get(i) != wantNF[i] {
			t.Errorf("lane %d: t=%v nf=%v, want t=%v nf=%v", i, tm.Get(i), nf.Get(i), wantT[i], wantNF[i])
		}
	}
}
