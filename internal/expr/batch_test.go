package expr

import (
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
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString},
	}))
}

func TestBatchColFillAndReuse(t *testing.T) {
	rs := batchTestSchema()
	mk := func(i int64, f float64, s string) *types.Tuple {
		return &types.Tuple{ID: i, Vals: []types.Value{
			types.NewInt(i), types.NewFloat(f), types.NewString(s),
		}}
	}
	var b Batch
	b.Reset(rs, []*types.Tuple{mk(1, 1.5, "a"), {ID: 2, Vals: []types.Value{types.Null, types.Null, types.Null}}, mk(3, 3.5, "c")})
	iv, ok := b.Col(0)
	if !ok || iv.Kind != types.KindInt {
		t.Fatal("INT column fill failed")
	}
	if iv.I[0] != 1 || iv.I[2] != 3 || !iv.Nulls.Get(1) || iv.Nulls.Get(0) {
		t.Fatalf("INT column lanes wrong: %v nulls=%v", iv.I, iv.Nulls)
	}
	fv, ok := b.Col(1)
	if !ok || fv.F[2] != 3.5 || !fv.Nulls.Get(1) {
		t.Fatal("FLOAT column fill failed")
	}
	sv, ok := b.Col(2)
	if !ok || sv.S[0] != "a" || !sv.Nulls.Get(1) {
		t.Fatal("STRING column fill failed")
	}

	// Reuse with a kind deviation: the refill must bail, and keep bailing on
	// repeated access within the same stride.
	b.Reset(rs, []*types.Tuple{{ID: 4, Vals: []types.Value{types.NewString("oops"), types.Null, types.Null}}})
	if _, ok := b.Col(0); ok {
		t.Fatal("kind deviation not detected")
	}
	if _, ok := b.Col(0); ok {
		t.Fatal("cached deviation lost on second access")
	}
	// And a fresh Reset clears the poisoned state.
	b.Reset(rs, []*types.Tuple{mk(9, 9.5, "z")})
	if iv, ok := b.Col(0); !ok || iv.I[0] != 9 {
		t.Fatal("batch did not recover after Reset")
	}
}

// TestCompileVecPredShapes pins the prefix rule: compilable conjuncts before
// the first exotic one become kernels, the rest stays as residual.
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
		NewCmp(GE, NewConst(types.NewFloat(1)), col("f")),
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
		NewCmp(GT, col("f"), NewConst(types.NewFloat(0))),
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

	// NULL literal compiles to the all-Unknown kernel.
	vp = CompileVecPred(resolve(NewCmp(EQ, col("i"), NewConst(types.Null))), rs)
	if vp == nil || vp.NumKernels() != 1 || vp.Residual != nil {
		t.Fatalf("NULL-literal compile: %+v", vp)
	}
}

// TestVecPredKleeneLanes drives one batch through kernels directly and
// checks the t/nf bitmaps implement SQL three-valued AND: True lanes set in
// both, Unknown lanes only in nf, False lanes in neither.
func TestVecPredKleeneLanes(t *testing.T) {
	rs := batchTestSchema()
	tuples := []*types.Tuple{
		{ID: 1, Vals: []types.Value{types.NewInt(1), types.NewFloat(0), types.NewString("")}}, // i<5: True
		{ID: 2, Vals: []types.Value{types.Null, types.NewFloat(0), types.NewString("")}},      // NULL<5: Unknown
		{ID: 3, Vals: []types.Value{types.NewInt(9), types.NewFloat(0), types.NewString("")}}, // 9<5: False
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
	b.Reset(rs, tuples)
	var tm, nf Bitmap
	tm = tm.Reset(3)
	tm.SetAll(3)
	nf = nf.Reset(3)
	nf.SetAll(3)
	if !vp.Eval(&b, tm, nf, nil) {
		t.Fatal("fill bailed unexpectedly")
	}
	wantT := []bool{true, false, false}
	wantNF := []bool{true, true, false}
	for i := 0; i < 3; i++ {
		if tm.Get(i) != wantT[i] || nf.Get(i) != wantNF[i] {
			t.Errorf("lane %d: t=%v nf=%v, want t=%v nf=%v", i, tm.Get(i), nf.Get(i), wantT[i], wantNF[i])
		}
	}
}
