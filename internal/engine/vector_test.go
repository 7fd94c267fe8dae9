package engine

import (
	"fmt"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// vectorTestTable builds (id INT, a INT, f FLOAT, s TEXT, b INT) with NULLs
// seeded through a, f and s: every third a is NULL, every fifth f, every
// seventh s — NULL-heavy enough to exercise the Unknown lanes of every
// kernel.
func vectorTestTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := catalog.MustSchema("V", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString},
		{Name: "b", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		a, f, s := types.NewInt(int64(i%100)), types.NewFloat(float64(i%50)/2), types.NewString(fmt.Sprintf("s%02d", i%20))
		if i%3 == 0 {
			a = types.Null
		}
		if i%5 == 0 {
			f = types.Null
		}
		if i%7 == 0 {
			s = types.Null
		}
		if _, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)), a, f, s, types.NewInt(int64(i % 10)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// vectorTestPreds returns named predicate builders covering all-pass,
// all-fail, selective kernels of every column type, IS [NOT] NULL,
// column-vs-column, comparison against a NULL literal, and an OR conjunct
// that forces the row-at-a-time residual.
func vectorTestPreds() map[string]func() expr.Expr {
	col := func(name string) expr.Expr { return expr.NewCol("V", name) }
	ci := func(v int64) expr.Expr { return expr.NewConst(types.NewInt(v)) }
	return map[string]func() expr.Expr{
		"all-pass":   func() expr.Expr { return expr.NewCmp(expr.GE, col("id"), ci(0)) },
		"all-fail":   func() expr.Expr { return expr.NewCmp(expr.LT, col("id"), ci(0)) },
		"int-half":   func() expr.Expr { return expr.NewCmp(expr.LT, col("a"), ci(50)) },
		"int-rev":    func() expr.Expr { return expr.NewCmp(expr.GT, ci(50), col("a")) },
		"float-cmp":  func() expr.Expr { return expr.NewCmp(expr.LE, col("f"), expr.NewConst(types.NewFloat(10.5))) },
		"int-vs-flt": func() expr.Expr { return expr.NewCmp(expr.NE, col("a"), expr.NewConst(types.NewFloat(4.0))) },
		"str-eq":     func() expr.Expr { return expr.NewCmp(expr.EQ, col("s"), expr.NewConst(types.NewString("s03"))) },
		"str-range":  func() expr.Expr { return expr.NewCmp(expr.GT, col("s"), expr.NewConst(types.NewString("s10"))) },
		"is-null":    func() expr.Expr { return &expr.IsNull{Kid: col("a")} },
		"not-null":   func() expr.Expr { return &expr.IsNull{Kid: col("f"), Negate: true} },
		"col-col":    func() expr.Expr { return expr.NewCmp(expr.GT, col("a"), col("b")) },
		"null-const": func() expr.Expr { return expr.NewCmp(expr.EQ, col("a"), expr.NewConst(types.Null)) },
		"conj": func() expr.Expr {
			return expr.NewAnd(
				expr.NewCmp(expr.LT, col("a"), ci(80)),
				expr.NewCmp(expr.GE, col("b"), ci(2)),
				&expr.IsNull{Kid: col("s"), Negate: true})
		},
		// OR is not kernel-compilable: prefix compiles, suffix falls back.
		"residual": func() expr.Expr {
			return expr.NewAnd(
				expr.NewCmp(expr.LT, col("a"), ci(70)),
				expr.NewOr(
					expr.NewCmp(expr.EQ, col("b"), ci(3)),
					&expr.IsNull{Kid: col("f")}))
		},
		// Nothing compilable at all: pure OR predicate.
		"no-prefix": func() expr.Expr {
			return expr.NewOr(
				expr.NewCmp(expr.EQ, col("b"), ci(1)),
				expr.NewCmp(expr.EQ, col("b"), ci(7)))
		},
	}
}

// TestVectorFilterMatchesRowPath is the vector/row equivalence sweep over
// selection-bitmap edge cases: empty table, single row, batch-boundary sizes
// (BatchSize−1 / BatchSize / BatchSize+1), a multi-batch size, NULL-heavy
// columns, and every predicate shape above — output must be byte-identical
// with the vector path on and off, sequentially and partitioned.
func TestVectorFilterMatchesRowPath(t *testing.T) {
	sizes := []int{0, 1, expr.BatchSize - 1, expr.BatchSize, expr.BatchSize + 1, 2500}
	for _, n := range sizes {
		tbl := vectorTestTable(t, n)
		for name, mk := range vectorTestPreds() {
			scan := NewScan(tbl, "V")
			pred := mk()
			if err := pred.Resolve(scan.Schema()); err != nil {
				t.Fatal(err)
			}
			rowCtx := NewExecCtx()
			rowCtx.NoVector = true
			want, err := NewFilter(NewScan(tbl, "V"), pred).Execute(rowCtx)
			if err != nil {
				t.Fatal(err)
			}
			vecCtx := NewExecCtx()
			got, err := NewFilter(NewScan(tbl, "V"), pred).Execute(vecCtx)
			if err != nil {
				t.Fatal(err)
			}
			if rowsFingerprint(got) != rowsFingerprint(want) {
				t.Errorf("n=%d pred=%s: vector path diverged from row path (%d vs %d rows)",
					n, name, len(got), len(want))
			}
			parCtx := NewExecCtx()
			parCtx.Pool = &testPool{workers: 4}
			parCtx.ParallelMinRows = 16
			gotPar, err := NewFilter(NewScan(tbl, "V"), pred).Execute(parCtx)
			if err != nil {
				t.Fatal(err)
			}
			if rowsFingerprint(gotPar) != rowsFingerprint(want) {
				t.Errorf("n=%d pred=%s: parallel vector path diverged from row path", n, name)
			}
		}
	}
}

// TestParallelPartitionsCancelable: partition contexts come from Fork, so a
// closed Done stops the parallel scan on the vector path as on the row path.
func TestParallelPartitionsCancelable(t *testing.T) {
	tbl := vectorTestTable(t, 2500)
	done := make(chan struct{})
	close(done)
	for _, noVector := range []bool{false, true} {
		scan := NewScan(tbl, "V")
		pred := expr.NewCmp(expr.LT, expr.NewCol("V", "a"), expr.NewConst(types.NewInt(40)))
		if err := pred.Resolve(scan.Schema()); err != nil {
			t.Fatal(err)
		}
		ctx := NewExecCtx()
		ctx.Pool = &testPool{workers: 4}
		ctx.ParallelMinRows = 16
		ctx.NoVector = noVector
		ctx.Done = done
		if _, err := NewFilter(scan, pred).Execute(ctx); err != ErrCanceled {
			t.Errorf("NoVector=%v: got %v, want ErrCanceled", noVector, err)
		}
	}
}

// TestVectorProjectFusion checks the fused project-filter-scan path against
// the row path, including TID preservation.
func TestVectorProjectFusion(t *testing.T) {
	for _, n := range []int{0, 1, expr.BatchSize, 2500} {
		tbl := vectorTestTable(t, n)
		mk := func() (*Project, error) {
			scan := NewScan(tbl, "V")
			pred := expr.NewCmp(expr.LT, expr.NewCol("V", "a"), expr.NewConst(types.NewInt(40)))
			if err := pred.Resolve(scan.Schema()); err != nil {
				return nil, err
			}
			return NewProject(NewFilter(scan, pred), []int{3, 0}), nil
		}
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		rowCtx := NewExecCtx()
		rowCtx.NoVector = true
		want, err := p.Execute(rowCtx)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p2.Execute(NewExecCtx())
		if err != nil {
			t.Fatal(err)
		}
		if rowsFingerprint(got) != rowsFingerprint(want) {
			t.Errorf("n=%d: fused projection diverged from row path", n)
		}
	}
}

// TestVectorStatsCounters pins the engine.batch_* accounting: a 2500-row
// vectorized filter sees ceil(2500/BatchSize) batches, 2500 batch rows, and
// zero fallback rows for a fully compiled predicate.
func TestVectorStatsCounters(t *testing.T) {
	tbl := vectorTestTable(t, 2500)
	scan := NewScan(tbl, "V")
	pred := expr.NewCmp(expr.LT, expr.NewCol("V", "a"), expr.NewConst(types.NewInt(50)))
	if err := pred.Resolve(scan.Schema()); err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx()
	if _, err := NewFilter(scan, pred).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	wantBatches := int64((2500 + expr.BatchSize - 1) / expr.BatchSize)
	if ctx.Stats.BatchesBuilt != wantBatches || ctx.Stats.BatchRows != 2500 || ctx.Stats.BatchFallbackRows != 0 {
		t.Errorf("stats = built %d rows %d fallback %d; want %d/2500/0",
			ctx.Stats.BatchesBuilt, ctx.Stats.BatchRows, ctx.Stats.BatchFallbackRows, wantBatches)
	}
	if ctx.Stats.RowsScanned != 2500 {
		t.Errorf("RowsScanned = %d, want 2500", ctx.Stats.RowsScanned)
	}
}

// TestVectorFillBailFallsBack: a stored value whose dynamic kind deviates
// from the declared column kind must push the whole filter onto the row path
// (same output), not crash or mis-evaluate.
func TestVectorFillBailFallsBack(t *testing.T) {
	schema := catalog.MustSchema("W", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < 100; i++ {
		v := types.NewInt(int64(i))
		if i == 57 {
			v = types.NewFloat(57) // deviates from the declared INT kind
		}
		if _, err := tbl.Insert(&types.Tuple{Vals: []types.Value{types.NewInt(int64(i + 1)), v}}); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewScan(tbl, "W")
	pred := expr.NewCmp(expr.GE, expr.NewCol("W", "a"), expr.NewConst(types.NewInt(50)))
	if err := pred.Resolve(scan.Schema()); err != nil {
		t.Fatal(err)
	}
	rowCtx := NewExecCtx()
	rowCtx.NoVector = true
	want, err := NewFilter(NewScan(tbl, "W"), pred).Execute(rowCtx)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewExecCtx()
	got, err := NewFilter(NewScan(tbl, "W"), pred).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rowsFingerprint(got) != rowsFingerprint(want) {
		t.Errorf("fill bail did not fall back to the row path cleanly")
	}
}
