package engine

import (
	"math/rand"
	"sync"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// derivedTestTable builds (id INT, f VECTOR, d INT derived from f) with
// n rows: d cycles 0, 1, 2, NULL.
func derivedTestTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := catalog.MustSchema("V", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "f", Kind: types.KindVector},
		{Name: "d", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 3},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		d := types.NewInt(int64(i % 4))
		if i%4 == 3 {
			d = types.Null
		}
		if _, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)), types.NewVector([]float64{1}), d,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// derivedTestPreds are filters over the derived column, alone and beside a
// fixed one.
func derivedTestPreds() map[string]func() expr.Expr {
	col := func(name string) expr.Expr { return expr.NewCol("V", name) }
	ci := func(v int64) expr.Expr { return expr.NewConst(types.NewInt(v)) }
	return map[string]func() expr.Expr{
		"eq":      func() expr.Expr { return expr.NewCmp(expr.EQ, col("d"), ci(2)) },
		"is-null": func() expr.Expr { return &expr.IsNull{Kid: col("d")} },
		"conj": func() expr.Expr {
			return expr.NewAnd(expr.NewCmp(expr.GT, col("id"), ci(500)), expr.NewCmp(expr.LE, col("d"), ci(1)))
		},
	}
}

// TestVectorPatchedChunkMatchesRowPath: write-backs through a view patch the
// vectors earlier scans built on its chunks. Around the chunk edge (lanes
// 1023, 1024, 1025) a same-kind value, NULL over a value and a value over
// NULL are written in turn; after each, scans of the view on the vector
// path equal the row path and stay on the vector path. A value of another
// kind is refused, and the scans still agree.
func TestVectorPatchedChunkMatchesRowPath(t *testing.T) {
	tbl := derivedTestTable(t, 2500)
	v := tbl.View()
	lanes := []int{expr.BatchSize - 1, expr.BatchSize, expr.BatchSize + 1}
	check := func(step string) {
		t.Helper()
		for name, mk := range derivedTestPreds() {
			pred := mk()
			if err := pred.Resolve(NewScan(v, "V").Schema()); err != nil {
				t.Fatal(err)
			}
			run := func(noVector bool) (string, *Stats) {
				ctx := NewExecCtx()
				ctx.NoVector = noVector
				out, err := NewFilter(NewScan(v, "V"), pred).Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return rowsFingerprint(out), ctx.Stats
			}
			want, _ := run(true)
			for pass := 0; pass < 2; pass++ {
				got, st := run(false)
				if got != want {
					t.Errorf("%s, pred %s, pass %d: vector scan diverged from the row path", step, name, pass)
				}
				if st.BatchesBuilt != 3 || st.BatchFallbackRows != 0 {
					t.Errorf("%s, pred %s: left the vector path (%d batches, %d fallback rows)", step, name, st.BatchesBuilt, st.BatchFallbackRows)
				}
			}
		}
	}
	write := func(val types.Value) {
		t.Helper()
		for _, lane := range lanes {
			id := int64(lane + 1)
			if _, err := v.WriteDerived(id, "d", val, v.Get(id).Gen, !val.IsNull()); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("before writes")
	write(types.NewInt(1))
	check("value over value")
	write(types.Null)
	check("NULL over value")
	write(types.NewInt(2))
	check("value over NULL")
	if _, err := v.WriteDerived(1024, "d", types.NewString("2"), v.Get(1024).Gen, true); err == nil {
		t.Fatal("a STRING written into the INT column d was not refused")
	}
	check("value of another kind refused")
}

// TestChunkRaceScanWhileWriteBack: scans of one view run while other
// goroutines write back through it and open and scan fresh views of the
// table. Every scan's rows equal the row path over the chunks that scan
// read. Run it under -race.
func TestChunkRaceScanWhileWriteBack(t *testing.T) {
	tbl := derivedTestTable(t, 2500)
	v := tbl.View()
	scan := NewScan(v, "V")
	pred := derivedTestPreds()["conj"]()
	if err := pred.Resolve(scan.Schema()); err != nil {
		t.Fatal(err)
	}
	f := NewFilter(scan, pred)
	vp := f.vecPred(scan.rs)

	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				id := int64(rng.Intn(2500) + 1)
				val := types.NewInt(int64(rng.Intn(3)))
				if rng.Intn(4) == 0 {
					val = types.Null
				}
				if _, err := v.WriteDerived(id, "d", val, v.Get(id).Gen, !val.IsNull()); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			fresh := tbl.View()
			run := func(noVector bool) string {
				ctx := NewExecCtx()
				ctx.NoVector = noVector
				out, err := NewFilter(NewScan(fresh, "V"), pred).Execute(ctx)
				if err != nil {
					t.Error(err)
				}
				return rowsFingerprint(out)
			}
			if run(false) != run(true) {
				t.Error("a fresh view's vector scan diverged from its row path")
				return
			}
		}
	}()

	var scanners sync.WaitGroup
	for s := 0; s < 3; s++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for i := 0; i < 40; i++ {
				ctx := NewExecCtx()
				chunks, n := ctx.scanChunks(v)
				tm, nf, pend, err := vecSelect(ctx, scan.rs, vp, chunks, n)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := f.vecEmit(ctx, scan, vp, chunks, n, tm, nf, pend)
				if err != nil {
					t.Error(err)
					return
				}
				var want []*expr.Row
				for _, c := range chunks {
					for _, tu := range c.Tuples {
						r := ctx.Arena.RowFromTuple(scan.rs, tu)
						if tv, err := expr.EvalPred(ctx.Eval, pred, r); err == nil && tv == expr.True {
							want = append(want, r)
						}
					}
				}
				if rowsFingerprint(got) != rowsFingerprint(want) {
					t.Error("scan rows differ from the row path over the chunks it read")
					return
				}
			}
		}()
	}
	scanners.Wait()
	close(done)
	writers.Wait()
}
