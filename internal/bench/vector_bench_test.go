package bench

// Vectorized-execution microbenchmarks. Every benchmark here performs the
// same task under two code paths — the columnar batch path (default) and the
// row-at-a-time path (BENCH_NOVECTOR=1 in the environment) — so `make
// bench-vector` can record the two runs back to back into BENCH_vector.json
// as directly comparable "rowpath" and "vector" labels.
//
// The batch-level benches (VectorScan, VectorFilter) reuse every buffer
// (chunk list, batch, bitmaps) across operations: after one warm-up
// pass the vector label must run at (near-)zero allocations per op. The Exec
// bench keeps full row materialization in the measured region for context —
// that part of the cost is unchanged by vectorization.

import (
	"os"
	"runtime"
	"testing"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// benchNoVector forces the row-at-a-time path so the same benchmark names can
// be re-recorded under the "rowpath" label.
var benchNoVector = os.Getenv("BENCH_NOVECTOR") != ""

// BenchmarkVectorScan scans the table and sums scanned columns — "col" reads
// one column (the classic columnar consumer: an aggregate over a scan),
// "wide" reads every column (SELECT * width). The row path answers by
// materializing rows and reading cells; the vector path takes the table's
// sealed chunks and reads each chunk's cached column vectors.
func BenchmarkVectorScan(b *testing.B) {
	variants := []struct {
		name string
		cols []int
	}{
		{"col", []int{2}},
		{"wide", []int{0, 1, 2}},
	}
	for _, v := range variants {
		for _, n := range kernelSizes {
			b.Run(v.name+"/"+sizeName(n), func(b *testing.B) {
				tbl := kernelTable(b, "R", n)
				scan := engine.NewScan(tbl, "R")
				rs := scan.Schema()
				var sum int64
				var pass func() int64

				if benchNoVector {
					pass = func() int64 {
						ctx := engine.NewExecCtx()
						rows, err := scan.Execute(ctx)
						if err != nil {
							b.Fatal(err)
						}
						var s int64
						for _, r := range rows {
							for _, ci := range v.cols {
								s += r.Vals[ci].Int()
							}
						}
						return s
					}
				} else {
					var chunks []*expr.Chunk
					var batch expr.Batch
					pass = func() int64 {
						chunks = tbl.ChunksInto(chunks)
						var s int64
						for _, c := range chunks {
							batch.Reset(rs, c)
							for _, ci := range v.cols {
								for _, x := range batch.Col(ci).I {
									s += x
								}
							}
						}
						return s
					}
				}

				want := pass() // warm up snapshot/batch/bitmap buffers
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sum = pass()
				}
				if sum != want {
					b.Fatalf("checksum drifted: %d != %d", sum, want)
				}
			})
		}
	}
}

// BenchmarkVectorFilter counts the rows matching the KernelFilter predicate
// (a < 50). The row path runs Filter.Execute (row materialization included —
// that is how the row path answers anything); the vector path runs the
// compiled kernel + selection-bitmap pass and popcounts, materializing
// nothing. The vector label must stay allocation-free in steady state.
func BenchmarkVectorFilter(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			tbl := kernelTable(b, "R", n)
			rs := engine.NewScan(tbl, "R").Schema()
			pred := expr.NewCmp(expr.LT, expr.NewCol("R", "a"), expr.NewConst(types.NewInt(50)))
			if err := pred.Resolve(rs); err != nil {
				b.Fatal(err)
			}
			var pass func() int

			if benchNoVector {
				plan := engine.NewFilter(engine.NewScan(tbl, "R"), pred)
				pass = func() int {
					ctx := engine.NewExecCtx()
					ctx.NoVector = true
					rows, err := plan.Execute(ctx)
					if err != nil {
						b.Fatal(err)
					}
					return len(rows)
				}
			} else {
				vp := expr.CompileVecPred(pred, rs)
				if vp == nil || vp.Residual != nil {
					b.Fatal("predicate did not fully compile to kernels")
				}
				var chunks []*expr.Chunk
				var batch expr.Batch
				var t, nf expr.Bitmap
				pass = func() int {
					chunks = tbl.ChunksInto(chunks)
					t = t.Reset(n)
					t.SetAll(n)
					nf = nf.Reset(n)
					nf.SetAll(n)
					for k, c := range chunks {
						batch.Reset(rs, c)
						wlo, wn := k*expr.BatchSize/64, (len(c.Tuples)+63)/64
						vp.Eval(&batch, t[wlo:wlo+wn], nf[wlo:wlo+wn], nil)
					}
					return t.Count()
				}
			}

			pass() // warm up
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if kept := pass(); kept != n/2 {
					b.Fatalf("filter kept %d rows, want %d", kept, n/2)
				}
			}
		})
	}
}

// BenchmarkVectorFilterExec is the full Filter.Execute — selection plus row
// materialization — with the vector path on by default and forced off under
// BENCH_NOVECTOR. Materializing the surviving half of the table dominates
// and is identical on both paths; this bench records how much of the filter
// cost vectorization can and cannot remove.
func BenchmarkVectorFilterExec(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			tbl := kernelTable(b, "R", n)
			pred := expr.NewCmp(expr.LT, expr.NewCol("R", "a"), expr.NewConst(types.NewInt(50)))
			scan := engine.NewScan(tbl, "R")
			if err := pred.Resolve(scan.Schema()); err != nil {
				b.Fatal(err)
			}
			plan := engine.NewFilter(scan, pred)
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := engine.NewExecCtx()
				ctx.NoVector = benchNoVector
				rows, err := plan.Execute(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != n/2 {
					b.Fatalf("filter kept %d rows, want %d", len(rows), n/2)
				}
			}
		})
	}
}
