package bench

// Kernel microbenchmarks: the non-enrichment relational hot path (scan,
// filter, hash join, semi-join, IVM apply) at 10k–1M rows. `make bench-kernel`
// runs these and regenerates BENCH_kernel.json so the repo keeps a recorded
// perf trajectory; every benchmark reports allocations because allocation
// discipline is the point — enrichment cost must dominate, so the relational
// bookkeeping around it has to stay near-free.

import (
	"fmt"
	"runtime"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/ivm"
	"enrichdb/internal/loose"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// kernelSizes are the row counts the scan-shaped kernels run at.
var kernelSizes = []int{10_000, 100_000, 1_000_000}

// kernelTable builds a table of n rows: (id INT, k INT, a INT) with k uniform
// over n/10 distinct values and a uniform over [0,100).
func kernelTable(b testing.TB, name string, n int) *storage.Table {
	b.Helper()
	schema := catalog.MustSchema(name, []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	keys := int64(n / 10)
	if keys == 0 {
		keys = 1
	}
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)),
			types.NewInt(int64(i) % keys),
			types.NewInt(int64(i) % 100),
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func sizeName(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func BenchmarkKernelScan(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			tbl := kernelTable(b, "R", n)
			plan := engine.NewScan(tbl, "R")
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := engine.NewExecCtx()
				rows, err := plan.Execute(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != n {
					b.Fatalf("scan returned %d rows, want %d", len(rows), n)
				}
			}
		})
	}
}

func BenchmarkKernelFilter(b *testing.B) {
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

func BenchmarkKernelHashJoin(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(sizeName(n), func(b *testing.B) {
			// Left: n rows, k over n/10 distinct values. Right: one row per
			// distinct key, so the join output is exactly n rows.
			left := kernelTable(b, "L", n)
			rightSchema := catalog.MustSchema("Rt", []catalog.Column{
				{Name: "id", Kind: types.KindInt},
				{Name: "k", Kind: types.KindInt},
			})
			right := storage.NewTable(rightSchema)
			for i := 0; i < n/10; i++ {
				_, err := right.Insert(&types.Tuple{Vals: []types.Value{
					types.NewInt(int64(i + 1)), types.NewInt(int64(i)),
				}})
				if err != nil {
					b.Fatal(err)
				}
			}
			scanL := engine.NewScan(left, "L")
			scanR := engine.NewScan(right, "Rt")
			join := engine.NewJoin(scanL, scanR)
			join.HashKeysL = []int{1}                            // L.k
			join.HashKeysR = []int{len(scanL.Schema().Cols) + 1} // Rt.k in the combined schema
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := engine.NewExecCtx()
				rows, err := join.Execute(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != n {
					b.Fatalf("join produced %d rows, want %d", len(rows), n)
				}
			}
		})
	}
}

func BenchmarkKernelSemiJoin(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(sizeName(n), func(b *testing.B) {
			left := kernelTable(b, "L", n)
			right := kernelTable(b, "Rt", n/10)
			scanL := engine.NewScan(left, "L")
			scanR := engine.NewScan(right, "Rt")
			ctx := engine.NewExecCtx()
			leftRows, err := scanL.Execute(ctx)
			if err != nil {
				b.Fatal(err)
			}
			rightRows, err := scanR.Execute(ctx)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-materialized inputs, so the figure is the semi-join
			// kernel alone (comparable with the recorded baseline).
			cond := expr.NewCmp(expr.EQ, expr.NewCol("L", "k"), expr.NewCol("Rt", "k"))
			sj, err := engine.NewSemiJoin(engine.NewRows(scanL.Schema(), leftRows),
				engine.NewRows(scanR.Schema(), rightRows), []expr.Expr{cond})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := sj.Execute(engine.NewExecCtx())
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("semi-join kept no rows")
				}
			}
		})
	}
}

// BenchmarkKernelProbeWarm is the loose probe on fully enriched data: 16,384
// marked rows in a frozen snapshot, the served workloads' query shape. The
// AnyUnenriched kernel clears every lane, so nothing is materialized.
func BenchmarkKernelProbeWarm(b *testing.B) {
	const n = 16_384
	db := storage.NewDB()
	tbl, err := db.CreateTable(catalog.MustSchema("tweets", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "hour", Kind: types.KindInt},
		{Name: "emb", Kind: types.KindVector},
		{Name: "sentiment", Kind: types.KindInt, Derived: true, FeatureCol: "emb", Domain: 2},
		{Name: "topic", Kind: types.KindInt, Derived: true, FeatureCol: "emb", Domain: 4},
	}))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(1); i <= n; i++ {
		if _, err := tbl.Insert(&types.Tuple{ID: i, Vals: []types.Value{types.NewInt(i), types.NewInt(i % 64),
			types.NewVector([]float64{float64(i)}), types.Null, types.Null}}); err != nil {
			b.Fatal(err)
		}
		for _, c := range []string{"sentiment", "topic"} {
			if _, err := tbl.WriteDerived(i, c, types.NewInt(i%2), 0, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	snap := db.Snapshot()
	a, err := engine.Analyze(sqlparser.MustParse(
		"SELECT id, hour FROM tweets WHERE hour BETWEEN 16 AND 31 AND sentiment = 1 AND topic = 0"), snap.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probes, err := loose.GenerateProbes(a, snap, nil, engine.NewExecCtx())
		if err != nil {
			b.Fatal(err)
		}
		if len(probes) != 1 || len(probes[0].TIDs) != 0 {
			b.Fatalf("warm probe selected tuples: %+v", probes)
		}
	}
}

func BenchmarkKernelIVMApply(b *testing.B) {
	const n = 10_000
	const batch = 1_000
	db := storage.NewDB()
	schema := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})
	tbl, err := db.CreateTable(schema)
	if err != nil {
		b.Fatal(err)
	}
	keys := int64(n / 10)
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(&types.Tuple{ID: int64(i + 1), Vals: []types.Value{
			types.NewInt(int64(i + 1)),
			types.NewInt(int64(i) % keys),
			types.NewInt(int64(i) % 100),
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	a, err := engine.Analyze(sqlparser.MustParse("SELECT k, a FROM R WHERE a < 50"), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	ctx := engine.NewExecCtx()
	view, err := ivm.New(a, db, ctx)
	if err != nil {
		b.Fatal(err)
	}
	// Each iteration flips `a` between 40 and 60 for the first `batch`
	// tuples, moving them across the predicate boundary so every Apply both
	// inserts and deletes view rows.
	mkDeltas := func(toggle bool) []ivm.TupleDelta {
		av := types.NewInt(40)
		if toggle {
			av = types.NewInt(60)
		}
		deltas := make([]ivm.TupleDelta, 0, batch)
		for i := 0; i < batch; i++ {
			id := int64(i + 1)
			nt := &types.Tuple{ID: id, Vals: []types.Value{
				types.NewInt(id), types.NewInt(id % keys), av,
			}}
			deltas = append(deltas, ivm.TupleDelta{Relation: "R", Old: nt, New: nt})
		}
		return deltas
	}
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := view.Apply(ctx, mkDeltas(i%2 == 0)); err != nil {
			b.Fatal(err)
		}
	}
}
