package engine

import (
	"strings"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// profTable builds (id INT, a INT) with a = i%100 — half the rows pass a<50.
func profTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)),
			types.NewInt(int64(i) % 100),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func profFilterPlan(t testing.TB, tbl *storage.Table) *Filter {
	t.Helper()
	scan := NewScan(tbl, "R")
	pred := expr.NewCmp(expr.LT, expr.NewCol("R", "a"), expr.NewConst(types.NewInt(50)))
	if err := pred.Resolve(scan.Schema()); err != nil {
		t.Fatal(err)
	}
	return NewFilter(scan, pred)
}

// TestProfilerOffZeroAlloc pins the zero-alloc-and-off contract: with
// ctx.Prof nil, the exported Execute wrapper must allocate exactly what the
// unexported execute path allocates — the nil check may not introduce a
// single extra allocation.
func TestProfilerOffZeroAlloc(t *testing.T) {
	const n = 2000
	plan := profFilterPlan(t, profTable(t, n))

	run := func(exec func(*ExecCtx) ([]*expr.Row, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			ctx := NewExecCtx()
			rows, err := exec(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != n/2 {
				t.Fatalf("filter kept %d rows, want %d", len(rows), n/2)
			}
		})
	}
	wrapped := run(plan.Execute)
	direct := run(plan.execute)
	if wrapped != direct {
		t.Fatalf("Execute with Prof nil allocates %.1f/op, raw execute %.1f/op — disabled profiling must be alloc-free", wrapped, direct)
	}
}

// TestProfilerTree checks the collected tree: exact cardinalities, rows-in
// attribution on the fused vector path (Filter never calls Scan.Execute, so
// rows-in comes from the RowsScanned delta), and monotone wall times.
func TestProfilerTree(t *testing.T) {
	const n = 1000
	plan := profFilterPlan(t, profTable(t, n))

	ctx := NewExecCtx()
	prof := NewProfiler()
	ctx.Prof = prof
	rows, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n/2 {
		t.Fatalf("filter kept %d rows, want %d", len(rows), n/2)
	}

	root := prof.Root()
	if root == nil {
		t.Fatal("profiler collected no root")
	}
	if root.Name != "Filter" {
		t.Fatalf("root operator = %q, want Filter", root.Name)
	}
	if root.RowsOut != n/2 {
		t.Fatalf("root rows-out = %d, want %d", root.RowsOut, n/2)
	}
	if root.RowsIn != n {
		t.Fatalf("root rows-in = %d, want %d", root.RowsIn, n)
	}
	if got := root.Selectivity(); got != 0.5 {
		t.Fatalf("selectivity = %v, want 0.5", got)
	}
	if root.Wall <= 0 {
		t.Fatalf("root wall = %v, want > 0", root.Wall)
	}
	for _, c := range root.Children {
		if c.Wall > root.Wall {
			t.Fatalf("child %s wall %v exceeds inclusive root wall %v", c.Name, c.Wall, root.Wall)
		}
	}

	out := FormatProfile(root)
	if !strings.Contains(out, "Filter") {
		t.Fatalf("FormatProfile output missing operator name:\n%s", out)
	}
	if !strings.Contains(out, "in=1000 out=500 sel=50.0%") {
		t.Fatalf("FormatProfile output missing exact cardinalities:\n%s", out)
	}
}

// TestProfilerPhases checks driver pseudo-operators: nesting under Phase,
// explicit cardinality override, children-sum fallback, and nil-safety.
func TestProfilerPhases(t *testing.T) {
	p := NewProfiler()
	outer := p.Phase("LooseQuery", "")
	inner := p.Phase("LooseProbe", "probe detail")
	p.End(inner, 0, 40)
	p.End(outer, 0, 7)

	root := p.Root()
	if root == nil || root.Name != "LooseQuery" {
		t.Fatalf("root = %+v, want LooseQuery", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "LooseProbe" {
		t.Fatalf("phase nesting wrong: %+v", root.Children)
	}
	if root.RowsIn != 40 {
		t.Fatalf("children-sum rows-in = %d, want 40", root.RowsIn)
	}
	if root.RowsOut != 7 {
		t.Fatalf("rows-out = %d, want 7", root.RowsOut)
	}

	// A nil profiler is inert: Phase returns nil and End tolerates it.
	var np *Profiler
	if np.Phase("x", "") != nil {
		t.Fatal("nil profiler Phase returned a node")
	}
	np.End(nil, 1, 2)
	if np.Root() != nil {
		t.Fatal("nil profiler reported roots")
	}
}

// TestSelectivityEdgeCases pins the zero-rows-in contract: Selectivity must
// be a finite value in [0, 1] for every counter combination the fused paths
// can produce, including the 0/0 case that used to yield NaN.
func TestSelectivityEdgeCases(t *testing.T) {
	cases := []struct {
		in, out int64
		want    float64
	}{
		{0, 0, 0},    // empty input: the old RowsOut/RowsIn here was NaN
		{0, 10, 0},   // rows-in fallback found nothing but rows came out
		{-5, 3, 0},   // broken counter delta
		{10, -1, 0},  // broken rows-out
		{10, 0, 0},   // everything rejected
		{10, 5, 0.5}, // the normal case
		{10, 10, 1},
		{10, 25, 1}, // generator-style over-emission clamps
	}
	for _, c := range cases {
		n := &OpProfile{RowsIn: c.in, RowsOut: c.out}
		got := n.Selectivity()
		if got != c.want {
			t.Errorf("Selectivity(in=%d, out=%d) = %v, want %v", c.in, c.out, got, c.want)
		}
		if got < 0 || got > 1 || got != got {
			t.Errorf("Selectivity(in=%d, out=%d) = %v out of [0,1]", c.in, c.out, got)
		}
	}
}
