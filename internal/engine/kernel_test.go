package engine

import (
	"fmt"
	"strings"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// kernelTestTable builds R(id, k, a) with n rows, a = id % 100.
func kernelTestTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	schema := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})
	tbl := storage.NewTable(schema)
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(&types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)), types.NewInt(int64(i % 7)), types.NewInt(int64(i % 100)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func rowsFingerprint(rows []*expr.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r.Vals {
			sb.WriteString(v.Key())
			sb.WriteByte(',')
		}
		fmt.Fprint(&sb, r.TIDs)
		sb.WriteByte(';')
	}
	return sb.String()
}

// TestFilterLeavesSharedInputIntact: a Filter over a Rows leaf must not
// overwrite the leaf's backing slice — IVM view snapshots alias it.
func TestFilterLeavesSharedInputIntact(t *testing.T) {
	tbl := kernelTestTable(t, 10)
	scan := NewScan(tbl, "R")
	rows, err := scan.Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]*expr.Row, len(rows))
	copy(snapshot, rows)

	pred := expr.NewCmp(expr.GE, expr.NewCol("R", "a"), expr.NewConst(types.NewInt(5)))
	if err := pred.Resolve(scan.Schema()); err != nil {
		t.Fatal(err)
	}

	leaf := NewRows(scan.Schema(), rows)
	out, err := NewFilter(leaf, pred).Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("filter kept %d rows, want 5", len(out))
	}
	for i := range snapshot {
		if leaf.Data[i] != snapshot[i] {
			t.Fatalf("filter over Rows leaf overwrote shared slot %d", i)
		}
	}
}

// TestHashJoinKeyVerification: the hashed join must verify key equality, so
// values of different kinds (which could in principle collide) never join,
// and NULL keys never match — including NULL against NULL.
func TestHashJoinKeyVerification(t *testing.T) {
	ls := catalog.MustSchema("L", []catalog.Column{{Name: "k", Kind: types.KindString}})
	rs := catalog.MustSchema("Rt", []catalog.Column{{Name: "k", Kind: types.KindString}})
	lt, rt := storage.NewTable(ls), storage.NewTable(rs)
	for _, v := range []types.Value{types.NewString("a"), types.NewString("b"), types.Null} {
		if _, err := lt.Insert(&types.Tuple{Vals: []types.Value{v}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []types.Value{types.NewString("b"), types.NewString("c"), types.Null} {
		if _, err := rt.Insert(&types.Tuple{Vals: []types.Value{v}}); err != nil {
			t.Fatal(err)
		}
	}
	j := NewJoin(NewScan(lt, "L"), NewScan(rt, "Rt"))
	j.HashKeysL = []int{0}
	j.HashKeysR = []int{1}
	out, err := j.Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Vals[0].Str() != "b" || out[0].Vals[1].Str() != "b" {
		t.Fatalf("string hash join produced %d rows, want exactly the b-b pair", len(out))
	}
}

// TestHashJoinIntFastPath: single INT keys take the map[int64] path and must
// produce the same rows as the generic path, skipping NULLs.
func TestHashJoinIntFastPath(t *testing.T) {
	ls := catalog.MustSchema("L", []catalog.Column{{Name: "k", Kind: types.KindInt}})
	rs := catalog.MustSchema("Rt", []catalog.Column{{Name: "k", Kind: types.KindInt}})
	lt, rt := storage.NewTable(ls), storage.NewTable(rs)
	for i := 0; i < 20; i++ {
		if _, err := lt.Insert(&types.Tuple{Vals: []types.Value{types.NewInt(int64(i % 5))}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []types.Value{types.NewInt(1), types.NewInt(3), types.Null} {
		if _, err := rt.Insert(&types.Tuple{Vals: []types.Value{v}}); err != nil {
			t.Fatal(err)
		}
	}
	j := NewJoin(NewScan(lt, "L"), NewScan(rt, "Rt"))
	j.HashKeysL = []int{0}
	j.HashKeysR = []int{1}
	out, err := j.Execute(NewExecCtx())
	if err != nil {
		t.Fatal(err)
	}
	// 4 left rows each for k=1 and k=3; NULLs never match.
	if len(out) != 8 {
		t.Fatalf("int fast-path join produced %d rows, want 8", len(out))
	}
	for _, r := range out {
		if r.Vals[0].Int() != r.Vals[1].Int() {
			t.Fatalf("join emitted non-matching pair %v", r.Vals)
		}
	}
}
