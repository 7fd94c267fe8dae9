package storage

import (
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

func testTable(t testing.TB) *Table {
	t.Helper()
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
		{Name: "f", Kind: types.KindVector},
		{Name: "d", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 3},
	})
	return NewTable(s)
}

func mkTuple(id, a int64) *types.Tuple {
	return &types.Tuple{ID: id, Vals: []types.Value{
		types.NewInt(id), types.NewInt(a), types.NewVector([]float64{1}), types.Null,
	}}
}

func TestInsertGetScan(t *testing.T) {
	tb := testTable(t)
	for i := int64(1); i <= 5; i++ {
		if _, err := tb.Insert(mkTuple(i, i*10)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if tb.Len() != 5 {
		t.Errorf("Len = %d", tb.Len())
	}
	if got := tb.Get(3); got == nil || got.Vals[1].Int() != 30 {
		t.Errorf("Get(3) = %v", got)
	}
	if tb.Get(99) != nil {
		t.Error("Get(99) should be nil")
	}
	for i, tu := range Tuples(tb) {
		if tu.ID != int64(i+1) {
			t.Errorf("scan order: id %d at %d", tu.ID, i)
			break
		}
	}
}

func TestAutoID(t *testing.T) {
	tb := testTable(t)
	id1, err := tb.Insert(&types.Tuple{Vals: mkTuple(0, 1).Vals})
	if err != nil || id1 != 1 {
		t.Fatalf("auto id: %d, %v", id1, err)
	}
	if _, err := tb.Insert(mkTuple(10, 2)); err != nil {
		t.Fatal(err)
	}
	id3, _ := tb.Insert(&types.Tuple{Vals: mkTuple(0, 3).Vals})
	if id3 != 11 {
		t.Errorf("auto id after explicit 10: %d", id3)
	}
}

func TestInsertErrors(t *testing.T) {
	tb := testTable(t)
	if _, err := tb.Insert(&types.Tuple{ID: 1, Vals: []types.Value{types.NewInt(1)}}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := tb.Insert(mkTuple(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(mkTuple(1, 2)); err == nil {
		t.Error("duplicate id must fail")
	}
}

func TestDelete(t *testing.T) {
	tb := testTable(t)
	tb.Insert(mkTuple(1, 10))
	tb.Insert(mkTuple(2, 20))
	got := tb.Delete(1)
	if got == nil || got.ID != 1 || tb.Len() != 1 {
		t.Errorf("Delete: %v len=%d", got, tb.Len())
	}
	if tb.Delete(1) != nil {
		t.Error("second delete should return nil")
	}
	if tus := Tuples(tb); len(tus) != 1 || tus[0].ID != 2 {
		t.Errorf("after delete: %v", tus)
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	s := catalog.MustSchema("R", []catalog.Column{{Name: "id", Kind: types.KindInt}})
	tb, err := db.CreateTable(s)
	if err != nil || tb == nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := db.CreateTable(s); err == nil {
		t.Error("duplicate CreateTable must fail")
	}
	got, err := db.Table("R")
	if err != nil || got != tb {
		t.Errorf("Table: %v %v", got, err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("unknown table must fail")
	}
	if db.Catalog().Schema("R") != s {
		t.Error("catalog must hold the schema")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable must panic on unknown relation")
		}
	}()
	db.MustTable("nope")
}

// TestSlabCompaction checks tombstone compaction preserves scan order and
// point access.
func TestSlabCompaction(t *testing.T) {
	tb := testTable(t)
	const n = 200
	for i := int64(1); i <= n; i++ {
		if _, err := tb.Insert(mkTuple(i, i%10)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every odd id: tombstones outnumber live tuples, forcing at
	// least one compaction.
	for i := int64(1); i <= n; i += 2 {
		if tb.Delete(i) == nil {
			t.Fatalf("Delete(%d) returned nil", i)
		}
	}
	if got := tb.Stats().Compactions; got == 0 {
		t.Fatal("expected at least one compaction")
	}
	if tb.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tb.Len(), n/2)
	}
	want := int64(2)
	for _, tu := range Tuples(tb) {
		if tu.ID != want {
			t.Fatalf("scan order: got id %d, want %d", tu.ID, want)
		}
		want += 2
	}
	for i := int64(2); i <= n; i += 2 {
		if tb.Get(i) == nil {
			t.Fatalf("Get(%d) = nil after compaction", i)
		}
	}
	// Insert after compaction keeps appending in order.
	if _, err := tb.Insert(mkTuple(n+1, 4)); err != nil {
		t.Fatal(err)
	}
	tus := Tuples(tb)
	if last := tus[len(tus)-1].ID; last != n+1 {
		t.Fatalf("Tuples tail = %d, want %d", last, n+1)
	}
}

// TestTuplesSnapshot checks Tuples returns an insertion-ordered snapshot
// that is independent of later mutations.
func TestTuplesSnapshot(t *testing.T) {
	tb := testTable(t)
	for i := int64(1); i <= 10; i++ {
		if _, err := tb.Insert(mkTuple(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := Tuples(tb)
	tb.Delete(5)
	if len(snap) != 10 {
		t.Fatalf("snapshot len %d, want 10", len(snap))
	}
	for i, tu := range snap {
		if tu.ID != int64(i+1) {
			t.Fatalf("snapshot[%d] = id %d, want %d", i, tu.ID, i+1)
		}
	}
	if fresh := Tuples(tb); len(fresh) != 9 {
		t.Fatalf("post-delete snapshot len %d, want 9", len(fresh))
	}
}
