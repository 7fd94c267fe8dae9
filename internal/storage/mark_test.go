package storage

import (
	"testing"

	"enrichdb/internal/types"
)

// The enrichment mark must never say "done" wrongly: it is set only by a
// complete, same-generation write-back, and every write that makes a new
// image or generation clears it.

func TestMarkSetOnlyByCompleteWriteBack(t *testing.T) {
	tb := testTable(t)
	tb.Insert(mkTuple(1, 10))
	bit := tb.Schema().MarkBit("d")
	if bit == 0 || tb.Schema().MarkBit("a") != 0 {
		t.Fatalf("mark bits: d=%b a=%b", bit, tb.Schema().MarkBit("a"))
	}
	if ok, err := tb.WriteDerived(1, "d", types.NewInt(2), 0, false); err != nil || !ok {
		t.Fatalf("partial write-back: ok=%v err=%v", ok, err)
	}
	if tu := tb.Get(1); tu.Enriched != 0 || tu.Vals[3].Int() != 2 {
		t.Fatalf("partial write-back: value %v mark %b", tu.Vals[3], tu.Enriched)
	}
	if _, err := tb.WriteDerived(1, "d", types.Null, 0, true); err != nil || tb.Get(1).Enriched != 0 {
		t.Fatalf("a NULL value was marked (err=%v)", err)
	}
	if _, err := tb.WriteDerived(1, "d", types.NewInt(1), 0, true); err != nil || tb.Get(1).Enriched != bit {
		t.Fatalf("complete write-back: mark %b err=%v", tb.Get(1).Enriched, err)
	}
	if _, err := tb.WriteDerived(1, "a", types.NewInt(1), 0, true); err == nil {
		t.Fatal("write-back to a fixed column accepted")
	}
	// A write-back that does not mark is not the family's value: its bit goes.
	if _, err := tb.WriteDerived(1, "d", types.NewInt(0), 0, false); err != nil || tb.Get(1).Enriched != 0 {
		t.Fatalf("an unmarked write-back kept the mark (err=%v)", err)
	}
}

func TestMarkClearedByCommitFixedAndInsert(t *testing.T) {
	tb := testTable(t)
	tb.Insert(mkTuple(1, 10))
	tb.WriteDerived(1, "d", types.NewInt(1), 0, true)
	old := tb.Get(1)
	gen, err := tb.CommitFixed(1, "a", types.NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	if tu := tb.Get(1); tu.Enriched != 0 || !tu.Vals[3].IsNull() {
		t.Fatalf("CommitFixed kept mark %b / value %v", tu.Enriched, tu.Vals[3])
	}
	if old.Enriched == 0 {
		t.Fatal("the superseded image lost its mark: published tuples must stay immutable")
	}
	// A stale-generation write-back sets neither the value nor the bit.
	if ok, _ := tb.WriteDerived(1, "d", types.NewInt(2), gen-1, true); ok {
		t.Fatal("stale write-back applied")
	}
	if tu := tb.Get(1); tu.Enriched != 0 || !tu.Vals[3].IsNull() {
		t.Fatalf("stale write-back left mark %b / value %v", tu.Enriched, tu.Vals[3])
	}
	// Inserting a marked image (one read back from a table) stores an
	// unmarked copy and leaves the caller's tuple as it was.
	moved := old.Clone()
	moved.ID = 2
	if _, err := tb.Insert(moved); err != nil {
		t.Fatal(err)
	}
	if tb.Get(2).Enriched != 0 || moved.Enriched == 0 {
		t.Fatalf("Insert: stored mark %b, caller's mark %b", tb.Get(2).Enriched, moved.Enriched)
	}
	// A second CommitFixed bumps the generation and clears the mark again.
	tb.WriteDerived(2, "d", types.NewInt(1), tb.Gen(2), true)
	tb.CommitFixed(2, "a", types.NewInt(3))
	if tb.Get(2).Enriched != 0 {
		t.Fatal("CommitFixed kept the mark")
	}
}

func TestViewWriteThroughMarksBoth(t *testing.T) {
	tb := testTable(t)
	tb.Insert(mkTuple(1, 10))
	tb.Insert(mkTuple(2, 20))
	v := tb.View()
	bit := tb.Schema().MarkBit("d")
	if ok, err := v.WriteDerived(1, "d", types.NewInt(1), 0, true); err != nil || !ok {
		t.Fatalf("view write-back: ok=%v err=%v", ok, err)
	}
	if v.Get(1).Enriched != bit || tb.Get(1).Enriched != bit {
		t.Fatalf("marks: view %b live %b", v.Get(1).Enriched, tb.Get(1).Enriched)
	}
	// A commit supersedes tuple 2 after the snapshot: the view keeps its own
	// marked image, the live table drops the stale write.
	tb.CommitFixed(2, "a", types.NewInt(21))
	if ok, _ := v.WriteDerived(2, "d", types.NewInt(1), 0, true); ok {
		t.Fatal("write-through to a superseded live image applied")
	}
	if v.Get(2).Enriched != bit || tb.Get(2).Enriched != 0 || !tb.Get(2).Vals[3].IsNull() {
		t.Fatalf("after superseded write: view %b live %b/%v", v.Get(2).Enriched, tb.Get(2).Enriched, tb.Get(2).Vals[3])
	}
}
