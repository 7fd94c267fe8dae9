package storage

import (
	"testing"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// chunkTable is testTable holding ids 1..n.
func chunkTable(t testing.TB, n int) *Table {
	t.Helper()
	tb := testTable(t)
	for i := int64(1); i <= int64(n); i++ {
		if _, err := tb.Insert(mkTuple(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// sharedChunks reports, per chunk of b, whether a holds the same chunk
// object at the same position.
func sharedChunks(a, b *TableView) []bool {
	ca, cb := a.ChunksInto(nil), b.ChunksInto(nil)
	out := make([]bool, len(cb))
	for k := range cb {
		out[k] = k < len(ca) && ca[k] == cb[k]
	}
	return out
}

func wantShared(t *testing.T, step string, got []bool, want ...bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", step, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: chunk sharing %v, want %v", step, got, want)
		}
	}
}

// TestViewReusesUnchangedChunks: a view shares every chunk of the previous
// view whose lanes hold the same tuple pointers, so only the chunks an
// Insert, a write-back, a Delete or a compaction changed are rebuilt (and
// lose their vectors). A Delete shifts every later lane, so it changes its
// own chunk and all after it; a compaction moves no live tuple in slab
// order, so it changes none.
func TestViewReusesUnchangedChunks(t *testing.T) {
	const B = expr.BatchSize
	tb := chunkTable(t, 3*B+10)
	v1 := tb.View()
	v2 := tb.View()
	wantShared(t, "no write", sharedChunks(v1, v2), true, true, true, true)
	for k, c := range v2.ChunksInto(nil) {
		if want := min(B, 3*B+10-k*B); len(c.Tuples) != want {
			t.Fatalf("chunk %d holds %d lanes, want %d", k, len(c.Tuples), want)
		}
	}

	if _, err := tb.Insert(mkTuple(5*B, 0)); err != nil {
		t.Fatal(err)
	}
	v3 := tb.View()
	wantShared(t, "insert", sharedChunks(v2, v3), true, true, true, false)

	if ok, err := tb.WriteDerived(B+7, "d", types.NewInt(1), 0, true); err != nil || !ok {
		t.Fatalf("WriteDerived: ok=%v err=%v", ok, err)
	}
	v4 := tb.View()
	wantShared(t, "write-back", sharedChunks(v3, v4), true, false, true, true)

	tb.Delete(2*B + 5)
	v5 := tb.View()
	wantShared(t, "delete", sharedChunks(v4, v5), true, true, false, false)
	if v5.Get(2*B+5) != nil || v5.Get(2*B+6).ID != 2*B+6 || v5.Len() != 3*B+10 {
		t.Fatal("view after delete answers the wrong tuples")
	}

	// Delete from the tail until the slab compacts: the surviving lanes keep
	// their chunks.
	tb2 := chunkTable(t, 4*B)
	for id := int64(4 * B); id > 2*B+1; id-- {
		tb2.Delete(id)
	}
	before := tb2.View()
	tb2.Delete(2*B + 1)
	if tb2.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", tb2.Stats().Compactions)
	}
	wantShared(t, "compaction", sharedChunks(before, tb2.View()), true, true)
}

// TestViewWriteCopiesSealedChunkOnce: a write into a chunk a reader holds
// copies it once; later writes go into the copy in place until a scan seals
// it again. The reader's chunk never changes.
func TestViewWriteCopiesSealedChunkOnce(t *testing.T) {
	const B = expr.BatchSize
	tb := chunkTable(t, 2*B)
	v := tb.View()
	read := v.ChunksInto(nil)
	old := read[1].Tuples[3]

	write := func(id int64) {
		t.Helper()
		if _, err := v.WriteDerived(id, "d", types.NewInt(2), 0, true); err != nil {
			t.Fatal(err)
		}
	}
	write(B + 4)
	c := v.chunks[1]
	if c == read[1] || v.chunks[0] != read[0] {
		t.Fatal("write into a sealed chunk did not copy exactly that chunk")
	}
	if read[1].Tuples[3] != old {
		t.Fatal("write changed the chunk a reader holds")
	}
	write(B + 9)
	if v.chunks[1] != c {
		t.Fatal("second write copied the private chunk again")
	}
	if got := v.Get(B + 9); got.Vals[3].Int() != 2 || got != c.Tuples[8] {
		t.Fatal("in-place write lost")
	}

	sealed := v.ChunksInto(nil)
	write(B + 10)
	if v.chunks[1] == sealed[1] || sealed[1] != c {
		t.Fatal("write after a scan did not copy the sealed chunk")
	}
	if !sealed[1].Tuples[9].Vals[3].IsNull() || !v.Get(B + 10).Vals[3].Equal(types.NewInt(2)) {
		t.Fatal("sealed chunk changed, or the copy missed the write")
	}
}
