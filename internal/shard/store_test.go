package shard

import (
	"fmt"
	"reflect"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

func eventsSchema(t *testing.T) *catalog.Schema {
	t.Helper()
	sc, err := catalog.NewSchema("Events", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "kind", Kind: types.KindString},
		{Name: "label", Kind: types.KindInt, Derived: true, FeatureCol: "kind", Domain: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// newStores builds an unsharded DB and a sharded store over the same schema,
// the oracle pair most tests compare.
func newStores(t *testing.T, cfg Config) (*storage.DB, storage.BaseTable, *Store, storage.BaseTable) {
	t.Helper()
	un := storage.NewDB()
	ut, err := un.CreateTable(eventsSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	sh := New(cfg)
	st, err := sh.CreateBase(eventsSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return un, ut, sh, st
}

func insertN(t *testing.T, tbl storage.BaseTable, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tu := &types.Tuple{Vals: []types.Value{
			types.NewInt(int64(i + 1)),
			types.NewString(fmt.Sprintf("k%d", i%7)),
			types.Null,
		}}
		if _, err := tbl.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
}

func tupleOrder(tbl storage.Relation) []int64 {
	var out []int64
	for _, tu := range storage.Tuples(tbl) {
		out = append(out, tu.ID)
	}
	return out
}

func TestShardedTuplesMatchUnshardedOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ut, _, st := newStores(t, Config{Shards: shards})
			insertN(t, ut, 100)
			insertN(t, st, 100)
			// Interleave deletes to exercise tombstones + compaction.
			for _, id := range []int64{3, 50, 97, 12, 13, 14, 15, 16, 17, 18} {
				ut.Delete(id)
				st.Delete(id)
			}
			if got, want := tupleOrder(st), tupleOrder(ut); !reflect.DeepEqual(got, want) {
				t.Fatalf("merged order diverged:\n got %v\nwant %v", got, want)
			}
			if st.Len() != ut.Len() {
				t.Fatalf("Len = %d, want %d", st.Len(), ut.Len())
			}
		})
	}
}

func TestShardedAutoIDMirrorsUnsharded(t *testing.T) {
	_, ut, _, st := newStores(t, Config{Shards: 4})
	mk := func(id int64) *types.Tuple {
		return &types.Tuple{ID: id, Vals: []types.Value{types.NewInt(id), types.NewString("x"), types.Null}}
	}
	// Auto, explicit ahead, auto again: ids must track the unsharded contract.
	for _, id := range []int64{0, 0, 42, 0, 7, 0} {
		uid, err := ut.Insert(mk(id))
		if err != nil {
			t.Fatal(err)
		}
		sid, err := st.Insert(mk(id))
		if err != nil {
			t.Fatal(err)
		}
		if uid != sid {
			t.Fatalf("auto-id diverged: unsharded %d, sharded %d", uid, sid)
		}
	}
	// Duplicate id rejected in both.
	if _, err := ut.Insert(mk(42)); err == nil {
		t.Fatal("unsharded accepted duplicate id")
	}
	if _, err := st.Insert(mk(42)); err == nil {
		t.Fatal("sharded accepted duplicate id")
	}
}

func TestShardedGenGuard(t *testing.T) {
	_, _, _, st := newStores(t, Config{Shards: 4})
	insertN(t, st, 10)
	id := int64(5)
	gen := st.Gen(id)
	// Write-back at the current generation lands.
	ok, err := st.WriteDerived(id, "label", types.NewInt(1), gen, true)
	if err != nil || !ok {
		t.Fatalf("WriteDerived at gen %d: ok=%v err=%v", gen, ok, err)
	}
	mark := st.Schema().MarkBit("label")
	if st.Get(id).Enriched != mark {
		t.Fatalf("complete write-back did not mark the image: %b", st.Get(id).Enriched)
	}
	// A fixed-column commit bumps the generation...
	newGen, err := st.CommitFixed(id, "kind", types.NewString("z"))
	if err != nil {
		t.Fatal(err)
	}
	if newGen <= gen {
		t.Fatalf("CommitFixed gen %d did not advance past %d", newGen, gen)
	}
	// ...and a stale write-back is a silent no-op.
	ok, err = st.WriteDerived(id, "label", types.NewInt(2), gen, true)
	if err != nil {
		t.Fatal(err)
	}
	if ok || st.Get(id).Enriched != 0 {
		t.Fatalf("stale-generation write-back landed (ok=%v) or the commit kept the mark (%b)", ok, st.Get(id).Enriched)
	}
	if got := st.Get(id).Vals[2]; got.Kind() != types.KindNull {
		t.Fatalf("derived value after stale write = %v, want NULL (cleared by commit)", got)
	}
}

func TestFreezeSnapshotIsolation(t *testing.T) {
	sh := New(Config{Shards: 3})
	st, err := sh.CreateBase(eventsSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insertN(t, st, 30)
	snap := sh.Freeze().(*Snap)
	frozen, err := snap.Table("Events")
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := tupleOrder(st)
	// Mutate the live store: the frozen view must not move.
	insertN(t, st, 10)
	st.Delete(4)
	if got := tupleOrder(frozen); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("frozen view drifted:\n got %v\nwant %v", got, wantOrder)
	}
	// Session-local derived writes are visible through the frozen view only.
	if _, err := frozen.WriteDerived(7, "label", types.NewInt(7), frozen.Get(7).Gen, true); err != nil {
		t.Fatal(err)
	}
	if got := frozen.Get(7).Vals[2]; got.Kind() != types.KindInt || got.Int() != 7 {
		t.Fatalf("frozen Get(7) derived = %v, want session-local 7", got)
	}
	mark := st.Schema().MarkBit("label")
	if frozen.Get(7).Enriched != mark || st.Get(7).Enriched != mark {
		t.Fatalf("write-through marks: view %b, live %b, want %b", frozen.Get(7).Enriched, st.Get(7).Enriched, mark)
	}
	found := false
	for _, tu := range storage.Tuples(frozen) {
		if tu.ID == 7 {
			found = tu.Vals[2].Kind() == types.KindInt && tu.Vals[2].Int() == 7
		}
	}
	if !found {
		t.Fatal("frozen Tuples() does not fold in the session-local write")
	}
	// Gen-guarded write-through landed on the live replica too.
	if got := st.Get(7).Vals[2]; got.Kind() != types.KindInt || got.Int() != 7 {
		t.Fatalf("live write-through missing: %v", got)
	}
}

// TestMergedTuplesMatchUnshardedAfterWriteBack: after session write-backs
// through a frozen snapshot, one of them to a tuple the live store deleted
// since, the merged view's Tuples equals the unsharded view's: the same
// order, with every write visible.
func TestMergedTuplesMatchUnshardedAfterWriteBack(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			un, ut, sh, st := newStores(t, Config{Shards: shards})
			insertN(t, ut, 100)
			insertN(t, st, 100)
			for _, id := range []int64{3, 50, 97} {
				ut.Delete(id)
				st.Delete(id)
			}
			uv, err := un.Snapshot().Table("Events")
			if err != nil {
				t.Fatal(err)
			}
			sv, err := sh.Freeze().Table("Events")
			if err != nil {
				t.Fatal(err)
			}
			ut.Delete(60)
			st.Delete(60)
			for _, id := range []int64{5, 60, 99} {
				for _, rel := range []storage.Relation{uv, sv} {
					if _, err := rel.WriteDerived(id, "label", types.NewInt(3), rel.Get(id).Gen, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, want := storage.Tuples(sv), storage.Tuples(uv)
			if len(got) != len(want) || sv.Len() != uv.Len() {
				t.Fatalf("merged holds %d (Len %d), unsharded %d (Len %d)", len(got), sv.Len(), len(want), uv.Len())
			}
			for i := range want {
				g, w := got[i].Vals[2], want[i].Vals[2]
				if got[i].ID != want[i].ID || g.IsNull() != w.IsNull() || !g.IsNull() && !g.Equal(w) || got[i].Enriched != want[i].Enriched {
					t.Fatalf("lane %d: merged id %d %v, unsharded id %d %v", i, got[i].ID, g, want[i].ID, w)
				}
			}
			for _, id := range []int64{5, 60, 99} {
				if tu := sv.Get(id); tu.Vals[2].Kind() != types.KindInt || tu.Vals[2].Int() != 3 {
					t.Fatalf("merged Get(%d) = %v, want the write-back", id, tu.Vals[2])
				}
			}
		})
	}
}
