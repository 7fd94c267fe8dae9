package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

func TestMergeRunsOrdersBySeqThenRunThenPos(t *testing.T) {
	type el struct {
		seq uint64
		tag string
	}
	runs := [][]el{
		{{1, "a0"}, {4, "a1"}, {4, "a2"}, {9, "a3"}},
		{},
		{{2, "c0"}, {4, "c1"}, {10, "c2"}},
		{{0, "d0"}},
	}
	merge := func(runs [][]el) []string {
		lens := make([]int, len(runs))
		for r := range runs {
			lens[r] = len(runs[r])
		}
		var got []string
		mergeSeq(lens, func(r, p int) uint64 { return runs[r][p].seq }, func(r, p int) {
			got = append(got, runs[r][p].tag)
		})
		return got
	}
	want := []string{"d0", "a0", "c0", "a1", "a2", "c1", "a3", "c2"}
	if got := merge(runs); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	if out := merge(nil); len(out) != 0 {
		t.Fatalf("merge of no runs = %v", out)
	}
}

// TestReplicaRunsStaySeqAscending is the invariant the single merge relies
// on. A seeded random history of auto-id and explicit-id inserts, deletes,
// re-inserts of deleted ids and fixed-column commits, with enough deletes to
// compact every replica, runs on a 4-shard store beside an unsharded table.
// After every step each replica's slab is strictly Seq-ascending, and the
// facade's Tuples and a frozen snapshot's merged view list exactly the
// unsharded order.
func TestReplicaRunsStaySeqAscending(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			un := storage.NewDB()
			ut, err := un.CreateTable(eventsSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			sh := New(Config{Shards: 4})
			st, err := sh.CreateBase(eventsSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			reps := st.(*Table).reps
			rng := rand.New(rand.NewSource(seed))
			live := map[int64]bool{}
			var liveIDs, deleted []int64
			kind := func() types.Value { return types.NewString(fmt.Sprintf("k%d", rng.Intn(5))) }
			both := func(id int64, k types.Value) {
				for _, tbl := range []storage.BaseTable{ut, st} {
					got, err := tbl.Insert(&types.Tuple{ID: id, Vals: []types.Value{types.NewInt(id), k, types.Null}})
					if err != nil {
						t.Fatal(err)
					}
					if id == 0 {
						id = got // the sharded facade must assign the same id
					} else if got != id {
						t.Fatalf("insert: id %d, want %d", got, id)
					}
				}
				live[id] = true
				liveIDs = append(liveIDs, id)
			}
			pickLive := func() (int, int64) {
				for {
					i := rng.Intn(len(liveIDs))
					if id := liveIDs[i]; live[id] {
						return i, id
					}
					liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
				}
			}
			for step := 0; step < 1200; step++ {
				deleteBias := 0.15
				if step%400 >= 250 { // a delete-heavy phase drives compaction
					deleteBias = 0.7
				}
				p := rng.Float64()
				switch {
				case len(live) == 0 || p < 0.3:
					both(0, kind())
				case p < 0.4:
					if id := int64(10_000 + rng.Intn(50_000)); !live[id] {
						both(id, kind())
					}
				case p < 0.5 && len(deleted) > 0:
					i := rng.Intn(len(deleted))
					id := deleted[i]
					deleted = append(deleted[:i], deleted[i+1:]...)
					if !live[id] {
						both(id, kind())
					}
				case p < 0.5+deleteBias:
					i, id := pickLive()
					liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
					delete(live, id)
					deleted = append(deleted, id)
					if ut.Delete(id) == nil || st.Delete(id) == nil {
						t.Fatalf("delete %d missed", id)
					}
				default:
					_, id := pickLive()
					k := kind()
					if _, err := ut.CommitFixed(id, "kind", k); err != nil {
						t.Fatal(err)
					}
					if _, err := st.CommitFixed(id, "kind", k); err != nil {
						t.Fatal(err)
					}
				}
				checkMergeInvariant(t, step, reps, ut, st, sh)
			}
			if c := sh.Stats().Compactions; c == 0 {
				t.Fatal("no replica compacted: the history is too gentle")
			}
		})
	}
}

func checkMergeInvariant(t *testing.T, step int, reps []*storage.Table, ut, st storage.BaseTable, sh *Store) {
	t.Helper()
	for i, r := range reps {
		var prev uint64
		for _, tu := range storage.Tuples(r) {
			if tu.Seq <= prev {
				t.Fatalf("step %d: replica %d slab not strictly Seq-ascending: %d after %d", step, i, tu.Seq, prev)
			}
			prev = tu.Seq
		}
	}
	want := tupleOrder(ut)
	if got := tupleOrder(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: facade Tuples diverged:\n got %v\nwant %v", step, got, want)
	}
	frozen, err := sh.Freeze().Table("Events")
	if err != nil {
		t.Fatal(err)
	}
	if got := tupleOrder(frozen); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: frozen merged view diverged:\n got %v\nwant %v", step, got, want)
	}
}

// TestConcurrentWritesKeepMergedReadsOrdered runs inserts, routed writes and
// merged reads from several goroutines at once (run it under -race): routed
// operations take only their replica's lock, and every merged read still
// comes out strictly Seq-ascending.
func TestConcurrentWritesKeepMergedReadsOrdered(t *testing.T) {
	_, _, _, st := newStores(t, Config{Shards: 4})
	insertN(t, st, 64)
	ascending := func(tus []*types.Tuple) bool {
		for i := 1; i < len(tus); i++ {
			if tus[i].Seq <= tus[i-1].Seq {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				id := int64(1 + rng.Intn(64))
				switch rng.Intn(4) {
				case 0:
					st.Insert(&types.Tuple{Vals: []types.Value{types.NewInt(0), types.NewString("k0"), types.Null}})
				case 1:
					st.CommitFixed(id, "kind", types.NewString(fmt.Sprintf("k%d", rng.Intn(3))))
				case 2:
					st.WriteDerived(id, "label", types.NewInt(1), st.Gen(id), true)
				default:
					if st.Delete(id) != nil {
						st.Insert(&types.Tuple{ID: id, Vals: []types.Value{types.NewInt(id), types.NewString("k1"), types.Null}})
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !ascending(storage.Tuples(st)) {
					t.Error("merged read not Seq-ascending under concurrent writers")
					return
				}
			}
		}()
	}
	wg.Wait()
}
