package enrich

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// modelCell is the plain-map model of one (tuple, attribute) state.
type modelCell struct {
	bitmap, pruned uint64
	probs          map[int][]float64 // stored form: pruned entries hold prunedMark
	value          types.Value
}

// stateModel is what a StateTable must hold after the same operations.
type stateModel struct {
	cutoff float64
	gens   map[int64]uint64
	rows   map[int64]map[string]*modelCell
}

// effective is a stored output with pruned entries as zero.
func (c *modelCell) effective(id int) []float64 {
	p, ok := c.probs[id]
	if !ok {
		return nil
	}
	out := append([]float64(nil), p...)
	if c.pruned&(1<<uint(id)) != 0 {
		for i, v := range out {
			out[i] = max(v, 0)
		}
	}
	return out
}

func (m *stateModel) size() int64 {
	var size int64
	for _, row := range m.rows {
		for _, c := range row {
			size += 16
			for _, p := range c.probs {
				size += outputSize(p)
			}
		}
	}
	return size
}

// stateFixture is relation R(id, x, a, b): a has three functions over a
// domain of 3, b two over a domain of 4.
func stateFixture(t testing.TB) (*catalog.Schema, []*Family) {
	schema := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindVector},
		{Name: "a", Kind: types.KindInt, Derived: true, FeatureCol: "x", Domain: 3},
		{Name: "b", Kind: types.KindInt, Derived: true, FeatureCol: "x", Domain: 4},
	})
	fam := func(attr string, dists ...[]float64) *Family {
		fns := make([]*Function, len(dists))
		for i, d := range dists {
			fns[i] = &Function{Name: "fixed", Model: &fixedModel{name: "fixed", probs: d}, Quality: 0.5}
		}
		f, err := NewFamily("R", attr, len(dists[0]), nil, fns...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return schema, []*Family{
		fam("a", []float64{0.7, 0.2, 0.1}, []float64{0.1, 0.3, 0.6}, []float64{0.3, 0.4, 0.3}),
		fam("b", []float64{0.1, 0.2, 0.3, 0.4}, []float64{0.6, 0.1, 0.1, 0.2}),
	}
}

func newStateManager(t testing.TB, fams []*Family, cutoff float64) *Manager {
	m := NewManager()
	for _, f := range fams {
		if err := m.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	m.SetCutoff(cutoff)
	return m
}

// recordingRel is an enrich.Relation that records every write-back.
type recordingRel struct {
	schema *catalog.Schema
	writes []string
}

func (r *recordingRel) Schema() *catalog.Schema { return r.schema }

func (r *recordingRel) WriteDerived(id int64, col string, v types.Value, gen uint64, mark bool) (bool, error) {
	r.writes = append(r.writes, fmt.Sprintf("%d.%s=%s@%d mark=%v", id, col, v.Key(), gen, mark))
	return true, nil
}

func randomDist(rng *rand.Rand, n int) []float64 {
	p, sum := make([]float64, n), 0.0
	for i := range p {
		p[i] = rng.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// runStateModel drives a manager and the model through the same random
// steps and compares them after every step. cur holds the manager under
// test; an Export→Import step replaces it with a fresh one.
func runStateModel(t *testing.T, seed int64, steps int, cur *atomic.Pointer[Manager]) {
	const tuples = 12
	schema, fams := stateFixture(t)
	rng := rand.New(rand.NewSource(seed))
	model := &stateModel{gens: map[int64]uint64{}, rows: map[int64]map[string]*modelCell{}}
	if rng.Intn(2) == 0 {
		model.cutoff = 0.3
	}
	cur.Store(newStateManager(t, fams, model.cutoff))
	famOf := map[string]*Family{"a": fams[0], "b": fams[1]}
	attrs := []string{"a", "b"}
	for step := 0; step < steps; step++ {
		m := cur.Load()
		before := m.Counters()
		var what string
		switch r := rng.Intn(100); {
		case r < 45:
			what = "apply"
			outs := make([]FnOutput, 1+rng.Intn(6))
			for i := range outs {
				tid, attr := int64(1+rng.Intn(tuples)), attrs[rng.Intn(2)]
				fam := famOf[attr]
				gen := model.gens[tid]
				if rng.Intn(5) == 0 {
					gen++
				}
				outs[i] = FnOutput{TID: tid, Attr: attr, FnID: rng.Intn(len(fam.Functions)), Probs: randomDist(rng, fam.Domain), Gen: gen}
			}
			if err := m.ApplyOutput("R", outs); err != nil {
				t.Fatal(err)
			}
			var stored, stale int64
			for _, o := range outs {
				if model.gens[o.TID] != o.Gen {
					stale++
					continue
				}
				row := model.rows[o.TID]
				if row == nil {
					row = map[string]*modelCell{}
					model.rows[o.TID] = row
				}
				c := row[o.Attr]
				if c == nil {
					c = &modelCell{probs: map[int][]float64{}}
					row[o.Attr] = c
				}
				bit := uint64(1) << uint(o.FnID)
				if c.bitmap&bit != 0 {
					continue
				}
				p := append([]float64(nil), o.Probs...)
				for i := range p {
					if model.cutoff > 0 && p[i] < model.cutoff {
						p[i], c.pruned = prunedMark, c.pruned|bit
					}
				}
				c.probs[o.FnID], c.bitmap = p, c.bitmap|bit
				stored++
			}
			after := m.Counters()
			if after.FirstStores-before.FirstStores != stored || after.StaleDrops-before.StaleDrops != stale {
				t.Fatalf("seed %d step %d: stored %d stale %d, model %d %d", seed, step,
					after.FirstStores-before.FirstStores, after.StaleDrops-before.StaleDrops, stored, stale)
			}
		case r < 75:
			what = "writeback"
			slots := make([]WriteBackSlot, 1+rng.Intn(4))
			var want []string
			var reExecs int64
			for i := range slots {
				tid, attr := int64(1+rng.Intn(tuples)), attrs[rng.Intn(2)]
				gen := model.gens[tid]
				if rng.Intn(6) == 0 {
					gen++
				}
				slots[i] = WriteBackSlot{Attr: attr, Tuple: &types.Tuple{ID: tid, Gen: gen,
					Vals: []types.Value{types.NewInt(tid), types.NewVector([]float64{float64(tid)}), types.Null, types.Null}}}
			}
			for i := range slots {
				tid, attr, gen := slots[i].Tuple.ID, slots[i].Attr, slots[i].Tuple.Gen
				current := model.gens[tid] == gen
				c := model.rows[tid][attr]
				if current && c == nil {
					want = append(want, "NULL")
					continue
				}
				fam := famOf[attr]
				outs, complete := make([][]float64, len(fam.Functions)), current
				for id, fn := range fam.Functions {
					var eff []float64
					if current {
						eff = c.effective(id)
					}
					switch {
					case current && eff == nil:
						complete = false
					case !current || (c.pruned&(1<<uint(id)) != 0 && retainedMass(eff) < 0.5):
						outs[id] = fn.Model.PredictProba(nil)
						reExecs++
					default:
						outs[id] = eff
					}
				}
				v := fam.Det.Determine(outs, fam.Domain)
				if current {
					c.value = v
				}
				want = append(want, fmt.Sprintf("%d.%s=%s@%d mark=%v", tid, attr, v.Key(), gen, complete))
			}
			rel := &recordingRel{schema: schema}
			if err := m.WriteBack(rel, slots); err != nil {
				t.Fatal(err)
			}
			var got []string
			w := 0
			for i := range slots {
				if want[i] == "NULL" {
					if !slots[i].Value.IsNull() {
						t.Fatalf("seed %d step %d: slot %d determined %v with nothing stored", seed, step, i, slots[i].Value)
					}
					got = append(got, "NULL")
					continue
				}
				if w < len(rel.writes) {
					got = append(got, rel.writes[w])
				}
				w++
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || w != len(rel.writes) {
				t.Fatalf("seed %d step %d: writes %v, model %v", seed, step, rel.writes, want)
			}
			if got := m.Counters().ReExecutions - before.ReExecutions; got != reExecs {
				t.Fatalf("seed %d step %d: %d re-executions, model %d", seed, step, got, reExecs)
			}
		case r < 90:
			what = "reset"
			tid := int64(1 + rng.Intn(tuples))
			gen := model.gens[tid] + 1
			if rng.Intn(5) == 0 {
				gen = 0
			}
			m.ResetTuple("R", tid, gen)
			delete(model.rows, tid)
			if model.gens[tid] = gen; gen == 0 {
				delete(model.gens, tid)
			}
		case r < 95:
			what = "cutoff"
			model.cutoff = []float64{0, 0.3}[rng.Intn(2)]
			m.SetCutoff(model.cutoff)
		case r < 97:
			what = "reimport"
			// Each record replaces its own state: nothing changes.
			if err := m.StateTable("R").Import(m.StateTable("R").Export()); err != nil {
				t.Fatal(err)
			}
		default:
			what = "roundtrip"
			m2 := newStateManager(t, fams, model.cutoff)
			if err := m2.StateTable("R").Import(m.StateTable("R").Export()); err != nil {
				t.Fatal(err)
			}
			// State carries no generation across a snapshot: every tuple's
			// restored state belongs to generation 0.
			model.gens = map[int64]uint64{}
			cur.Store(m2)
		}
		compareStateModel(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), cur.Load(), model, tuples)
	}
}

func compareStateModel(t *testing.T, at string, m *Manager, model *stateModel, tuples int) {
	t.Helper()
	st := m.StateTable("R")
	var buf OutputBuf
	for tid := int64(1); tid <= int64(tuples); tid++ {
		gen := model.gens[tid]
		if got := st.GenOf(tid); got != gen {
			t.Fatalf("%s: tuple %d gen %d, model %d", at, tid, got, gen)
		}
		for _, attr := range st.attrs {
			c := model.rows[tid][attr]
			if c == nil {
				c = &modelCell{}
			}
			if got := st.BitmapAt(tid, attr, gen); got != c.bitmap {
				t.Fatalf("%s: %d.%s bitmap %b, model %b", at, tid, attr, got, c.bitmap)
			}
			if got := st.BitmapAt(tid, attr, gen+1); got != 0 {
				t.Fatalf("%s: %d.%s bitmap %b at a generation it does not hold", at, tid, attr, got)
			}
			if got, want := m.Value("R", tid, attr, gen).Key(), c.value.Key(); got != want {
				t.Fatalf("%s: %d.%s value %s, model %s", at, tid, attr, got, want)
			}
			outs := st.OutputsAt(tid, attr, gen, &buf)
			if (outs == nil) != (model.rows[tid][attr] == nil) {
				t.Fatalf("%s: %d.%s outputs %v, model cell %v", at, tid, attr, outs, model.rows[tid][attr])
			}
			for id := 0; id < len(outs); id++ {
				want := fmt.Sprint(c.effective(id))
				if got := fmt.Sprint(st.outputAt(tid, attr, id, gen)); got != want {
					t.Fatalf("%s: %d.%s output %d = %s, model %s", at, tid, attr, id, got, want)
				}
				if got := fmt.Sprint(outs[id]); got != want {
					t.Fatalf("%s: %d.%s OutputsAt %d = %s, model %s", at, tid, attr, id, got, want)
				}
			}
		}
	}
	if got, want := st.SizeBytes(), model.size(); got != want {
		t.Fatalf("%s: SizeBytes %d, model %d", at, got, want)
	}
	if got := st.TupleCount(); got != len(model.rows) {
		t.Fatalf("%s: TupleCount %d, model %d", at, got, len(model.rows))
	}
	recs := st.Export()
	n := 0
	for _, row := range model.rows {
		n += len(row)
	}
	if len(recs) != n {
		t.Fatalf("%s: exported %d records, model %d", at, len(recs), n)
	}
	for _, rec := range recs {
		c := model.rows[rec.TID][rec.Attr]
		if c == nil || rec.Bitmap != c.bitmap || rec.Value.Key() != c.value.Key() || len(rec.Outputs) != len(c.probs) {
			t.Fatalf("%s: record %+v, model %+v", at, rec, c)
		}
		for _, o := range rec.Outputs {
			if fmt.Sprint(o.Probs) != fmt.Sprint(c.probs[o.FnID]) || o.Pruned != (c.pruned&(1<<uint(o.FnID)) != 0) {
				t.Fatalf("%s: record %d.%s output %+v, model %v pruned %b", at, rec.TID, rec.Attr, o, c.probs[o.FnID], c.pruned)
			}
		}
	}
}

// TestStateTableModel checks the state table against a plain map model
// over random output stores (duplicates, stale generations, the cutoff),
// write-backs, resets (whose slots the table reuses), re-imports over the
// existing state and Export→Import into a fresh table.
func TestStateTableModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var cur atomic.Pointer[Manager]
		runStateModel(t, seed, 400, &cur)
	}
}

// TestStateTableModelConcurrentReader runs the model check while another
// goroutine reads the table through every reader; under -race it shows
// that readers copy under the lock.
func TestStateTableModelConcurrentReader(t *testing.T) {
	var cur atomic.Pointer[Manager]
	_, fams := stateFixture(t)
	cur.Store(newStateManager(t, fams, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf OutputBuf
		for {
			select {
			case <-done:
				return
			default:
			}
			m := cur.Load()
			st := m.StateTable("R")
			for tid := int64(1); tid <= 12; tid++ {
				gen := st.GenOf(tid)
				for _, attr := range []string{"a", "b"} {
					for _, o := range st.OutputsAt(tid, attr, gen, &buf) {
						for _, p := range o {
							if p < 0 || p > 1 {
								t.Errorf("effective probability %v out of range", p)
								return
							}
						}
					}
					st.BitmapAt(tid, attr, gen)
					m.Value("R", tid, attr, gen)
				}
			}
			if st.SizeBytes() < 0 || st.TupleCount() < 0 {
				t.Error("negative size")
				return
			}
			st.Export()
		}
	}()
	runStateModel(t, 7, 300, &cur)
	close(done)
	wg.Wait()
}

// storeTuples stores two outputs of each attribute of tuples 1..n.
func storeTuples(t testing.TB, m *Manager, n int) {
	outs := make([]FnOutput, 0, 4*256)
	for tid := int64(1); tid <= int64(n); tid++ {
		outs = append(outs,
			FnOutput{TID: tid, Attr: "a", FnID: 0, Probs: []float64{0.7, 0.2, 0.1}},
			FnOutput{TID: tid, Attr: "a", FnID: 1, Probs: []float64{0.1, 0.3, 0.6}},
			FnOutput{TID: tid, Attr: "b", FnID: 0, Probs: []float64{0.1, 0.2, 0.3, 0.4}},
			FnOutput{TID: tid, Attr: "b", FnID: 1, Probs: []float64{0.6, 0.1, 0.1, 0.2}})
		if len(outs) == cap(outs) || tid == int64(n) {
			if err := m.ApplyOutput("R", outs); err != nil {
				t.Fatal(err)
			}
			outs = outs[:0]
		}
	}
}

// TestStateTableHeapObjectsIndependentOfTuples checks the layout's cost
// shape: the garbage collector traces the state table's heap objects on
// every cycle, so their count must not grow with the tuples stored. 61,440
// more tuples may add pages and lookup groups, far below one object each.
func TestStateTableHeapObjectsIndependentOfTuples(t *testing.T) {
	_, fams := stateFixture(t)
	live := func(n int) uint64 {
		m := newStateManager(t, fams, 0)
		storeTuples(t, m, n)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if got := m.StateTable("R").TupleCount(); got != n {
			t.Fatalf("TupleCount = %d, want %d", got, n)
		}
		return ms.HeapObjects
	}
	small, large := live(4096), live(65536)
	t.Logf("live heap objects: %d at 4,096 tuples, %d at 65,536", small, large)
	if d := int64(large) - int64(small); d > 4096 {
		t.Errorf("live heap objects: %d at 4,096 tuples, %d at 65,536 (+%d); want a small constant", small, large, d)
	}
}

// BenchmarkStateTable measures a 32k-tuple table: the write-back snapshot
// of a 256-slot batch, a forced GC with the table live, and storing one
// output (last: its resets empty the table).
func BenchmarkStateTable(b *testing.B) {
	const tuples = 32768
	_, fams := stateFixture(b)
	m := newStateManager(b, fams, 0)
	storeTuples(b, m, tuples)
	st := m.StateTable("R")
	slots := make([]WriteBackSlot, 256)
	for i := range slots {
		slots[i] = WriteBackSlot{Tuple: &types.Tuple{ID: int64(1 + i*97%tuples)}, Attr: "a"}
	}
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.snapshotSlots(slots)
		}
	})
	b.Run("gc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.GC()
		}
		runtime.KeepAlive(m)
	})
	b.Run("store", func(b *testing.B) {
		outs := []FnOutput{{Attr: "a", FnID: 2, Probs: []float64{0.3, 0.4, 0.3}}}
		for i := 0; i < b.N; i++ {
			outs[0].TID = int64(1 + i%tuples)
			if i%tuples == 0 {
				b.StopTimer()
				outs[0].Gen = uint64(i/tuples + 1)
				for tid := int64(1); tid <= tuples; tid++ {
					st.reset(tid, outs[0].Gen)
				}
				b.StartTimer()
			}
			if _, _, err := st.setOutputs(outs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
