package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// image is the model of one stored tuple of testTable: its fixed column a,
// its derived column d (null or a value), its generation and d's mark.
type image struct {
	a, d      int64
	null, mrk bool
	gen       uint64
}

// relModel is the model of a table, or of a view's frozen image of one: ids
// in insertion order and each id's image.
type relModel struct {
	ids []int64
	img map[int64]image
}

func (m *relModel) clone() *relModel {
	c := &relModel{ids: slices.Clone(m.ids), img: make(map[int64]image, len(m.img))}
	for id, im := range m.img {
		c.img[id] = im
	}
	return c
}

func (m *relModel) remove(id int64) {
	delete(m.img, id)
	m.ids = slices.DeleteFunc(m.ids, func(x int64) bool { return x == id })
}

// writeDerived applies a gen-guarded write of d; it reports whether it
// applied.
func (m *relModel) writeDerived(id int64, v types.Value, gen uint64, mark bool) bool {
	im, ok := m.img[id]
	if !ok || im.gen != gen {
		return false
	}
	im.null = v.IsNull()
	if !im.null {
		im.d = v.Int()
	}
	im.mrk = mark && !im.null
	m.img[id] = im
	return true
}

// checkRel checks a relation against the model: Len, its tuples' order and
// images, Get for every id ever inserted, and that every chunk but the last
// is full. It reads the chunks without sealing them, so the table's
// writes meet private chunks as often as the history makes them.
func checkRel(rel Relation, m *relModel, ever []int64, bit uint64) error {
	if rel.Len() != len(m.ids) {
		return fmt.Errorf("Len %d, model %d", rel.Len(), len(m.ids))
	}
	same := func(tu *types.Tuple, im image) bool {
		if tu.Vals[1].Int() != im.a || tu.Gen != im.gen || (tu.Enriched&bit != 0) != im.mrk {
			return false
		}
		if im.null {
			return tu.Vals[3].IsNull()
		}
		return !tu.Vals[3].IsNull() && tu.Vals[3].Int() == im.d
	}
	var chunks []*expr.Chunk
	switch r := rel.(type) {
	case *TableView:
		chunks = r.chunks
	case *Table:
		chunks = r.chunks
	}
	var tus []*types.Tuple
	for _, c := range chunks {
		for _, tu := range c.Tuples {
			if tu != nil {
				tus = append(tus, tu)
			}
		}
	}
	if len(tus) != len(m.ids) {
		return fmt.Errorf("Tuples holds %d, model %d", len(tus), len(m.ids))
	}
	for i, tu := range tus {
		if tu.ID != m.ids[i] || !same(tu, m.img[tu.ID]) {
			return fmt.Errorf("Tuples[%d] = id %d %v gen %d mark %b, model id %d %+v",
				i, tu.ID, tu.Vals, tu.Gen, tu.Enriched, m.ids[i], m.img[m.ids[i]])
		}
	}
	for _, id := range ever {
		tu := rel.Get(id)
		im, ok := m.img[id]
		if (tu != nil) != ok {
			return fmt.Errorf("Get(%d) = %v, model holds it: %v", id, tu, ok)
		}
		if ok && (tu.ID != id || !same(tu, im)) {
			return fmt.Errorf("Get(%d) = id %d %v gen %d mark %b, model %+v", id, tu.ID, tu.Vals, tu.Gen, tu.Enriched, im)
		}
	}
	for k, c := range chunks {
		if k < len(chunks)-1 && len(c.Tuples) != expr.BatchSize {
			return fmt.Errorf("chunk %d of %d holds %d lanes", k, len(chunks), len(c.Tuples))
		}
	}
	return nil
}

// checkVectors checks that each chunk's vectors of a and d, built now or
// kept from an earlier scan, hold its lanes' values.
func checkVectors(chunks []*expr.Chunk, rs *expr.RowSchema) error {
	var b expr.Batch
	for k, c := range chunks {
		b.Reset(rs, c)
		for _, ci := range []int{1, 3} {
			cv := b.Col(ci)
			for i, tu := range c.Tuples {
				if v := tu.Vals[ci]; cv.Nulls.Get(i) != v.IsNull() || !v.IsNull() && cv.I[i] != v.Int() {
					return fmt.Errorf("chunk %d lane %d (id %d): column %d's vector disagrees with %v", k, i, tu.ID, ci, v)
				}
			}
		}
	}
	return nil
}

// TestViewModelProperty drives random interleavings of table writes (Insert,
// CommitFixed, Delete singly and in runs that compact, WriteDerived),
// view write-backs, View, and scans of the table and of views, and checks
// the table and every open view against a model after each step: a view
// keeps the image it was taken with plus its own write-backs, whatever the
// table did since — including a write-back that lands after the table
// deleted the tuple or compacted. Every chunk a scan was handed keeps its
// lanes whatever is written after, and a scan's chunks' vectors hold their
// lanes' values.
func TestViewModelProperty(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		tb := testTable(t)
		rs := expr.SchemaForTable("R", tb.Schema())
		bit := tb.Schema().MarkBit("d")
		type sealedChunk struct {
			c     *expr.Chunk
			lanes []*types.Tuple
		}
		var sealed []sealedChunk
		live := &relModel{img: map[int64]image{}}
		var ever []int64
		next := int64(1)
		insert := func() {
			a := int64(r.Intn(10))
			if _, err := tb.Insert(mkTuple(next, a)); err != nil {
				t.Fatal(err)
			}
			live.ids = append(live.ids, next)
			live.img[next] = image{a: a, null: true}
			ever = append(ever, next)
			next++
		}
		for i := 0; i < expr.BatchSize+200; i++ {
			insert()
		}
		type openView struct {
			v *TableView
			m *relModel
		}
		var views []openView
		pickLive := func() (int64, bool) {
			if len(live.ids) == 0 {
				return 0, false
			}
			return live.ids[r.Intn(len(live.ids))], true
		}
		val := func() types.Value {
			if r.Intn(8) == 0 {
				return types.Null
			}
			return types.NewInt(int64(r.Intn(3)))
		}
		for step := 0; step < 250; step++ {
			op := r.Intn(20)
			switch {
			case op < 3: // a batch of inserts
				for n := 1 + r.Intn(8); n > 0; n-- {
					insert()
				}
			case op < 7: // CommitFixed
				id, ok := pickLive()
				if !ok {
					continue
				}
				v := int64(r.Intn(10))
				if _, err := tb.CommitFixed(id, "a", types.NewInt(v)); err != nil {
					t.Fatal(err)
				}
				im := live.img[id]
				live.img[id] = image{a: v, null: true, gen: im.gen + 1}
			case op < 9: // Delete one
				id, ok := pickLive()
				if !ok {
					continue
				}
				if tb.Delete(id) == nil {
					t.Fatalf("step %d: Delete(%d) missed", step, id)
				}
				live.remove(id)
			case op == 9: // Delete a run of most live tuples: compacts
				for n := len(live.ids) * 3 / 5; n > 0; n-- {
					id, _ := pickLive()
					tb.Delete(id)
					live.remove(id)
				}
			case op < 12: // table write-back, at the current or a stale gen
				id, ok := pickLive()
				if !ok {
					continue
				}
				gen := live.img[id].gen
				if r.Intn(4) == 0 && gen > 0 {
					gen--
				}
				v, mark := val(), r.Intn(2) == 0
				got, err := tb.WriteDerived(id, "d", v, gen, mark)
				if err != nil {
					t.Fatal(err)
				}
				if want := live.writeDerived(id, v, gen, mark); got != want {
					t.Fatalf("step %d: WriteDerived(%d) applied %v, model %v", step, id, got, want)
				}
			case op < 16: // view write-back of a tuple the view holds
				if len(views) == 0 {
					continue
				}
				ov := views[r.Intn(len(views))]
				if len(ov.m.ids) == 0 {
					continue
				}
				id := ov.m.ids[r.Intn(len(ov.m.ids))]
				gen := ov.m.img[id].gen
				v, mark := val(), r.Intn(2) == 0
				got, err := ov.v.WriteDerived(id, "d", v, gen, mark)
				if err != nil {
					t.Fatal(err)
				}
				ov.m.writeDerived(id, v, gen, mark)
				if want := live.writeDerived(id, v, gen, mark); got != want {
					t.Fatalf("step %d: view WriteDerived(%d) applied %v live, model %v", step, id, got, want)
				}
			case op < 18: // a scan seals the table's or a view's chunks
				var rel Relation = tb
				if len(views) > 0 && r.Intn(2) == 0 {
					rel = views[r.Intn(len(views))].v
				}
				chunks := rel.ChunksInto(nil)
				if err := checkVectors(chunks, rs); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				for _, c := range chunks {
					sealed = append(sealed, sealedChunk{c, slices.Clone(c.Tuples)})
				}
			default: // a new view; at most three stay open
				views = append(views, openView{tb.View(), live.clone()})
				if len(views) > 3 {
					views = views[1:]
				}
			}
			if err := checkRel(tb, live, ever, bit); err != nil {
				t.Fatalf("trial %d step %d: table: %v", trial, step, err)
			}
			for i, sc := range sealed {
				if !slices.Equal(sc.c.Tuples, sc.lanes) {
					t.Fatalf("trial %d step %d: sealed chunk %d changed after its scan", trial, step, i)
				}
			}
			for i, ov := range views {
				if err := checkRel(ov.v, ov.m, ever, bit); err != nil {
					t.Fatalf("trial %d step %d: view %d: %v", trial, step, i, err)
				}
			}
		}
		if tb.Stats().Compactions == 0 {
			t.Fatalf("trial %d: no compaction: the history is too gentle", trial)
		}
	}
}

// TestViewStableBesideConcurrentWriter takes views while one writer
// inserts (up to four chunks), rewrites, write-backs and deletes: each view's reads stay what
// they were when it was taken, Get agrees with Tuples, and the view's own
// write-back lands in its image. Run under -race it also checks the view's
// reads against the writer's chunk copies.
func TestViewStableBesideConcurrentWriter(t *testing.T) {
	tb := chunkTable(t, 2*expr.BatchSize+10)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		next := int64(2*expr.BatchSize + 11)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(1 + r.Intn(int(next-1)))
			switch i % 5 {
			case 0:
				if next <= 4*expr.BatchSize {
					tb.Insert(mkTuple(next, 0))
					next++
				}
			case 1:
				tb.WriteDerived(id, "d", types.NewInt(1), tb.Gen(id), true)
			case 2:
				tb.CommitFixed(id, "a", types.NewInt(int64(i)))
			case 3:
				tb.WriteDerived(id, "d", types.NewInt(2), tb.Gen(id), false)
			case 4:
				if i%50 == 4 {
					tb.Delete(id)
				}
			}
		}
	}()
	for round := 0; round < 50; round++ {
		v := tb.View()
		first := Tuples(v)
		if len(first) != v.Len() {
			t.Fatalf("round %d: Tuples holds %d, Len %d", round, len(first), v.Len())
		}
		for _, tu := range first {
			if v.Get(tu.ID) != tu {
				t.Fatalf("round %d: Get(%d) disagrees with Tuples", round, tu.ID)
			}
		}
		tu := first[len(first)/2]
		if _, err := v.WriteDerived(tu.ID, "d", types.NewInt(0), tu.Gen, true); err != nil {
			t.Fatal(err)
		}
		if got := v.Get(tu.ID); got.Vals[3].IsNull() || got.Vals[3].Int() != 0 {
			t.Fatalf("round %d: view write-back of %d lost: %v", round, tu.ID, got.Vals)
		}
		v.ChunksInto(nil)
		for i, tu2 := range Tuples(v) {
			if tu2.ID != first[i].ID || (tu2 != first[i] && tu2.ID != tu.ID) {
				t.Fatalf("round %d: lane %d changed under a concurrent writer", round, i)
			}
		}
	}
	close(stop)
	wg.Wait()
}
