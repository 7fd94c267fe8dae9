package storage

import (
	"fmt"
	"slices"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// TableView is a frozen, snapshot-isolated read view of one table: the set
// of tuple pointers that were live when the view was taken, in slab order.
// Tuples are immutable (storage is copy-on-write), so the view needs no
// coordination with the live table after construction — compaction and
// concurrent writers can do whatever they like to the slab.
//
// The view holds its tuples in chunks of expr.BatchSize lanes (the last may
// be shorter), and scans read those chunks, typed column vectors included
// (expr.Chunk). A chunk a scan has read is sealed: it never changes again,
// so its vectors stay valid for every later scan. Table.View hands the next
// view the same chunk wherever its lanes hold the same tuple pointers.
//
// A view is also the session-side write surface for enrichment: WriteDerived
// applies a derived value to the view's private image (so the session's own
// query sees the enrichment it paid for) and writes it through to the live
// table generation-guarded — if a concurrent commit rewrote or deleted the
// tuple after the snapshot, the live write is dropped and the newer data
// wins, while the view keeps its own consistent image.

type TableView struct {
	parent *Table
	schema *catalog.Schema

	mu     sync.RWMutex
	chunks []*expr.Chunk
	// private[k]: chunks[k] is this view's own copy and no scan has read it
	// since, so a write goes in place; otherwise a write copies it first.
	private []bool
	slot    map[int64]int // tuple id -> lane across chunks
}

// View freezes the table's current live tuples as a snapshot view. Where a
// chunk's run of live tuples is pointer for pointer the previous view's, the
// new view shares that chunk, and with it the vectors scans have built.
func (t *Table) View() *TableView {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	t.mu.RLock()
	n := t.live
	chunks := make([]*expr.Chunk, 0, (n+expr.BatchSize-1)/expr.BatchSize)
	run := make([]*types.Tuple, 0, expr.BatchSize)
	for _, tu := range t.slab {
		if tu == nil {
			continue
		}
		run = append(run, tu)
		if len(run) == expr.BatchSize {
			chunks = append(chunks, t.reuseChunk(len(chunks), run))
			run = run[:0]
		}
	}
	if len(run) > 0 {
		chunks = append(chunks, t.reuseChunk(len(chunks), run))
	}
	t.mu.RUnlock()
	t.chunks = chunks

	slot := make(map[int64]int, n)
	for k, c := range chunks {
		for i, tu := range c.Tuples {
			slot[tu.ID] = k*expr.BatchSize + i
		}
	}
	return &TableView{
		parent:  t,
		schema:  t.schema,
		chunks:  append([]*expr.Chunk(nil), chunks...),
		private: make([]bool, len(chunks)),
		slot:    slot,
	}
}

// reuseChunk returns the previous view's k-th chunk when its lanes are
// exactly run, else a new chunk over a copy of run. Caller holds viewMu.
func (t *Table) reuseChunk(k int, run []*types.Tuple) *expr.Chunk {
	if k < len(t.chunks) && slices.Equal(t.chunks[k].Tuples, run) {
		return t.chunks[k]
	}
	return expr.NewChunk(append([]*types.Tuple(nil), run...), len(t.schema.Cols))
}

// Schema returns the underlying table's schema.
func (v *TableView) Schema() *catalog.Schema { return v.schema }

// Len returns the number of tuples in the snapshot.
func (v *TableView) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.slot)
}

// Get returns the snapshot's tuple with the given id, or nil.
func (v *TableView) Get(id int64) *types.Tuple {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i, ok := v.slot[id]; ok {
		return v.chunks[i/expr.BatchSize].Tuples[i%expr.BatchSize]
	}
	return nil
}

// Tuples returns a freshly allocated slice of the snapshot's tuples in slab
// order.
func (v *TableView) Tuples() []*types.Tuple {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*types.Tuple, 0, len(v.slot))
	for _, c := range v.chunks {
		out = append(out, c.Tuples...)
	}
	return out
}

// ChunksInto seals the view's chunks and appends them, in slab order, into
// buf[:0]: a write after this call copies the chunk it lands in, so the
// returned chunks, and the vectors scans build on them, never change.
func (v *TableView) ChunksInto(buf []*expr.Chunk) []*expr.Chunk {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.private)
	return append(buf[:0], v.chunks...)
}

// WriteDerived writes a derived value, and its enrichment mark, into the
// view's private image (when the snapshot holds the tuple at gen) and
// through to the live table, generation-guarded there too: if a concurrent
// commit superseded the image, the live write is dropped on purpose. Only
// derived columns are writable through a view — fixed data changes go
// through the commit path, never through a snapshot.
func (v *TableView) WriteDerived(id int64, col string, val types.Value, gen uint64, mark bool) (bool, error) {
	ci := v.schema.ColIndex(col)
	if ci < 0 || !v.schema.Cols[ci].Derived {
		return false, fmt.Errorf("storage: %s: cannot write %s through a snapshot view", v.schema.Name, col)
	}
	v.mu.Lock()
	i, ok := v.slot[id]
	if ok {
		k, lane := i/expr.BatchSize, i%expr.BatchSize
		if c := v.chunks[k]; c.Tuples[lane].Gen == gen {
			if !v.private[k] {
				c = c.Clone()
				v.chunks[k], v.private[k] = c, true
			}
			c.Set(lane, markedImage(v.schema, c.Tuples[lane], ci, val, mark), ci)
		}
	}
	v.mu.Unlock()
	if !ok {
		return false, nil
	}
	return v.parent.WriteDerived(id, col, val, gen, mark)
}

// Snapshot is a point-in-time, cross-table read view of a database, taken
// atomically with respect to the commit path: a query executed against it
// sees exactly the data committed as of one commit version.
type Snapshot struct {
	cat   *catalog.Catalog
	views map[string]*TableView
}

// Snapshot freezes every table. Callers wanting cross-table atomicity must
// hold their commit lock across this call; the per-table freeze itself only
// takes each table's read lock briefly.
func (d *DB) Snapshot() *Snapshot {
	d.mu.RLock()
	names := make([]string, 0, len(d.tables))
	for name := range d.tables {
		names = append(names, name)
	}
	tables := make(map[string]*Table, len(names))
	for _, name := range names {
		tables[name] = d.tables[name]
	}
	d.mu.RUnlock()

	views := make(map[string]*TableView, len(tables))
	for name, t := range tables {
		views[name] = t.View()
	}
	return &Snapshot{cat: d.cat, views: views}
}

// Catalog returns the database's catalog (schemas are immutable after
// creation, so the snapshot shares it).
func (s *Snapshot) Catalog() *catalog.Catalog { return s.cat }

// Table returns the named table's snapshot view.
func (s *Snapshot) Table(name string) (Relation, error) {
	v, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %s", name)
	}
	return v, nil
}

// View returns the named table's concrete snapshot view, or nil.
func (s *Snapshot) View(name string) *TableView { return s.views[name] }
