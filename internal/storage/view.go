package storage

import (
	"fmt"
	"slices"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// TableView is a frozen, snapshot-isolated read view of one table: the
// tuples that were live when the view was taken, in insertion order.
//
// The view holds the table's chunks as View found them (expr.BatchSize
// lanes each, the last may be shorter), and scans read those chunks, typed
// column vectors included (expr.Chunk). View seals every chunk it hands
// out: neither the table nor any view changes a sealed chunk again, so
// whatever the table does after View (writes, deletes, compaction) the
// view's image stays put, and its vectors stay valid for every later scan
// and every later view that still holds the chunk.
//
// A view finds an id through the table's id index: until a delete or a
// compaction moves the table's lanes (the table's move count), the table
// holds every tuple of the view at the view's lane, so a lane below the
// view's length is the answer. After that the view builds its own id map,
// once.
//
// A view is also the session-side write surface for enrichment: WriteDerived
// applies a derived value to the view's private image (so the session's own
// query sees the enrichment it paid for) and writes it through to the live
// table generation-guarded — if a concurrent commit rewrote or deleted the
// tuple after the snapshot, the live write is dropped and the newer data
// wins, while the view keeps its own consistent image.
//
// The table's lock guards the view's chunks too: every lookup reads the
// table's index and every write-back writes the table, so one lock
// acquisition serves each.
type TableView struct {
	parent *Table
	schema *catalog.Schema
	n      int    // lane count
	moves  uint64 // the parent's move count when the view was taken

	chunks []*expr.Chunk
	// private[k]: chunks[k] is this view's own copy and no scan has read it
	// since, so a write goes in place; otherwise a write copies it first.
	private []bool

	slotOnce sync.Once
	slot     map[int64]int // tuple id -> lane, once the parent's lanes moved
}

// View freezes the table's current live tuples as a snapshot view: it
// compacts away any tombstone, then copies and seals the chunk pointers.
func (t *Table) View() *TableView {
	t.mu.Lock()
	defer t.mu.Unlock()
	chunks := slices.Clone(t.seal())
	return &TableView{
		parent:  t,
		schema:  t.schema,
		n:       t.live,
		moves:   t.moves,
		chunks:  chunks,
		private: make([]bool, len(chunks)),
	}
}

// Schema returns the underlying table's schema.
func (v *TableView) Schema() *catalog.Schema { return v.schema }

// Len returns the number of tuples in the snapshot.
func (v *TableView) Len() int { return v.n }

// lane returns the id's lane in the view: the table's lane for it while no
// lane has moved since the view was taken (a view holds at lane i the tuple
// the table held there), else the view's own map, built on first use.
// Caller holds the table's lock.
func (v *TableView) lane(id int64) (int, bool) {
	if v.parent.moves == v.moves {
		i, ok := v.parent.slot[id]
		return i, ok && i < v.n
	}
	v.slotOnce.Do(func() {
		v.slot = make(map[int64]int, v.n)
		for k, c := range v.chunks {
			for i, tu := range c.Tuples {
				v.slot[tu.ID] = k*expr.BatchSize + i
			}
		}
	})
	i, ok := v.slot[id]
	return i, ok
}

// Get returns the snapshot's tuple with the given id, or nil.
func (v *TableView) Get(id int64) *types.Tuple {
	v.parent.mu.RLock()
	defer v.parent.mu.RUnlock()
	if i, ok := v.lane(id); ok {
		return v.chunks[i/expr.BatchSize].Tuples[i%expr.BatchSize]
	}
	return nil
}

// ChunksInto seals the view's chunks and appends them, in insertion order,
// into buf[:0]: a write after this call copies the chunk it lands in, so the
// returned chunks, and the vectors scans build on them, never change.
func (v *TableView) ChunksInto(buf []*expr.Chunk) []*expr.Chunk {
	v.parent.mu.Lock()
	defer v.parent.mu.Unlock()
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
	if err := v.schema.CheckKinds(ci, val); err != nil {
		return false, err
	}
	v.parent.mu.Lock()
	defer v.parent.mu.Unlock()
	i, ok := v.lane(id)
	if !ok {
		return false, nil
	}
	k, lane := i/expr.BatchSize, i%expr.BatchSize
	if c := v.chunks[k]; c.Tuples[lane].Gen == gen {
		if !v.private[k] {
			c = c.Clone()
			v.chunks[k], v.private[k] = c, true
		}
		c.Set(lane, markedImage(v.schema, c.Tuples[lane], ci, val, mark), ci)
	}
	return v.parent.writeDerived(id, ci, val, gen, mark), nil
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
// takes each table's lock briefly.
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
