package storage

import (
	"fmt"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// TableView is a frozen, snapshot-isolated read view of one table: the set
// of tuple pointers that were live when the view was taken, in slab order.
// Tuples are immutable (storage is copy-on-write), so the view needs no
// coordination with the live table after construction — compaction and
// concurrent writers can do whatever they like to the slab.
//
// A view is also the session-side write surface for enrichment: WriteDerived
// applies a derived value to the view's private image (so the session's own
// query sees the enrichment it paid for) and writes it through to the live
// table generation-guarded — if a concurrent commit rewrote or deleted the
// tuple after the snapshot, the live write is dropped and the newer data
// wins, while the view keeps its own consistent image.
//
// Views answer no index lookups (HasIndex is false): the live index covers
// tuples committed after the snapshot, so the planner routes every view scan
// through the full-scan path, which reads only frozen tuples.
type TableView struct {
	parent *Table
	schema *catalog.Schema

	mu     sync.RWMutex
	tuples []*types.Tuple // frozen slab order; COW-replaced by WriteDerived
	slot   map[int64]int
}

// View freezes the table's current live tuples as a snapshot view.
func (t *Table) View() *TableView {
	tuples := t.Tuples()
	slot := make(map[int64]int, len(tuples))
	for i, tu := range tuples {
		slot[tu.ID] = i
	}
	return &TableView{parent: t, schema: t.schema, tuples: tuples, slot: slot}
}

// Schema returns the underlying table's schema.
func (v *TableView) Schema() *catalog.Schema { return v.schema }

// Len returns the number of tuples in the snapshot.
func (v *TableView) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.tuples)
}

// Get returns the snapshot's tuple with the given id, or nil.
func (v *TableView) Get(id int64) *types.Tuple {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i, ok := v.slot[id]; ok {
		return v.tuples[i]
	}
	return nil
}

// Scan calls fn for every snapshot tuple in slab order, stopping early if fn
// returns false.
func (v *TableView) Scan(fn func(*types.Tuple) bool) {
	for _, tu := range v.Tuples() {
		if !fn(tu) {
			return
		}
	}
}

// Tuples returns a freshly allocated slice of the snapshot's tuples in slab
// order.
func (v *TableView) Tuples() []*types.Tuple {
	return v.TuplesInto(nil)
}

// TuplesInto mirrors Table.TuplesInto: the frozen snapshot is copied into
// buf[:0], reusing its capacity when possible.
func (v *TableView) TuplesInto(buf []*types.Tuple) []*types.Tuple {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := buf[:0]
	if cap(out) < len(v.tuples) {
		out = make([]*types.Tuple, 0, len(v.tuples))
	}
	out = append(out, v.tuples...)
	return out
}

// IDs returns the snapshot's tuple ids in slab order.
func (v *TableView) IDs() []int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]int64, len(v.tuples))
	for i, tu := range v.tuples {
		out[i] = tu.ID
	}
	return out
}

// HasIndex always reports false: the live index is not snapshot-consistent.
func (v *TableView) HasIndex(string) bool { return false }

// IndexTuples reports no index (see HasIndex).
func (v *TableView) IndexTuples(string, types.Value) ([]*types.Tuple, bool) {
	return nil, false
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
	if ok && v.tuples[i].Gen == gen {
		v.tuples[i] = markedImage(v.schema, v.tuples[i], ci, val, mark)
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
