// Package storage implements the in-memory table store backing the engine.
// Tables hold tuples in an ordered slab keyed by id and support
// copy-on-write updates of derived attributes — the write path enrichment
// uses when a function's output is determinized into a value.
package storage

import (
	"fmt"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// Table is one stored relation. It is safe for concurrent readers with
// exclusive writers; the coarse RWMutex is sufficient at the engine's epoch
// granularity (all enrichment writes of an epoch are applied in one batch).
//
// Storage layout: tuples live in a dense slab ordered by insertion, with
// deletions leaving nil tombstones and an id→slot map giving O(1) point
// access. A scan is a straight walk over the slab — no per-scan sort, no
// per-row map lookup — and the slab compacts in place once tombstones
// outnumber live tuples, so a long delete-heavy run cannot degrade scans.
type Table struct {
	schema *catalog.Schema

	mu      sync.RWMutex
	slab    []*types.Tuple // insertion order; nil entries are tombstones
	slot    map[int64]int  // tuple id -> slab position
	live    int            // non-tombstone count
	nextID  int64
	nextSeq uint64 // local insertion-sequence counter for Seq-less inserts

	// viewMu serialises View, the one reader and writer of chunks: the last
	// view's chunks as View built them, never written since.
	viewMu sync.Mutex
	chunks []*expr.Chunk

	// Lifetime counters (guarded by mu); surfaced via Stats for the
	// storage.* telemetry gauges.
	inserts, deletes, updates, compactions int64
}

// TableStats is a point-in-time snapshot of a table's (or database's)
// storage counters.
type TableStats struct {
	Inserts, Deletes, Updates int64
	Compactions               int64
	Live, Tombstones          int64
}

// compactMinSlab is the slab length below which deletions never trigger a
// compaction (churn on tiny tables is cheaper than copying).
const compactMinSlab = 64

// NewTable creates an empty table for the schema.
func NewTable(s *catalog.Schema) *Table {
	return &Table{
		schema: s,
		slot:   make(map[int64]int),
		nextID: 1,
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// Len returns the number of stored tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Stats returns the table's storage counters.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableStats{
		Inserts:     t.inserts,
		Deletes:     t.deletes,
		Updates:     t.updates,
		Compactions: t.compactions,
		Live:        int64(t.live),
		Tombstones:  int64(len(t.slab) - t.live),
	}
}

// Insert stores a tuple. A zero ID is auto-assigned; explicit ids must be
// unique. The value slice length must match the schema. The stored image
// carries no enrichment mark: a marked tuple (an image read back from a
// table) is stored as an unmarked copy, so the caller's published image is
// never mutated.
func (t *Table) Insert(tu *types.Tuple) (int64, error) {
	if len(tu.Vals) != len(t.schema.Cols) {
		return 0, fmt.Errorf("storage: %s: tuple has %d values, schema has %d columns",
			t.schema.Name, len(tu.Vals), len(t.schema.Cols))
	}
	if tu.Enriched != 0 {
		c := *tu
		c.Enriched = 0
		tu = &c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tu.ID == 0 {
		tu.ID = t.nextID
	}
	if tu.ID >= t.nextID {
		t.nextID = tu.ID + 1
	}
	if _, dup := t.slot[tu.ID]; dup {
		return 0, fmt.Errorf("storage: %s: duplicate tuple id %d", t.schema.Name, tu.ID)
	}
	// Stamp the insertion sequence unless the caller (a sharded facade,
	// stamping the store-wide sequence) already did. The sharded merge
	// orders replica reads by it.
	if tu.Seq == 0 {
		t.nextSeq++
		tu.Seq = t.nextSeq
	}
	t.slot[tu.ID] = len(t.slab)
	t.slab = append(t.slab, tu)
	t.live++
	t.inserts++
	return tu.ID, nil
}

// Get returns the tuple with the given id, or nil. The returned tuple is the
// stored one; callers must not mutate it directly (use Update).
func (t *Table) Get(id int64) *types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.slot[id]; ok {
		return t.slab[i]
	}
	return nil
}

// Update replaces the value of one column of one tuple, returning the old
// value.
//
// The write is copy-on-write: the stored tuple is replaced by a clone
// carrying the new value, never mutated in place, so rows and snapshots that
// alias the old tuple's value slice keep reading a consistent pre-update
// image. Updating a fixed (non-derived) column bumps the tuple's generation,
// marking enrichment computed from the old feature vectors as stale, and
// clears the enrichment mark; a derived write clears that column's bit (the
// value no longer comes from the function family).
func (t *Table) Update(id int64, col string, v types.Value) (types.Value, error) {
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return types.Null, fmt.Errorf("storage: %s: unknown column %s", t.schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok {
		return types.Null, fmt.Errorf("storage: %s: no tuple %d", t.schema.Name, id)
	}
	tu := t.slab[i]
	old := tu.Vals[ci]
	nu := tu.Clone()
	nu.Vals[ci] = v
	nu.Enriched &^= t.schema.MarkBit(col)
	if !t.schema.Cols[ci].Derived {
		nu.Gen++
		nu.Enriched = 0
	}
	t.slab[i] = nu
	t.updates++
	return old, nil
}

// CommitFixed replaces a fixed column's value, clears every derived column,
// and bumps the tuple's generation in one copy-on-write swap. Concurrent
// readers therefore never observe a torn image (new fixed value with a stale
// derived value, or vice versa) — the commit path uses this for fixed-
// attribute updates, whose derived values must be recomputed (§3.3.5).
// Returns the tuple's new generation.
func (t *Table) CommitFixed(id int64, col string, v types.Value) (uint64, error) {
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return 0, fmt.Errorf("storage: %s: unknown column %s", t.schema.Name, col)
	}
	if t.schema.Cols[ci].Derived {
		return 0, fmt.Errorf("storage: %s: %s is a derived column; use Update", t.schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok {
		return 0, fmt.Errorf("storage: %s: no tuple %d", t.schema.Name, id)
	}
	tu := t.slab[i]
	nu := tu.Clone()
	nu.Vals[ci] = v
	for di, c := range t.schema.Cols {
		if c.Derived {
			nu.Vals[di] = types.Null
		}
	}
	nu.Gen++
	nu.Enriched = 0
	t.slab[i] = nu
	t.updates++
	return nu.Gen, nil
}

// WriteDerived is the enrichment write-back: it stores a determined derived
// value iff the stored tuple is still at the given generation, so enrichment
// determinized from a superseded generation's feature vectors never lands.
// mark sets the column's enrichment mark in the same copy-on-write swap (a
// NULL value is never marked); otherwise the bit is cleared. Its caller,
// enrich.Manager.WriteBack, decides the mark: the family's every function
// ran at gen. Returns whether the write applied; a missing tuple or a
// generation mismatch is a silent no-op, not an error (the tuple was deleted
// or rewritten after the caller's snapshot, and the newer data wins).
func (t *Table) WriteDerived(id int64, col string, v types.Value, gen uint64, mark bool) (bool, error) {
	ci := t.schema.ColIndex(col)
	if ci < 0 || !t.schema.Cols[ci].Derived {
		return false, fmt.Errorf("storage: %s: %s is not a derived column", t.schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok || t.slab[i].Gen != gen {
		return false, nil
	}
	t.slab[i] = markedImage(t.schema, t.slab[i], ci, v, mark)
	t.updates++
	return true, nil
}

// markedImage is the copy of tu carrying v in derived column ci, with the
// column's mark bit set iff mark is asked for and the value is non-NULL.
func markedImage(s *catalog.Schema, tu *types.Tuple, ci int, v types.Value, mark bool) *types.Tuple {
	nu := tu.Clone()
	nu.Vals[ci] = v
	bit := s.MarkBit(s.Cols[ci].Name)
	nu.Enriched &^= bit
	if mark && !v.IsNull() {
		nu.Enriched |= bit
	}
	return nu
}

// Gen returns the stored tuple's current generation (0 when absent).
func (t *Table) Gen(id int64) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.slot[id]; ok {
		return t.slab[i].Gen
	}
	return 0
}

// Delete removes a tuple, returning it (or nil if absent). The slab slot
// becomes a tombstone; once tombstones outnumber live tuples the slab
// compacts in place, preserving insertion order.
func (t *Table) Delete(id int64) *types.Tuple {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok {
		return nil
	}
	tu := t.slab[i]
	t.slab[i] = nil
	delete(t.slot, id)
	t.live--
	t.deletes++
	if len(t.slab) >= compactMinSlab && t.live*2 <= len(t.slab) {
		t.compact()
	}
	return tu
}

// compact rewrites the slab without tombstones and rebuilds the slot map.
// Caller holds t.mu. Insertion order is preserved, so scans before and after
// a compaction observe the same sequence.
func (t *Table) compact() {
	dst := 0
	for _, tu := range t.slab {
		if tu == nil {
			continue
		}
		t.slab[dst] = tu
		t.slot[tu.ID] = dst
		dst++
	}
	for i := dst; i < len(t.slab); i++ {
		t.slab[i] = nil // release tails for GC
	}
	t.slab = t.slab[:dst]
	t.compactions++
}

// Tuples returns a snapshot slice of all stored tuples in insertion order.
// The slice is freshly allocated; the tuples are the stored ones and must
// not be mutated.
func (t *Table) Tuples() []*types.Tuple {
	return t.TuplesInto(nil)
}

// TuplesInto is Tuples with caller-provided backing storage: the snapshot is
// appended into buf[:0] (growing it only when capacity runs out), so steady
// repeated scans — the vectorized executor snapshots the slab every query —
// reuse one buffer instead of allocating a fresh slice per call. The returned
// slice holds live tuple pointers in slab (insertion) order; the tuples
// themselves stay immutable copy-on-write as everywhere else.
func (t *Table) TuplesInto(buf []*types.Tuple) []*types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := buf[:0]
	if cap(out) < t.live {
		out = make([]*types.Tuple, 0, t.live)
	}
	for _, tu := range t.slab {
		if tu != nil {
			out = append(out, tu)
		}
	}
	return out
}
