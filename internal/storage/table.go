// Package storage implements the in-memory table store backing the engine.
// Tables hold tuples in insertion-ordered chunks keyed by id and support
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
// exclusive writers under one coarse RWMutex; every write (an Insert, one
// derived value's write-back, a Delete) takes it once.
//
// Storage layout: tuples live in insertion order in a list of chunks of
// expr.BatchSize lanes, every chunk but the last full, with an id→lane map
// giving O(1) point access. The chunks are the ones scans read: ChunksInto
// (a scan of the live table) and View (a snapshot) seal them, and a write
// to a sealed chunk copies that chunk first, so a scan or a view costs the
// number of chunks, and the next one shares every chunk no write touched,
// column vectors included. Deletions leave nil tombstones; the chunks
// compact from the first tombstone on once tombstones outnumber live
// tuples, and before a seal (scans read dense chunks).
type Table struct {
	schema *catalog.Schema

	mu      sync.RWMutex
	chunks  []*expr.Chunk // insertion order; nil lanes are tombstones
	private []bool        // chunks[k] is the table's own: no view holds it
	slot    map[int64]int // tuple id -> lane across chunks
	live    int           // non-tombstone count
	hole    int           // lowest tombstone lane, when live < lanes()
	moves   uint64        // deletes and compactions: lanes views can no longer trust
	nextID  int64
	nextSeq uint64 // local insertion-sequence counter for Seq-less inserts

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

// compactMinSlab is the lane count (tombstones included) below which
// deletions never trigger a compaction (churn on tiny tables is cheaper than
// copying).
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

// lanes returns the lane count, tombstones included. Caller holds t.mu.
func (t *Table) lanes() int {
	k := len(t.chunks) - 1
	if k < 0 {
		return 0
	}
	return k*expr.BatchSize + len(t.chunks[k].Tuples)
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
		Tombstones:  int64(t.lanes() - t.live),
	}
}

// newChunk returns a table-private chunk over a copy of tuples with room
// for a full chunk, caching vectors for every column.
func (t *Table) newChunk(tuples []*types.Tuple) *expr.Chunk {
	return expr.NewChunk(append(make([]*types.Tuple, 0, expr.BatchSize), tuples...), len(t.schema.Cols))
}

// own makes chunk k the table's own, copying it if a view holds it, and
// returns it. vecs keeps the vectors built so far, for a write Chunk.Set can
// patch; otherwise the chunk comes back without vectors. Caller holds t.mu
// for writing.
func (t *Table) own(k int, vecs bool) *expr.Chunk {
	c := t.chunks[k]
	switch {
	case !t.private[k] && vecs:
		c = c.Clone()
	case !t.private[k]:
		c = t.newChunk(c.Tuples)
	case !vecs:
		c = expr.NewChunk(c.Tuples, len(t.schema.Cols))
	}
	t.chunks[k], t.private[k] = c, true
	return c
}

// Insert stores a tuple. A zero ID is auto-assigned; explicit ids must be
// unique. The value slice length must match the schema, and every non-NULL
// value must have its column's kind. The stored image
// carries no enrichment mark: a marked tuple (an image read back from a
// table) is stored as an unmarked copy, so the caller's published image is
// never mutated.
func (t *Table) Insert(tu *types.Tuple) (int64, error) {
	if len(tu.Vals) != len(t.schema.Cols) {
		return 0, fmt.Errorf("storage: %s: tuple has %d values, schema has %d columns",
			t.schema.Name, len(tu.Vals), len(t.schema.Cols))
	}
	if err := t.schema.CheckKinds(0, tu.Vals...); err != nil {
		return 0, err
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
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k].Tuples) == expr.BatchSize {
		t.chunks = append(t.chunks, t.newChunk(nil))
		t.private = append(t.private, true)
		k++
	} else if !t.private[k] {
		t.own(k, false)
	}
	t.slot[tu.ID] = t.lanes()
	t.chunks[k].Append(tu)
	t.live++
	t.inserts++
	return tu.ID, nil
}

// Get returns the tuple with the given id, or nil. The returned tuple is the
// stored one; callers must not mutate it directly (use CommitFixed or
// WriteDerived).
func (t *Table) Get(id int64) *types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.slot[id]; ok {
		return t.chunks[i/expr.BatchSize].Tuples[i%expr.BatchSize]
	}
	return nil
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
		return 0, fmt.Errorf("storage: %s: %s is a derived column; use WriteDerived", t.schema.Name, col)
	}
	if err := t.schema.CheckKinds(ci, v); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok {
		return 0, fmt.Errorf("storage: %s: no tuple %d", t.schema.Name, id)
	}
	// Several columns change, which Chunk.Set cannot patch: the chunk loses
	// its vectors.
	c := t.own(i/expr.BatchSize, false)
	nu := c.Tuples[i%expr.BatchSize].Clone()
	nu.Vals[ci] = v
	for di, col := range t.schema.Cols {
		if col.Derived {
			nu.Vals[di] = types.Null
		}
	}
	nu.Gen++
	nu.Enriched = 0
	c.Tuples[i%expr.BatchSize] = nu
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
	if err := t.schema.CheckKinds(ci, v); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeDerived(id, ci, v, gen, mark), nil
}

// writeDerived is WriteDerived of derived column ci. Caller holds t.mu for
// writing.
func (t *Table) writeDerived(id int64, ci int, v types.Value, gen uint64, mark bool) bool {
	i, ok := t.slot[id]
	if !ok {
		return false
	}
	k, lane := i/expr.BatchSize, i%expr.BatchSize
	if t.chunks[k].Tuples[lane].Gen != gen {
		return false
	}
	c := t.own(k, true)
	c.Set(lane, markedImage(t.schema, c.Tuples[lane], ci, v, mark), ci)
	t.updates++
	return true
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
	if tu := t.Get(id); tu != nil {
		return tu.Gen
	}
	return 0
}

// Delete removes a tuple, returning it (or nil if absent). Its lane becomes
// a tombstone; once tombstones outnumber live tuples the chunks compact,
// preserving insertion order.
func (t *Table) Delete(id int64) *types.Tuple {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.slot[id]
	if !ok {
		return nil
	}
	c := t.own(i/expr.BatchSize, false)
	tu := c.Tuples[i%expr.BatchSize]
	c.Tuples[i%expr.BatchSize] = nil
	delete(t.slot, id)
	n := t.lanes()
	if t.live == n || i < t.hole {
		t.hole = i
	}
	t.live--
	t.deletes++
	t.moves++
	if n >= compactMinSlab && t.live*2 <= n {
		t.compact()
	}
	return tu
}

// compact rewrites the chunks from the one holding the first tombstone on,
// without tombstones and without vectors, and moves their lanes in the slot
// map; earlier chunks are kept as they are. Caller holds t.mu for writing.
// Insertion order is preserved, so scans before and after a compaction
// observe the same sequence.
func (t *Table) compact() {
	k0 := t.hole / expr.BatchSize
	var rest []*types.Tuple
	for _, c := range t.chunks[k0:] {
		for _, tu := range c.Tuples {
			if tu != nil {
				rest = append(rest, tu)
			}
		}
	}
	clear(t.chunks[k0:]) // release dropped chunks for GC
	t.chunks, t.private = t.chunks[:k0], t.private[:k0]
	for lo := 0; lo < len(rest); lo += expr.BatchSize {
		c := t.newChunk(rest[lo:min(lo+expr.BatchSize, len(rest))])
		for j, tu := range c.Tuples {
			t.slot[tu.ID] = k0*expr.BatchSize + lo + j
		}
		t.chunks = append(t.chunks, c)
		t.private = append(t.private, true)
	}
	t.compactions++
	t.moves++
}

// ChunksInto seals the table's chunks, compacting away any tombstone first,
// and appends them, in insertion order, into buf[:0]: a later write copies
// the chunk it lands in, so the returned chunks, and the vectors scans build
// on them, never change.
func (t *Table) ChunksInto(buf []*expr.Chunk) []*expr.Chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(buf[:0], t.seal()...)
}

// seal compacts away any tombstone and marks every chunk shared, returning
// the chunk list. Caller holds t.mu for writing.
func (t *Table) seal() []*expr.Chunk {
	if t.live < t.lanes() {
		t.compact()
	}
	clear(t.private)
	return t.chunks
}
