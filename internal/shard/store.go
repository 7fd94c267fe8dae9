package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"enrichdb/internal/catalog"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Config parameterizes a sharded store.
type Config struct {
	// Shards is the number of in-process shard replicas (min 1).
	Shards int
	// Ranges, when non-empty, range-partitions every table by tuple id with
	// these initial split points; empty means hash partitioning by id.
	Ranges []int64
}

// Store is a sharded storage.Store: every table is partitioned across N
// in-process *storage.DB replicas by a per-table partitioner. Reads merge
// the replicas in global insertion-sequence order, so every plan shape —
// scans, index scans, joins, aggregates, IVM deltas — sees exactly the
// sequence an unsharded table would produce; writes route to the owning
// replica and bump that shard's commit counter (the generation vector
// snapshots carry).
type Store struct {
	cfg Config
	dbs []*storage.DB

	mu     sync.RWMutex
	tables map[string]*Table

	seq      atomic.Uint64 // global insertion sequence across all tables
	versions []atomic.Uint64
}

var _ storage.Store = (*Store)(nil)

// New builds an empty sharded store.
func New(cfg Config) *Store {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	dbs := make([]*storage.DB, cfg.Shards)
	for i := range dbs {
		dbs[i] = storage.NewDB()
	}
	return &Store{
		cfg:      cfg,
		dbs:      dbs,
		tables:   make(map[string]*Table),
		versions: make([]atomic.Uint64, cfg.Shards),
	}
}

// NumShards returns the replica count.
func (s *Store) NumShards() int { return len(s.dbs) }

// ShardSource returns shard i's replica as a query source (the scatter-
// gather executor plans per shard against these).
func (s *Store) ShardSource(i int) storage.Source { return s.dbs[i] }

// Catalog returns the store's catalog. Every replica registers the same
// schemas; shard 0's catalog is authoritative.
func (s *Store) Catalog() *catalog.Catalog { return s.dbs[0].Catalog() }

// CreateBase registers the schema on every replica and returns the sharded
// table facade.
func (s *Store) CreateBase(sc *catalog.Schema) (storage.BaseTable, error) {
	reps := make([]*storage.Table, len(s.dbs))
	for i, db := range s.dbs {
		t, err := db.CreateTable(sc)
		if err != nil {
			return nil, err
		}
		reps[i] = t
	}
	var part Partitioner
	if len(s.cfg.Ranges) > 0 {
		part = NewRangePartitioner(len(s.dbs), s.cfg.Ranges)
	} else {
		part = NewHashPartitioner(len(s.dbs))
	}
	tbl := &Table{store: s, schema: sc, part: part, reps: reps, nextID: 1}
	s.mu.Lock()
	s.tables[sc.Name] = tbl
	s.mu.Unlock()
	return tbl, nil
}

// Table resolves the named relation.
func (s *Store) Table(name string) (storage.Relation, error) {
	return s.BaseTable(name)
}

// BaseTable resolves the named sharded table facade.
func (s *Store) BaseTable(name string) (storage.BaseTable, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %s", name)
	}
	return t, nil
}

// Stats aggregates the storage counters across every replica.
func (s *Store) Stats() storage.TableStats {
	var out storage.TableStats
	for _, db := range s.dbs {
		ts := db.Stats()
		out.Inserts += ts.Inserts
		out.Deletes += ts.Deletes
		out.Updates += ts.Updates
		out.Compactions += ts.Compactions
		out.Live += ts.Live
		out.Tombstones += ts.Tombstones
		out.Indexes += ts.Indexes
	}
	return out
}

// Versions returns the per-shard commit counters — the generation vector a
// snapshot is stamped with. Index i counts commits (inserts, deletes,
// fixed-attribute updates, rebalance splits) that landed on shard i.
func (s *Store) Versions() []uint64 {
	out := make([]uint64, len(s.versions))
	for i := range s.versions {
		out[i] = s.versions[i].Load()
	}
	return out
}

// ShardOf returns the shard currently owning the tuple id of the named
// relation (-1 for unknown relations).
func (s *Store) ShardOf(name string, id int64) int {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return -1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.part.Route(types.NewInt(id))
}

// SplitRange rebalances the named range-partitioned table: the id range
// containing `at` splits at that boundary and tuples whose route changed
// move to their new replica, preserving id, generation and insertion
// sequence — so merged read order, enrichment state keys and gen guards are
// all unaffected by placement. Returns the number of tuples moved.
// Concurrent merged reads and routed writes are excluded for the duration
// (the facade's lock); per-shard scatter reads of other tables proceed.
func (s *Store) SplitRange(name string, at int64) (int, error) {
	s.mu.RLock()
	t, ok := s.tables[name]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("shard: unknown relation %s", name)
	}
	moved, err := t.splitRange(at)
	if err != nil {
		return moved, err
	}
	// A split is a placement commit on every shard: snapshots taken before
	// it carry a strictly older generation vector.
	for i := range s.versions {
		s.versions[i].Add(1)
	}
	return moved, nil
}

// Freeze snapshots every replica and returns a merged point-in-time Source
// stamped with the generation vector. The caller serializes Freeze against
// commits (enrichdb holds its commit lock), so the vector and the views are
// one consistent cut.
func (s *Store) Freeze() storage.Source {
	s.mu.RLock()
	tables := make(map[string]*Table, len(s.tables))
	for k, v := range s.tables {
		tables[k] = v
	}
	s.mu.RUnlock()
	sn := &Snap{
		cat:      s.Catalog(),
		shards:   make([]storage.Source, len(s.dbs)),
		merged:   make(map[string]*mergedView, len(tables)),
		versions: s.Versions(),
	}
	for i, db := range s.dbs {
		sn.shards[i] = db.Snapshot()
	}
	for name, t := range tables {
		t.mu.RLock()
		part := t.part.Clone()
		t.mu.RUnlock()
		views := make([]storage.Relation, len(sn.shards))
		for i := range sn.shards {
			v, err := sn.shards[i].Table(name)
			if err != nil {
				continue
			}
			views[i] = v
		}
		sn.merged[name] = &mergedView{schema: t.schema, part: part, views: views}
	}
	return sn
}

// Table is the sharded facade of one relation: a storage.BaseTable that
// routes point operations through the partitioner and merges full reads
// across replicas in insertion-sequence order. The facade lock excludes
// rebalancing from merged reads and routed writes; per-replica locks handle
// everything else.
type Table struct {
	store  *Store
	schema *catalog.Schema

	mu     sync.RWMutex
	part   Partitioner
	reps   []*storage.Table
	nextID int64
}

var _ storage.BaseTable = (*Table)(nil)

// Schema returns the relation's schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// route returns the replica owning the id under the current partitioner.
// Caller holds t.mu (read or write).
func (t *Table) route(id int64) *storage.Table {
	return t.reps[t.part.Route(types.NewInt(id))]
}

// Insert routes the tuple to its owning replica, mirroring the unsharded
// auto-id contract (zero id assigns the next id; explicit ids advance it)
// and stamping the store-global insertion sequence.
func (t *Table) Insert(tu *types.Tuple) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tu.ID == 0 {
		tu.ID = t.nextID
	}
	if tu.ID >= t.nextID {
		t.nextID = tu.ID + 1
	}
	if tu.Seq == 0 {
		tu.Seq = t.store.seq.Add(1)
	}
	shard := t.part.Route(types.NewInt(tu.ID))
	id, err := t.reps[shard].Insert(tu)
	if err != nil {
		return 0, err
	}
	t.store.versions[shard].Add(1)
	return id, nil
}

// Get returns the tuple by id from its owning replica.
func (t *Table) Get(id int64) *types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.route(id).Get(id)
}

// Update routes a single-column update; fixed-column updates count as
// commits on the owning shard.
func (t *Table) Update(id int64, col string, v types.Value) (types.Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	shard := t.part.Route(types.NewInt(id))
	old, err := t.reps[shard].Update(id, col, v)
	if err != nil {
		return old, err
	}
	if c := t.schema.Col(col); c != nil && !c.Derived {
		t.store.versions[shard].Add(1)
	}
	return old, nil
}

// CommitFixed routes the atomic fixed+derived-clear swap.
func (t *Table) CommitFixed(id int64, col string, v types.Value) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	shard := t.part.Route(types.NewInt(id))
	gen, err := t.reps[shard].CommitFixed(id, col, v)
	if err != nil {
		return gen, err
	}
	t.store.versions[shard].Add(1)
	return gen, nil
}

// WriteDerived routes the gen-guarded derived write-back and its mark. Not a
// commit: the generation vector is untouched.
func (t *Table) WriteDerived(id int64, col string, v types.Value, gen uint64, complete bool) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.route(id).WriteDerived(id, col, v, gen, complete)
}

// Gen returns the tuple's generation from its owning replica.
func (t *Table) Gen(id int64) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.route(id).Gen(id)
}

// Delete routes the delete and counts the commit.
func (t *Table) Delete(id int64) *types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	shard := t.part.Route(types.NewInt(id))
	tu := t.reps[shard].Delete(id)
	if tu != nil {
		t.store.versions[shard].Add(1)
	}
	return tu
}

// Len sums the replicas' live counts.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.reps {
		n += r.Len()
	}
	return n
}

// Tuples returns all live tuples merged across replicas in insertion order.
// Per-replica slabs are sequence-ascending except after a rebalance (moves
// append at the destination's tail), so the merge sorts by Seq — which is
// exactly global insertion order, byte-identical to the unsharded slab.
func (t *Table) Tuples() []*types.Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return mergeTuples(t.reps)
}

// mergeTuples gathers every replica's live tuples and sorts by insertion
// sequence.
func mergeTuples(reps []*storage.Table) []*types.Tuple {
	var out []*types.Tuple
	for _, r := range reps {
		out = append(out, r.Tuples()...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Scan walks the merged insertion order.
func (t *Table) Scan(fn func(*types.Tuple) bool) {
	for _, tu := range t.Tuples() {
		if !fn(tu) {
			return
		}
	}
}

// IDs returns all ids in merged insertion order.
func (t *Table) IDs() []int64 {
	tus := t.Tuples()
	out := make([]int64, len(tus))
	for i, tu := range tus {
		out[i] = tu.ID
	}
	return out
}

// CreateIndex builds the index on every replica.
func (t *Table) CreateIndex(col string) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.reps {
		if err := r.CreateIndex(col); err != nil {
			return err
		}
	}
	return nil
}

// HasIndex reports whether the column is indexed (identically on every
// replica by construction).
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.reps[0].HasIndex(col)
}

// IndexTuples merges the replicas' index lookups in insertion order —
// the same order an unsharded index scan returns.
func (t *Table) IndexTuples(col string, v types.Value) ([]*types.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*types.Tuple
	for _, r := range t.reps {
		tus, ok := r.IndexTuples(col, v)
		if !ok {
			return nil, false
		}
		out = append(out, tus...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, true
}

// splitRange applies a range split and moves re-routed tuples, preserving
// id, generation and sequence.
func (t *Table) splitRange(at int64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rp, ok := t.part.(*RangePartitioner)
	if !ok {
		return 0, fmt.Errorf("shard: %s is not range-partitioned (%s)", t.schema.Name, t.part.Desc())
	}
	next := rp.Clone().(*RangePartitioner)
	next.SplitAt(at)
	moved := 0
	for from, r := range t.reps {
		for _, tu := range r.Tuples() {
			to := next.Route(types.NewInt(tu.ID))
			if to == from {
				continue
			}
			// Move preserves the tuple image verbatim: same id, same Gen (the
			// enrichment gen guard), same Seq (the merged read order). The
			// enrichment manager's state is keyed by (relation, id) — placement
			// is invisible to it.
			if got := r.Delete(tu.ID); got == nil {
				return moved, fmt.Errorf("shard: %s: tuple %d vanished during rebalance", t.schema.Name, tu.ID)
			}
			if _, err := t.reps[to].Insert(tu); err != nil {
				return moved, fmt.Errorf("shard: %s: rebalance reinsert %d: %w", t.schema.Name, tu.ID, err)
			}
			moved++
		}
	}
	t.part = next
	return moved, nil
}
