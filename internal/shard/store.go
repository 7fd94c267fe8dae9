package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Config parameterizes a sharded store.
type Config struct {
	// Shards is the number of in-process shard replicas (min 1).
	Shards int
}

// Store is a sharded storage.Store: every table is hash-partitioned by tuple
// id across N in-process *storage.DB replicas. A tuple's shard is a fixed
// function of its id. Reads merge the replicas in global insertion-sequence
// order, so every plan shape — scans, joins, aggregates, IVM deltas — sees
// exactly the sequence an unsharded table would produce; writes route to the
// owning replica.
type Store struct {
	dbs  []*storage.DB
	part *HashPartitioner

	mu     sync.RWMutex
	tables map[string]*Table

	seq atomic.Uint64 // global insertion sequence across all tables
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
		dbs:    dbs,
		part:   NewHashPartitioner(cfg.Shards),
		tables: make(map[string]*Table),
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
	tbl := &Table{store: s, schema: sc, reps: reps, nextID: 1}
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
	}
	return out
}

// Freeze snapshots every replica and returns a merged point-in-time Source.
// The caller serializes Freeze against commits (enrichdb holds its commit
// lock), so the per-replica views are one consistent cut.
func (s *Store) Freeze() storage.Source {
	s.mu.RLock()
	tables := make(map[string]*Table, len(s.tables))
	for k, v := range s.tables {
		tables[k] = v
	}
	s.mu.RUnlock()
	sn := &Snap{
		cat:    s.Catalog(),
		shards: make([]storage.Source, len(s.dbs)),
		merged: make(map[string]*mergedView, len(tables)),
	}
	for i, db := range s.dbs {
		sn.shards[i] = db.Snapshot()
	}
	for name, t := range tables {
		views := make([]storage.Relation, len(sn.shards))
		for i := range sn.shards {
			v, err := sn.shards[i].Table(name)
			if err != nil {
				continue
			}
			views[i] = v
		}
		sn.merged[name] = &mergedView{schema: t.schema, part: s.part, views: views}
	}
	return sn
}

// Table is the sharded facade of one relation: a storage.BaseTable that
// routes single-id operations to the owning replica and merges full reads
// across replicas in insertion-sequence order. The facade lock orders
// merged reads against Insert, which stamps Seq and appends under it;
// routed operations need only the replicas' own locks, since a tuple's
// replica never changes.
type Table struct {
	store  *Store
	schema *catalog.Schema
	reps   []*storage.Table

	mu     sync.RWMutex
	nextID int64
}

var _ storage.BaseTable = (*Table)(nil)

// Schema returns the relation's schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// route returns the replica owning the id.
func (t *Table) route(id int64) *storage.Table {
	return t.reps[t.store.part.Route(types.NewInt(id))]
}

// Insert routes the tuple to its owning replica, mirroring the unsharded
// auto-id contract (zero id assigns the next id; explicit ids advance it),
// and stamps the next store-wide insertion sequence over any the tuple
// carried: every insert, re-inserts included, is a new arrival at the tail
// of its replica's Seq-ascending run.
func (t *Table) Insert(tu *types.Tuple) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tu.ID == 0 {
		tu.ID = t.nextID
	}
	if tu.ID >= t.nextID {
		t.nextID = tu.ID + 1
	}
	tu.Seq = t.store.seq.Add(1)
	return t.route(tu.ID).Insert(tu)
}

// Get returns the tuple by id from its owning replica.
func (t *Table) Get(id int64) *types.Tuple { return t.route(id).Get(id) }

// CommitFixed routes the atomic fixed+derived-clear swap.
func (t *Table) CommitFixed(id int64, col string, v types.Value) (uint64, error) {
	return t.route(id).CommitFixed(id, col, v)
}

// WriteDerived routes the gen-guarded derived write-back and its mark.
func (t *Table) WriteDerived(id int64, col string, v types.Value, gen uint64, mark bool) (bool, error) {
	return t.route(id).WriteDerived(id, col, v, gen, mark)
}

// Gen returns the tuple's generation from its owning replica.
func (t *Table) Gen(id int64) uint64 { return t.route(id).Gen(id) }

// Delete routes the delete.
func (t *Table) Delete(id int64) *types.Tuple { return t.route(id).Delete(id) }

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

// ChunksInto appends all live tuples merged across replicas in insertion
// order into buf[:0], as new chunks, byte-identical to the unsharded table's.
func (t *Table) ChunksInto(buf []*expr.Chunk) []*expr.Chunk {
	t.mu.RLock()
	defer t.mu.RUnlock()
	reps := make([]storage.Relation, len(t.reps))
	for i, r := range t.reps {
		reps[i] = r
	}
	return append(buf[:0], mergeChunks(len(t.schema.Cols), reps)...)
}
