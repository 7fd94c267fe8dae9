package storage

import (
	"fmt"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// Relation is the surface query execution reads and enriches through: the
// live *Table, or a session's frozen *TableView. Reads return immutable
// tuples (storage is copy-on-write); WriteDerived is the one enrichment
// write-back — a derived value plus its enrichment mark, generation-guarded,
// and written through to the live table from a view. Its one caller above
// storage is enrich.Manager.WriteBack, which determinizes the value and
// decides the mark.
type Relation interface {
	Schema() *catalog.Schema
	Len() int
	Get(id int64) *types.Tuple
	Scan(fn func(*types.Tuple) bool)
	Tuples() []*types.Tuple
	IDs() []int64
	HasIndex(col string) bool
	IndexTuples(col string, v types.Value) ([]*types.Tuple, bool)
	WriteDerived(id int64, col string, v types.Value, gen uint64, mark bool) (bool, error)
}

var (
	_ Relation = (*Table)(nil)
	_ Relation = (*TableView)(nil)
)

// Source resolves relation names for query execution: the live *DB or a
// point-in-time *Snapshot. Everything above storage (engine, probe
// generation, the design drivers) executes against this interface, so one
// code path serves both live and snapshot-isolated queries.
type Source interface {
	Catalog() *catalog.Catalog
	Table(name string) (Relation, error)
}

var (
	_ Source = (*DB)(nil)
	_ Source = (*Snapshot)(nil)
)

// BaseTable is the mutable surface of a stored base relation: everything the
// commit path and the enrichment write-back need beyond Relation. The live
// *Table satisfies it directly; a sharded table facade satisfies it by
// routing each call to the owning shard replica.
type BaseTable interface {
	Relation
	Insert(tu *types.Tuple) (int64, error)
	Delete(id int64) *types.Tuple
	Update(id int64, col string, v types.Value) (types.Value, error)
	CommitFixed(id int64, col string, v types.Value) (uint64, error)
	Gen(id int64) uint64
	CreateIndex(col string) error
}

var _ BaseTable = (*Table)(nil)

// Store is the full storage surface the database layer commits through: name
// resolution for reads (Source) plus base-table access for writes, DDL,
// aggregate stats, and point-in-time freezing. The single-node *DB and a
// sharded store both satisfy it, so everything above storage is
// placement-agnostic.
type Store interface {
	Source
	// BaseTable resolves the named mutable base relation (a *Table, or a
	// sharded facade over N of them).
	BaseTable(name string) (BaseTable, error)
	// CreateBase registers the schema and allocates its base relation.
	CreateBase(s *catalog.Schema) (BaseTable, error)
	// Freeze returns a consistent point-in-time Source over every relation.
	Freeze() Source
	// Stats aggregates the storage counters of every table (and, for a
	// sharded store, every shard replica).
	Stats() TableStats
}

var _ Store = (*DB)(nil)

// DB groups the catalog and the stored tables of one database instance. The
// tables map is guarded so table creation can race query execution; the
// tables themselves carry their own locks.
type DB struct {
	cat *catalog.Catalog

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database with an empty catalog.
func NewDB() *DB {
	return &DB{cat: catalog.New(), tables: make(map[string]*Table)}
}

// Catalog returns the database's catalog.
func (d *DB) Catalog() *catalog.Catalog { return d.cat }

// CreateTable registers the schema and allocates its table.
func (d *DB) CreateTable(s *catalog.Schema) (*Table, error) {
	if err := d.cat.Add(s); err != nil {
		return nil, err
	}
	t := NewTable(s)
	d.mu.Lock()
	d.tables[s.Name] = t
	d.mu.Unlock()
	return t, nil
}

// Table returns the named table as a Relation, or an error for unknown
// relations. Callers needing the concrete table (insert/delete/index
// maintenance) use Base.
func (d *DB) Table(name string) (Relation, error) {
	return d.Base(name)
}

// Base returns the named concrete table, or an error for unknown relations.
func (d *DB) Base(name string) (*Table, error) {
	d.mu.RLock()
	t, ok := d.tables[name]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %s", name)
	}
	return t, nil
}

// BaseTable returns the named table as a BaseTable; the Store interface's
// view of Base (Go method sets forbid covariant returns, so the interface
// needs its own name).
func (d *DB) BaseTable(name string) (BaseTable, error) {
	return d.Base(name)
}

// CreateBase is CreateTable under the Store interface.
func (d *DB) CreateBase(s *catalog.Schema) (BaseTable, error) {
	return d.CreateTable(s)
}

// Freeze is Snapshot under the Store interface.
func (d *DB) Freeze() Source {
	return d.Snapshot()
}

// Stats aggregates the storage counters of every table; the progressive
// executor publishes them as storage.* telemetry gauges.
func (d *DB) Stats() TableStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var s TableStats
	for _, t := range d.tables {
		ts := t.Stats()
		s.Inserts += ts.Inserts
		s.Deletes += ts.Deletes
		s.Updates += ts.Updates
		s.Compactions += ts.Compactions
		s.Live += ts.Live
		s.Tombstones += ts.Tombstones
		s.Indexes += ts.Indexes
	}
	return s
}

// MustTable is Base that panics; for callers that already validated names
// against the catalog.
func (d *DB) MustTable(name string) *Table {
	t, err := d.Base(name)
	if err != nil {
		panic(err)
	}
	return t
}
