package enrichdb

import (
	"encoding/gob"
	"fmt"
	"io"

	"enrichdb/internal/enrich"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// snapshot is the gob wire format of a database's data and enrichment state.
// Models are code, not data: enrichment functions are re-registered by the
// application before loading.
type snapshot struct {
	Version   int
	Relations []relationSnapshot
}

type relationSnapshot struct {
	Name    string
	Columns []string // schema fingerprint: column names in order
	Tuples  []tupleSnapshot
	State   []enrich.StateRecord
}

type tupleSnapshot struct {
	ID   int64
	Vals []types.Value
}

const snapshotVersion = 1

// SaveSnapshot serializes every relation's tuples and enrichment state. The
// stream does not contain schemas or models: a loading process recreates the
// relations and re-registers the enrichment functions first, then calls
// LoadSnapshot — after which all previously performed enrichment work is
// available (nothing re-executes).
//
// The save is a consistent cut: it holds the commit lock, so no insert,
// fixed-attribute update or delete lands mid-stream and every exported state
// record belongs to the tuple image exported next to it. Concurrent
// query-time enrichment keeps running — its writes are additive within the
// current tuple generations (state first, then the base-table value), so the
// worst skew is a snapshot that knows an output in the state table before
// the determined value reached the base table, which LoadSnapshot resolves
// in the state's favor. Tuple generations themselves are not persisted: a
// loaded database starts every tuple at generation zero with its imported
// state keyed the same way, which is exactly consistent.
func (db *DB) SaveSnapshot(w io.Writer) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	snap := snapshot{Version: snapshotVersion}
	for _, rel := range db.store.Catalog().Relations() {
		tbl, err := db.store.BaseTable(rel)
		if err != nil {
			return err
		}
		schema := tbl.Schema()
		rs := relationSnapshot{Name: rel}
		for _, c := range schema.Cols {
			rs.Columns = append(rs.Columns, c.Name)
		}
		for _, tu := range storage.Tuples(tbl) {
			vals := make([]types.Value, len(tu.Vals))
			copy(vals, tu.Vals)
			rs.Tuples = append(rs.Tuples, tupleSnapshot{ID: tu.ID, Vals: vals})
		}
		if st := db.mgr.StateTable(rel); st != nil {
			rs.State = st.Export()
		}
		snap.Relations = append(snap.Relations, rs)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadSnapshot restores tuples and enrichment state into this database.
// Preconditions: the relations exist with matching column lists (created via
// CreateRelation), the tables are empty, and the enrichment families are
// already registered (state import validates attribute and function ids
// against them).
func (db *DB) LoadSnapshot(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("enrichdb: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("enrichdb: snapshot version %d not supported", snap.Version)
	}
	for _, rs := range snap.Relations {
		tbl, err := db.store.Table(rs.Name)
		if err != nil {
			return fmt.Errorf("enrichdb: snapshot relation %s not created: %w", rs.Name, err)
		}
		schema := tbl.Schema()
		if len(schema.Cols) != len(rs.Columns) {
			return fmt.Errorf("enrichdb: %s: schema has %d columns, snapshot %d",
				rs.Name, len(schema.Cols), len(rs.Columns))
		}
		for i, name := range rs.Columns {
			if schema.Cols[i].Name != name {
				return fmt.Errorf("enrichdb: %s: column %d is %s, snapshot has %s",
					rs.Name, i, schema.Cols[i].Name, name)
			}
		}
		if tbl.Len() != 0 {
			return fmt.Errorf("enrichdb: %s: table not empty", rs.Name)
		}
		for _, tu := range rs.Tuples {
			if _, err := db.Insert(rs.Name, tu.ID, tu.Vals...); err != nil {
				return fmt.Errorf("enrichdb: %s: restore tuple %d: %w", rs.Name, tu.ID, err)
			}
		}
		if len(rs.State) > 0 {
			st := db.mgr.StateTable(rs.Name)
			if st == nil {
				return fmt.Errorf("enrichdb: %s: snapshot carries enrichment state but no families are registered", rs.Name)
			}
			if err := st.Import(rs.State); err != nil {
				return err
			}
		}
		// Restored images carry no enrichment mark: write back every
		// attribute the imported state completed, which determinizes from
		// the state (running nothing) and sets the mark.
		var slots []enrich.WriteBackSlot
		for _, tu := range storage.Tuples(tbl) {
			for _, attr := range schema.DerivedCols() {
				if db.mgr.FullyEnriched(rs.Name, tu.ID, attr, tu.Gen) {
					slots = append(slots, enrich.WriteBackSlot{Tuple: tu, Attr: attr})
				}
			}
		}
		if err := db.mgr.WriteBack(tbl, slots); err != nil {
			return fmt.Errorf("enrichdb: %s: mark restored tuples: %w", rs.Name, err)
		}
	}
	return nil
}
