// Package expr implements the expression model used everywhere above
// storage: typed expression trees with SQL three-valued logic, conversion to
// conjunctive normal form (CNF), classification of conditions as fixed vs.
// derived (the paper's §2.1 Step 0), and the UDF hooks used by the tight
// design's rewritten queries (§2.2, §3.3.3).
package expr

import (
	"fmt"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// TableSlot is one base-relation occurrence inside a row schema. Self-joins
// (e.g. query Q4's TweetData T1, TweetData T2) produce two slots over the
// same relation with distinct aliases.
type TableSlot struct {
	Alias    string
	Relation string
	Schema   *catalog.Schema
	ColStart int // index of this slot's first column in RowSchema.Cols
}

// ColInfo describes one column of a row flowing through the executor.
type ColInfo struct {
	Alias   string // owning table alias
	Name    string
	Kind    types.Kind
	Derived bool
	Slot    int // index into RowSchema.Slots
}

// RowSchema describes the shape of rows produced by a plan node: the ordered
// base-relation slots and the flattened column list.
type RowSchema struct {
	Slots []TableSlot
	Cols  []ColInfo
}

// SchemaForTable builds the row schema of a base-table scan.
func SchemaForTable(alias string, s *catalog.Schema) *RowSchema {
	if alias == "" {
		alias = s.Name
	}
	rs := &RowSchema{
		Slots: []TableSlot{{Alias: alias, Relation: s.Name, Schema: s, ColStart: 0}},
		Cols:  make([]ColInfo, len(s.Cols)),
	}
	for i, c := range s.Cols {
		rs.Cols[i] = ColInfo{Alias: alias, Name: c.Name, Kind: c.Kind, Derived: c.Derived, Slot: 0}
	}
	return rs
}

// Concat combines two row schemas, as produced by a join. Alias collisions
// are rejected at plan-build time, not here.
func Concat(a, b *RowSchema) *RowSchema {
	rs := &RowSchema{
		Slots: make([]TableSlot, 0, len(a.Slots)+len(b.Slots)),
		Cols:  make([]ColInfo, 0, len(a.Cols)+len(b.Cols)),
	}
	rs.Slots = append(rs.Slots, a.Slots...)
	rs.Cols = append(rs.Cols, a.Cols...)
	base := len(a.Slots)
	for _, sl := range b.Slots {
		sl.ColStart += len(a.Cols)
		rs.Slots = append(rs.Slots, sl)
	}
	for _, c := range b.Cols {
		c.Slot += base
		rs.Cols = append(rs.Cols, c)
	}
	return rs
}

// Lookup resolves a possibly-qualified column reference to its index in
// Cols. An empty alias matches any slot but the name must then be unique
// across the whole row.
func (rs *RowSchema) Lookup(alias, name string) (int, error) {
	found := -1
	for i, c := range rs.Cols {
		if c.Name != name {
			continue
		}
		if alias != "" && c.Alias != alias {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("expr: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if alias != "" {
			return -1, fmt.Errorf("expr: unknown column %s.%s", alias, name)
		}
		return -1, fmt.Errorf("expr: unknown column %s", name)
	}
	return found, nil
}

// SlotByAlias returns the index of the slot with the given alias, or -1.
func (rs *RowSchema) SlotByAlias(alias string) int {
	for i, s := range rs.Slots {
		if s.Alias == alias {
			return i
		}
	}
	return -1
}

// Row is a tuple flowing through the executor: values for every column of
// the row schema plus, per table slot, the base-table tuple id. Tuple ids are
// what the tight design's UDFs key enrichment state on.
type Row struct {
	Schema *RowSchema
	Vals   []types.Value
	TIDs   []int64 // parallel to Schema.Slots
}

// JoinRows concatenates two rows under a combined schema.
func JoinRows(rs *RowSchema, a, b *Row) *Row {
	vals := make([]types.Value, 0, len(a.Vals)+len(b.Vals))
	vals = append(vals, a.Vals...)
	vals = append(vals, b.Vals...)
	tids := make([]int64, 0, len(a.TIDs)+len(b.TIDs))
	tids = append(tids, a.TIDs...)
	tids = append(tids, b.TIDs...)
	return &Row{Schema: rs, Vals: vals, TIDs: tids}
}

// RowFromTuple wraps a stored tuple as an executor row under a single-slot
// schema.
func RowFromTuple(rs *RowSchema, t *types.Tuple) *Row {
	return &Row{Schema: rs, Vals: t.Vals, TIDs: []int64{t.ID}}
}

// Clone copies the row's value slice so the copy may be mutated.
func (r *Row) Clone() *Row {
	vals := make([]types.Value, len(r.Vals))
	copy(vals, r.Vals)
	tids := make([]int64, len(r.TIDs))
	copy(tids, r.TIDs)
	return &Row{Schema: r.Schema, Vals: vals, TIDs: tids}
}

// IdentityHash hashes the row's identity — its values, then its tuple ids —
// through the shared types.Hasher. Rows with the same identity (SameIdentity)
// hash equal; callers bucket by the hash and confirm with SameIdentity.
func (r *Row) IdentityHash() uint64 {
	h := types.NewHasher()
	for _, v := range r.Vals {
		h.WriteValue(v)
	}
	h.Fold('#')
	for _, tid := range r.TIDs {
		h.WriteUint64(uint64(tid))
	}
	return h.Sum64()
}

// SameIdentity is exact row identity: equal values (by key semantics, so
// NULL matches NULL) and equal tuple-id provenance.
func (r *Row) SameIdentity(o *Row) bool {
	if len(r.Vals) != len(o.Vals) || len(r.TIDs) != len(o.TIDs) {
		return false
	}
	for i := range r.Vals {
		if !types.KeyEqual(r.Vals[i], o.Vals[i]) {
			return false
		}
	}
	for i := range r.TIDs {
		if r.TIDs[i] != o.TIDs[i] {
			return false
		}
	}
	return true
}

// Key builds a composite hash key over the given column indexes.
func (r *Row) Key(idxs []int) string {
	s := ""
	for _, i := range idxs {
		s += r.Vals[i].Key() + "|"
	}
	return s
}
