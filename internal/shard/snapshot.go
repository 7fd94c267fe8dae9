package shard

import (
	"fmt"
	"sort"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Snap is a sharded point-in-time Source: one frozen snapshot per replica,
// merged per relation in insertion-sequence order, stamped with the
// per-shard generation vector taken at the same cut. Sessions execute
// against the merged views; the scatter-gather executor fans out over the
// per-shard snapshots.
type Snap struct {
	cat      *catalog.Catalog
	shards   []storage.Source
	merged   map[string]*mergedView
	versions []uint64
}

var _ storage.Source = (*Snap)(nil)

// Catalog returns the catalog at freeze time.
func (s *Snap) Catalog() *catalog.Catalog { return s.cat }

// Table resolves the merged frozen view of the relation.
func (s *Snap) Table(name string) (storage.Relation, error) {
	v, ok := s.merged[name]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %s", name)
	}
	return v, nil
}

// NumShards returns the replica count.
func (s *Snap) NumShards() int { return len(s.shards) }

// ShardSource returns shard i's frozen snapshot.
func (s *Snap) ShardSource(i int) storage.Source { return s.shards[i] }

// Versions returns the generation vector the snapshot was stamped with:
// per-shard commit counters, frozen atomically with the views. Two
// snapshots with equal vectors saw identical committed data, so
// cross-session enrichment sharing between them is trivially gen-safe; a
// component that advanced pinpoints the shard whose commits the older
// snapshot is missing.
func (s *Snap) Versions() []uint64 {
	return append([]uint64(nil), s.versions...)
}

// mergedView is the frozen merged Relation over one relation's per-shard
// views. Reads merge in insertion-sequence order (computed once — the views
// are immutable); derived-value writes route to the owning shard's view,
// which keeps the session-local image and performs the gen-guarded
// write-through to the live replica.
type mergedView struct {
	schema *catalog.Schema
	part   Partitioner // routing as of freeze time
	views  []storage.Relation

	once   sync.Once
	tuples []*types.Tuple
}

var _ storage.Relation = (*mergedView)(nil)

// Schema returns the relation's schema.
func (v *mergedView) Schema() *catalog.Schema { return v.schema }

// all returns the merged tuple order, computed once.
func (v *mergedView) all() []*types.Tuple {
	v.once.Do(func() {
		for _, sv := range v.views {
			if sv != nil {
				v.tuples = append(v.tuples, sv.Tuples()...)
			}
		}
		sort.Slice(v.tuples, func(a, b int) bool { return v.tuples[a].Seq < v.tuples[b].Seq })
	})
	return v.tuples
}

// Len returns the merged tuple count.
func (v *mergedView) Len() int { return len(v.all()) }

// view returns the shard view owning the id at freeze time.
func (v *mergedView) view(id int64) storage.Relation {
	sv := v.views[v.part.Route(types.NewInt(id))]
	return sv
}

// Get returns the frozen tuple image (session-local enrichment included).
func (v *mergedView) Get(id int64) *types.Tuple {
	if sv := v.view(id); sv != nil {
		return sv.Get(id)
	}
	return nil
}

// Scan walks the merged insertion order. Note: like the unsharded
// TableView, scans read the frozen base images; Get reflects session-local
// derived writes.
func (v *mergedView) Scan(fn func(*types.Tuple) bool) {
	for _, tu := range v.all() {
		if sv := v.view(tu.ID); sv != nil {
			if cur := sv.Get(tu.ID); cur != nil {
				tu = cur
			}
		}
		if !fn(tu) {
			return
		}
	}
}

// Tuples returns the merged insertion-order snapshot, with session-local
// derived writes folded in (matching TableView.Tuples semantics).
func (v *mergedView) Tuples() []*types.Tuple {
	base := v.all()
	out := make([]*types.Tuple, len(base))
	for i, tu := range base {
		out[i] = tu
		if sv := v.view(tu.ID); sv != nil {
			if cur := sv.Get(tu.ID); cur != nil {
				out[i] = cur
			}
		}
	}
	return out
}

// IDs returns the merged insertion-order ids.
func (v *mergedView) IDs() []int64 {
	base := v.all()
	out := make([]int64, len(base))
	for i, tu := range base {
		out[i] = tu.ID
	}
	return out
}

// HasIndex mirrors the unsharded TableView: frozen views answer no index
// lookups, so sharded and unsharded sessions build identical plans.
func (v *mergedView) HasIndex(string) bool { return false }

// IndexTuples reports no index, like TableView.
func (v *mergedView) IndexTuples(string, types.Value) ([]*types.Tuple, bool) {
	return nil, false
}

// WriteDerived routes the derived write and its mark to the owning shard's
// view: they land in the session-local image and, generation-guarded, in the
// live replica. A tuple rebalanced to another shard after the freeze simply
// misses the live write-through (its old replica no longer holds it) —
// conservative, never stale.
func (v *mergedView) WriteDerived(id int64, col string, val types.Value, gen uint64, mark bool) (bool, error) {
	sv := v.view(id)
	if sv == nil {
		return false, fmt.Errorf("shard: %s: no view for tuple %d", v.schema.Name, id)
	}
	return sv.WriteDerived(id, col, val, gen, mark)
}
