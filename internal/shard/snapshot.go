package shard

import (
	"fmt"

	"enrichdb/internal/catalog"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Snap is a sharded point-in-time Source: one frozen snapshot per replica,
// taken at one cut and merged per relation in insertion-sequence order.
// Sessions execute against the merged views; the scatter-gather executor
// fans out over the per-shard snapshots.
type Snap struct {
	cat    *catalog.Catalog
	shards []storage.Source
	merged map[string]*mergedView
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

// mergedView is the frozen merged Relation over one relation's per-shard
// views. Reads merge the views in insertion-sequence order; derived-value
// writes route to the owning shard's view, which keeps the session-local
// image and performs the gen-guarded write-through to the live replica.
type mergedView struct {
	schema *catalog.Schema
	part   *HashPartitioner
	views  []storage.Relation
}

var _ storage.Relation = (*mergedView)(nil)

// Schema returns the relation's schema.
func (v *mergedView) Schema() *catalog.Schema { return v.schema }

// Len returns the merged tuple count.
func (v *mergedView) Len() int {
	n := 0
	for _, sv := range v.views {
		if sv != nil {
			n += sv.Len()
		}
	}
	return n
}

// view returns the shard view owning the id.
func (v *mergedView) view(id int64) storage.Relation {
	return v.views[v.part.Route(types.NewInt(id))]
}

// Get returns the frozen tuple image (session-local enrichment included).
func (v *mergedView) Get(id int64) *types.Tuple {
	if sv := v.view(id); sv != nil {
		return sv.Get(id)
	}
	return nil
}

// Tuples returns the merged insertion-order snapshot with session-local
// derived writes folded in: each shard view's Tuples already carries its
// writes, and a derived write never changes a tuple's Seq.
func (v *mergedView) Tuples() []*types.Tuple {
	runs := make([][]*types.Tuple, len(v.views))
	for i, sv := range v.views {
		if sv != nil {
			runs[i] = sv.Tuples()
		}
	}
	return mergeRuns(runs, tupleSeq)
}

// WriteDerived routes the derived write and its mark to the owning shard's
// view: they land in the session-local image and, generation-guarded, in the
// live replica.
func (v *mergedView) WriteDerived(id int64, col string, val types.Value, gen uint64, mark bool) (bool, error) {
	sv := v.view(id)
	if sv == nil {
		return false, fmt.Errorf("shard: %s: no view for tuple %d", v.schema.Name, id)
	}
	return sv.WriteDerived(id, col, val, gen, mark)
}
