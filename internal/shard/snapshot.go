package shard

import (
	"fmt"
	"sync"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
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
// views. Scans read the views merged in insertion-sequence order into
// chunks, built on the first scan and kept, vectors included, since the
// views are frozen; derived-value writes route to the owning shard's view,
// which keeps the session-local image and performs the gen-guarded
// write-through to the live replica, and drop the merged chunks.
type mergedView struct {
	schema *catalog.Schema
	part   *HashPartitioner
	views  []storage.Relation

	mu     sync.Mutex
	chunks []*expr.Chunk // the merged chunks once built; nil after a write
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

// ChunksInto appends the merged chunks into buf[:0], with session-local
// derived writes folded in: each shard view's chunks already carry its
// writes, and a derived write never changes a tuple's Seq.
func (v *mergedView) ChunksInto(buf []*expr.Chunk) []*expr.Chunk {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.chunks == nil {
		v.chunks = mergeChunks(len(v.schema.Cols), v.views)
	}
	return append(buf[:0], v.chunks...)
}

// WriteDerived routes the derived write and its mark to the owning shard's
// view: they land in the session-local image and, generation-guarded, in the
// live replica.
func (v *mergedView) WriteDerived(id int64, col string, val types.Value, gen uint64, mark bool) (bool, error) {
	sv := v.view(id)
	if sv == nil {
		return false, fmt.Errorf("shard: %s: no view for tuple %d", v.schema.Name, id)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.chunks = nil
	return sv.WriteDerived(id, col, val, gen, mark)
}
