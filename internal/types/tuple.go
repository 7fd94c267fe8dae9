package types

import (
	"fmt"
	"strings"
)

// Tuple is a stored row of a base relation. ID is the paper's mandatory id
// attribute: every relation carries one so that enrichment state can be keyed
// per tuple. Gen is the tuple's fixed-data generation: storage bumps it every
// time a fixed (non-derived) attribute changes, which invalidates enrichment
// computed from the previous generation's feature vectors (§3.3.5's state
// reset). Derived-attribute writes never change Gen.
//
// Published tuples are immutable: storage replaces the tuple pointer on every
// update (copy-on-write) instead of mutating Vals in place, so a scan's
// snapshot of tuple pointers stays consistent under concurrent writers.
type Tuple struct {
	ID  int64
	Gen uint64
	// Seq is the tuple's insertion sequence number, stamped at insert:
	// per table by unsharded storage, store-wide by sharded storage. Index
	// lookups order their results by it. Each shard's slab is a Seq-ascending
	// run, so a k-way merge of the shards by Seq reproduces the exact
	// unsharded insertion order, independent of where the hash partitioner
	// placed the tuple.
	Seq  uint64
	Vals []Value
	// Enriched is the image's enrichment mark: bit k (catalog.Schema.MarkBit)
	// is set only when the k-th derived column holds the value its complete
	// function family determined at this image's Gen, written in the same
	// copy-on-write swap. An unset bit only means "ask the enrichment state".
	Enriched uint64
}

// Clone returns a deep-enough copy of the tuple: the value slice is copied so
// the clone can be mutated independently. Vector payloads are shared (they
// are immutable by convention).
func (t *Tuple) Clone() *Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return &Tuple{ID: t.ID, Gen: t.Gen, Seq: t.Seq, Vals: vals, Enriched: t.Enriched}
}

// String renders the tuple for debugging.
func (t *Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("#%d(%s)", t.ID, strings.Join(parts, ", "))
}
