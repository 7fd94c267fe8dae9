// Package shard partitions slab tables across N in-process shard replicas
// and fans query execution out over them: a hash partitioner places each
// tuple by id, once and for good, a scatter-gather executor runs the
// existing plan shape per shard, and one k-way merge (merge.go) restores
// insertion-sequence order (byte-identical to unsharded output).
package shard

import (
	"enrichdb/internal/types"
)

// HashPartitioner maps a partition-key value to a shard in [0, N) by the
// shared types.Hasher, so key normalization (-0.0 folding, kind tagging) is
// identical to the engine's hash join keys by construction.
// Routing is total: every value, including NULL, NaN and -0.0, lands on
// exactly one shard, and values that compare key-equal (types.KeyEqual)
// route identically.
type HashPartitioner struct {
	N int
}

// NewHashPartitioner returns a hash partitioner over n shards.
func NewHashPartitioner(n int) *HashPartitioner {
	if n < 1 {
		n = 1
	}
	return &HashPartitioner{N: n}
}

// Route hashes the key and reduces it modulo the shard count.
func (h *HashPartitioner) Route(key types.Value) int {
	return int(types.HashValue(key) % uint64(h.N))
}
