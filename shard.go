package enrichdb

import (
	"fmt"

	"enrichdb/internal/shard"
)

// ShardConfig parameterizes OpenSharded.
type ShardConfig struct {
	// Shards is the number of in-process shard replicas every table is
	// hash-partitioned across by tuple id (minimum 1).
	Shards int
}

// OpenSharded creates an empty database whose tables are partitioned across
// cfg.Shards in-process shard replicas. Every query shape works unchanged —
// merged reads reproduce unsharded order exactly (sharded output is
// byte-identical to Open's) — and eligible single-table queries execute
// scatter-gather across the shards in parallel.
func OpenSharded(cfg ShardConfig) (*DB, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("enrichdb: ShardConfig.Shards must be >= 1, got %d", cfg.Shards)
	}
	return newDB(shard.New(shard.Config{Shards: cfg.Shards})), nil
}

// Shards returns the number of shard replicas (1 for an unsharded DB).
func (db *DB) Shards() int {
	if s, ok := db.store.(*shard.Store); ok {
		return s.NumShards()
	}
	return 1
}
