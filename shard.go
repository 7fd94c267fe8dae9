package enrichdb

import (
	"fmt"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/loose"
	"enrichdb/internal/loose/remote"
	"enrichdb/internal/shard"
	"enrichdb/internal/stats"
)

// HedgeConfig tunes the enrichment fleet's straggler hedging.
type HedgeConfig struct {
	// Delay is how long a sub-batch may straggle before a duplicate is
	// dispatched to a second server (0 = the 25ms default).
	Delay time.Duration
	// Disable turns hedging off (the no-hedge ablation).
	Disable bool
}

// ShardConfig parameterizes OpenSharded.
type ShardConfig struct {
	// Shards is the number of in-process shard replicas every table is
	// partitioned across (minimum 1).
	Shards int
	// Ranges, when non-empty, range-partitions tables by tuple id with these
	// initial split points (rebalance later with SplitShardRange); empty
	// means hash partitioning.
	Ranges []int64
	// FleetAddrs, when non-empty, points the loose design at a fleet of
	// enrichment servers with least-loaded routing, work stealing and
	// hedged requests (equivalent to calling ConnectEnrichmentFleet).
	FleetAddrs []string
	// Hedge tunes the fleet's straggler hedging.
	Hedge HedgeConfig
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
	mgr := enrich.NewManager()
	db := &DB{
		store:        shard.New(shard.Config{Shards: cfg.Shards, Ranges: cfg.Ranges}),
		mgr:          mgr,
		enricher:     &loose.LocalEnricher{Mgr: mgr},
		runtimeStats: stats.NewStore(),
	}
	if len(cfg.FleetAddrs) > 0 {
		if err := db.ConnectEnrichmentFleet(cfg.FleetAddrs, cfg.Hedge); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Shards returns the number of shard replicas (1 for an unsharded DB).
func (db *DB) Shards() int {
	if s, ok := db.store.(*shard.Store); ok {
		return s.NumShards()
	}
	return 1
}

// ShardOf returns the shard currently owning the relation's tuple id (0 for
// an unsharded DB, -1 for unknown relations).
func (db *DB) ShardOf(relation string, id int64) int {
	if s, ok := db.store.(*shard.Store); ok {
		return s.ShardOf(relation, id)
	}
	if _, err := db.store.Table(relation); err != nil {
		return -1
	}
	return 0
}

// ShardVersions returns the per-shard commit generation vector: element i
// counts the commits that landed on shard i. An unsharded DB reports a
// one-element vector equal to Version().
func (db *DB) ShardVersions() []uint64 {
	if s, ok := db.store.(*shard.Store); ok {
		return s.Versions()
	}
	return []uint64{db.version.Load()}
}

// ShardVersions returns the generation vector the session's snapshot was
// stamped with, frozen atomically with the views: per-shard commit counters
// as of the snapshot. Two sessions with equal vectors see identical
// committed data, which is what keeps cross-session enrichment sharing
// gen-safe under sharding — a vector component that advanced names exactly
// the shard whose commits one session is missing.
func (s *Session) ShardVersions() []uint64 {
	if sn, ok := s.snap.(interface{ Versions() []uint64 }); ok {
		return sn.Versions()
	}
	return []uint64{s.version}
}

// SplitShardRange rebalances a range-partitioned relation: the id range
// containing `at` splits at that boundary and re-routed tuples move to
// their new replica, preserving ids, generations and insertion sequence —
// query answers, enrichment state and gen guards are all unaffected by the
// move. The split is a commit (it serializes with the write path and bumps
// the version), so concurrent sessions keep their pre-split snapshots.
// Returns the number of tuples moved.
func (db *DB) SplitShardRange(relation string, at int64) (int, error) {
	s, ok := db.store.(*shard.Store)
	if !ok {
		return 0, fmt.Errorf("enrichdb: SplitShardRange requires a sharded database (OpenSharded)")
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	moved, err := s.SplitRange(relation, at)
	if err != nil {
		return moved, err
	}
	db.version.Add(1)
	db.Telemetry().Counter("shard.rebalances").Add(1)
	db.Telemetry().Counter("shard.rebalance_moves").Add(int64(moved))
	return moved, nil
}

// ConnectEnrichmentFleet points the loose design at a fleet of enrichment
// servers: sub-batches route to the least-loaded server, idle servers steal
// queued work, and sub-batches straggling past the hedge delay are
// duplicated to a second server with first-response-wins (shard.hedge_*
// telemetry). A server failure fails over to the rest of the fleet; only
// when every server is down do the affected requests degrade to
// NULL-on-failure. Works on sharded and unsharded databases alike.
func (db *DB) ConnectEnrichmentFleet(addrs []string, hedge HedgeConfig) error {
	delay := hedge.Delay
	if hedge.Disable {
		delay = -1
	}
	fleet, err := shard.DialFleet(addrs, shard.FleetOptions{
		HedgeDelay: delay,
		Telemetry:  db.mgr.Telemetry(),
	})
	if err != nil {
		return err
	}
	db.closeEnricher()
	db.enricher = fleet
	return nil
}

// closeEnricher releases the current enricher's transport, if it has one.
func (db *DB) closeEnricher() {
	switch e := db.enricher.(type) {
	case *remote.Client:
		e.Close()
	case *shard.Fleet:
		e.Close()
	}
}
