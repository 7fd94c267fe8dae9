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
	// hash-partitioned across by tuple id (minimum 1).
	Shards int
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
		store:        shard.New(shard.Config{Shards: cfg.Shards}),
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
