package harness

import (
	"testing"
	"time"
)

// TestRunSharded runs the full workload on a hash-partitioned 4-shard store:
// both oracles must hold exactly as they do unsharded.
func TestRunSharded(t *testing.T) {
	rep, err := Run(Config{Seed: 11, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", rep.Shards)
	}
	if rep.Replayed == 0 {
		t.Fatal("replay oracle verified nothing")
	}
}

// TestRunShardedSeeds sweeps seeds over shard counts like TestRunSeeds does
// unsharded.
func TestRunShardedSeeds(t *testing.T) {
	for _, shards := range []int{2, 8} {
		shards := shards
		t.Run(map[int]string{2: "shards=2", 8: "shards=8"}[shards], func(t *testing.T) {
			t.Parallel()
			if _, err := Run(Config{Seed: 21 + int64(shards), Shards: shards}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunFleet drives loose enrichment through a 3-server fleet with no
// faults: nothing may degrade, and the oracles hold.
func TestRunFleet(t *testing.T) {
	rep, err := Run(Config{Seed: 41, Shards: 2, Fleet: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != 0 {
		t.Fatalf("%d loose queries degraded with a healthy fleet", rep.Degraded)
	}
}

// TestRunFleetSlowServer is the "one shard's enrichment server is 10×
// slower" fault plan: pure latency on server 0, which hedging must absorb —
// a slow server is not an excuse for a failed enrichment or a broken oracle.
func TestRunFleetSlowServer(t *testing.T) {
	rep, err := Run(Config{Seed: 51, Shards: 2, Fleet: 2, SlowServer: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != 0 {
		t.Fatalf("%d loose queries degraded under pure latency (hedging should absorb it)", rep.Degraded)
	}
}

// TestRunFleetKill kills one of two fleet servers mid-run: the fleet fails
// over to the survivor, so queries keep answering; degraded answers are
// tolerated (and counted) but the oracles must still hold on everything
// recorded.
func TestRunFleetKill(t *testing.T) {
	rep, err := Run(Config{Seed: 61, Shards: 2, Fleet: 2, KillServer: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed == 0 {
		t.Fatal("replay oracle verified nothing")
	}
	t.Logf("kill plan: %d degraded loose queries (failover tolerated them)", rep.Degraded)
}

// TestRunFleetKillOnly kills the only fleet server: every subsequent loose
// enrichment degrades to NULL-on-failure. The run must survive — degraded
// answers are counted, never recorded, and never fail an oracle.
func TestRunFleetKillOnly(t *testing.T) {
	rep, err := Run(Config{Seed: 71, Fleet: 1, KillServer: true,
		QueriesPerSession: 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total-failure plan: %d degraded loose queries", rep.Degraded)
}

// TestRunFullChaos combines every fault plan on a sharded store under load:
// a fleet with one slow server and one killed mid-run.
func TestRunFullChaos(t *testing.T) {
	_, err := Run(Config{
		Seed:       81,
		Shards:     4,
		Fleet:      3,
		SlowServer: 10 * time.Millisecond,
		KillServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}
