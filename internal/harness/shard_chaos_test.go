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

// remoteRun runs cfg with the loose design on one enrichment server and
// checks that the remote path ran: the server executed at least one batch.
func remoteRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	cfg.Remote = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerBatches == 0 {
		t.Fatal("remote.server.batches = 0: no loose enrichment reached the server")
	}
	return rep
}

// TestRunRemote drives loose enrichment through one enrichment server with
// no faults: nothing may degrade, and the oracles hold.
func TestRunRemote(t *testing.T) {
	rep := remoteRun(t, Config{Seed: 41, Shards: 2})
	if rep.Degraded != 0 {
		t.Fatalf("%d loose queries degraded with a healthy server", rep.Degraded)
	}
}

// TestRunRemoteSlowServer adds 20ms to every server batch: pure latency,
// well inside the client's call deadline — a slow server is not an excuse
// for a failed enrichment or a broken oracle.
func TestRunRemoteSlowServer(t *testing.T) {
	rep := remoteRun(t, Config{Seed: 51, Shards: 2, SlowServer: 20 * time.Millisecond})
	if rep.Degraded != 0 {
		t.Fatalf("%d loose queries degraded under pure latency", rep.Degraded)
	}
}

// TestRunRemoteKill kills the server mid-run on a sharded store: queries
// keep answering, degraded answers are counted, never recorded, and the
// oracles must still hold on everything recorded.
func TestRunRemoteKill(t *testing.T) {
	rep := remoteRun(t, Config{Seed: 61, Shards: 2, KillServer: true})
	if rep.Replayed == 0 {
		t.Fatal("replay oracle verified nothing")
	}
	if rep.Degraded == 0 {
		t.Fatal("no loose query degraded: none ran against the killed server")
	}
	t.Logf("kill plan: %d degraded loose queries, %d server batches", rep.Degraded, rep.ServerBatches)
}

// TestRunRemoteKillOnly makes the kill the only fault on an unsharded
// store: every loose enrichment after it degrades to NULL-on-failure, and
// at least one loose query must meet the dead server.
func TestRunRemoteKillOnly(t *testing.T) {
	rep := remoteRun(t, Config{Seed: 71, KillServer: true, QueriesPerSession: 12})
	if rep.Degraded == 0 {
		t.Fatal("no loose query degraded: none ran against the killed server")
	}
	t.Logf("kill plan: %d degraded loose queries, %d server batches", rep.Degraded, rep.ServerBatches)
}

// TestRunFullChaos combines every fault plan on a sharded store under load:
// a slow server, killed mid-run.
func TestRunFullChaos(t *testing.T) {
	remoteRun(t, Config{
		Seed:       81,
		Shards:     4,
		SlowServer: 10 * time.Millisecond,
		KillServer: true,
	})
}
