package bench

// BenchmarkShardScan backs BENCH_shard.json (`make bench-shard`). It
// measures scatter-gather scan scaling: the same filter scan over the same
// rows on 1/2/4/8 shard replicas through the public query path, merged back
// to byte-identical unsharded order. On a multi-core host the per-shard
// scans run in parallel; on a single-core host the series instead measures
// the scatter overhead (per-shard planning + merge), which is the honest
// number there.

import (
	"fmt"
	"testing"

	"enrichdb"
)

const (
	shardScanRows = 100_000
	shardScanSQL  = "SELECT id, v FROM R WHERE v < 1000"
)

func shardScanDB(b *testing.B, shards int) *enrichdb.DB {
	b.Helper()
	db, err := enrichdb.OpenSharded(enrichdb.ShardConfig{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateRelation("R", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "v", Kind: enrichdb.KindInt},
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < shardScanRows; i++ {
		// v = i, so the `v < 1000` predicate keeps exactly 1% of rows.
		if _, err := db.Insert("R", int64(i+1),
			enrichdb.Int(int64(i+1)), enrichdb.Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkShardScan(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := shardScanDB(b, shards)
			defer db.Close()
			// Warm-up proves the scatter path answers correctly before timing.
			rows, err := db.Query(shardScanSQL)
			if err != nil {
				b.Fatal(err)
			}
			if rows.Len() != shardScanRows/100 {
				b.Fatalf("scan kept %d rows, want %d", rows.Len(), shardScanRows/100)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(shardScanSQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
