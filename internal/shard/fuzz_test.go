package shard

import (
	"math"
	"testing"

	"enrichdb/internal/types"
)

// FuzzPartition probes the routing invariants the shard store and executor
// lean on: routing is total (every key, including NaN and -0.0, lands on
// exactly one shard in range), deterministic, agrees with the engine's
// types.Hasher, and co-locates key-equal values. The fourth argument is a
// second integer key (the checked-in corpus keeps the four-argument shape).
func FuzzPartition(f *testing.F) {
	f.Add(1, int64(0), uint64(0), int64(0))
	f.Add(4, int64(-1), math.Float64bits(math.Copysign(0, -1)), int64(10))
	f.Add(8, int64(math.MaxInt64), math.Float64bits(math.NaN()), int64(-7))
	f.Add(3, int64(100), math.Float64bits(1.5), int64(100))
	f.Add(2, int64(50), uint64(0x7ff8000000000001), int64(49)) // NaN payload bits
	f.Fuzz(func(t *testing.T, n int, key int64, fbits uint64, key2 int64) {
		if n < 1 || n > 64 {
			n = 1 + int(uint(n)%64)
		}
		fv := types.NewFloat(math.Float64frombits(fbits))
		hp := NewHashPartitioner(n)
		for _, v := range []types.Value{types.NewInt(key), types.NewInt(key2), fv, types.Null} {
			got := hp.Route(v)
			if got < 0 || got >= n {
				t.Fatalf("hash Route(%v) = %d out of [0,%d)", v, got, n)
			}
			if got != hp.Route(v) {
				t.Fatalf("hash Route(%v) unstable", v)
			}
			if want := int(types.HashValue(v) % uint64(n)); got != want {
				t.Fatalf("hash Route(%v) = %d, engine hash says %d", v, got, want)
			}
		}
		// -0.0 folds into +0.0 (key-equal values co-locate).
		if math.Float64frombits(fbits) == 0 && hp.Route(types.NewFloat(0)) != hp.Route(fv) {
			t.Fatalf("±0.0 split across shards")
		}
	})
}
