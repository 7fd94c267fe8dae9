package shard

import (
	"math"
	"testing"

	"enrichdb/internal/types"
)

func TestHashPartitionerParityWithEngineHasher(t *testing.T) {
	p := NewHashPartitioner(4)
	vals := []types.Value{
		types.NewInt(0), types.NewInt(-1), types.NewInt(math.MaxInt64),
		types.NewString(""), types.NewString("k"), types.Null,
		types.NewVector([]float64{1, math.Copysign(0, -1)}),
		types.NewVector([]float64{math.NaN()}),
	}
	for _, v := range vals {
		want := int(types.HashValue(v) % 4)
		if got := p.Route(v); got != want {
			t.Errorf("Route(%v) = %d, want engine-hash shard %d", v, got, want)
		}
	}
	// [-0.0] and [+0.0] are key-equal, so they must co-locate.
	if p.Route(types.NewVector([]float64{0})) != p.Route(types.NewVector([]float64{math.Copysign(0, -1)})) {
		t.Errorf("[-0.0] and [+0.0] routed to different shards")
	}
}
