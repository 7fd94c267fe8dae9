package progressive

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enrichdb/internal/enrich"
)

// The planner's cost shape: an epoch's planning costs what it plans. Compact
// walks the live entries without allocating, and PlanStats allocates the
// same at any plan-space size.

// costSpace is a plan space of n distinct TweetData tuples, each needing
// both derived attributes.
func costSpace(n int) *PlanSpace {
	entries := make([]SpaceEntry, n)
	for i := range entries {
		entries[i] = SpaceEntry{Alias: "TweetData", Relation: "TweetData", TID: int64(i + 1), Attrs: []string{"sentiment", "topic"}}
	}
	return NewPlanSpace(entries)
}

// pinCostsAt fixes every fixture function's cost estimate at c.
func pinCostsAt(mgr *enrich.Manager, c time.Duration) {
	for _, fa := range pinnedFixtureAttrs {
		for _, fn := range mgr.Family(fa[0], fa[1]).Functions {
			fn.PinCost, fn.CostEst = true, c
		}
	}
}

func TestCompactAllocatesNothing(t *testing.T) {
	_, mgr := fixture(t)
	space := costSpace(256)
	if got := testing.AllocsPerRun(20, func() { space.Compact(mgr) }); got != 0 {
		t.Errorf("Compact allocates %.1f times per call, want 0", got)
	}
}

func TestPlanStatsAllocsIndependentOfSpaceSize(t *testing.T) {
	_, mgr := fixture(t)
	pinCostsAt(mgr, time.Millisecond)
	for _, strategy := range []Strategy{SBOO, SBRO, SBFO} {
		allocs := func(n int) float64 {
			space := costSpace(n)
			rng := rand.New(rand.NewSource(1))
			return testing.AllocsPerRun(20, func() {
				// The budget admits one triplet.
				if plan := space.PlanStats(mgr, strategy, time.Microsecond, rng, nil); len(plan) != 1 {
					t.Fatalf("%v planned %d triplets, want 1", strategy, len(plan))
				}
			})
		}
		if small, large := allocs(256), allocs(4096); large > small {
			t.Errorf("%v: PlanStats allocates %.1f times at 256 entries but %.1f at 4096", strategy, small, large)
		}
	}
}

// BenchmarkEpochPlan times one epoch's planning — Compact, then an SB(FO)
// PlanStats whose budget admits 128 triplets — per planned triplet.
func BenchmarkEpochPlan(b *testing.B) {
	_, mgr := fixture(b)
	pinCostsAt(mgr, time.Microsecond)
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			space := costSpace(n)
			rng := rand.New(rand.NewSource(1))
			planned := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				space.Compact(mgr)
				planned += len(space.PlanStats(mgr, SBFO, 128*time.Microsecond, rng, nil))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(planned, 1)), "ns/triplet")
		})
	}
}
