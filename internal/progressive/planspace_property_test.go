package progressive

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/storage"
)

// Property-based checks over the PlanSpaceTable operations. Every case draws
// a random plan space (with deliberate duplicate entries), a random strategy
// and a random budget from a seeded source, then asserts the invariants the
// executor depends on:
//
//   - Plan never exceeds the epoch budget estimate: the plan's pinned cost
//     minus its final item stays under budget (the last item is allowed to
//     cross the line, per the §3.3.2 plan-validity rule).
//   - Plan never emits the same (alias, tuple, attr, function) twice.
//   - Plan never re-emits consumed or already-enriched triplets.
//   - Compact keeps exactly the entries that still have plannable triplets.

// tripletKey names one (alias, tuple, attribute, function) triplet.
type tripletKey struct {
	alias string
	tid   int64
	attr  string
	fnID  int
}

// consumed reports whether the plan space's ledger holds the triplet.
func consumed(space *PlanSpace, k tripletKey) bool {
	m := space.byKey[maskKey{k.alias, k.tid, k.attr}]
	return m != nil && m.consumed&(1<<uint(k.fnID)) != 0
}

// featureOf reads the current image of a tuple: the feature vector of a
// derived attribute and the image's fixed-data generation.
func featureOf(db storage.Source, relation string, tid int64, attr string) ([]float64, uint64, error) {
	tbl, err := db.Table(relation)
	if err != nil {
		return nil, 0, err
	}
	tu := tbl.Get(tid)
	if tu == nil {
		return nil, 0, fmt.Errorf("%s: no tuple %d", relation, tid)
	}
	feature, err := tbl.Schema().Feature(tu, attr)
	return feature, tu.Gen, err
}

// propFixture builds the shared dataset/manager pair with pinned, per-function
// distinct costs so budget arithmetic is exact and reproducible.
func propFixture(t *testing.T) (*dataset.Data, *enrich.Manager) {
	t.Helper()
	d, mgr := fixture(t)
	for _, fa := range pinnedFixtureAttrs {
		for _, fn := range mgr.Family(fa[0], fa[1]).Functions {
			fn.PinCost = true
			fn.CostEst = time.Duration(fn.ID+1) * 100 * time.Microsecond
		}
	}
	return d, mgr
}

// randSpace draws a plan space over the fixture's tuples: a random number of
// entries, random attr subsets, and ~20% duplicated (alias, tuple) rows —
// the self-join shape that makes dedup matter.
func randSpace(rng *rand.Rand) *PlanSpace {
	rels := []struct {
		rel   string
		attrs []string
		maxID int64
	}{
		{"TweetData", []string{"sentiment", "topic"}, 250},
		{"MultiPie", []string{"gender", "expression"}, 120},
	}
	n := 1 + rng.Intn(30)
	var entries []SpaceEntry
	for i := 0; i < n; i++ {
		r := rels[rng.Intn(len(rels))]
		attrs := make([]string, 0, len(r.attrs))
		for _, a := range r.attrs {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			attrs = append(attrs, r.attrs[rng.Intn(len(r.attrs))])
		}
		e := SpaceEntry{Alias: r.rel, Relation: r.rel, TID: 1 + rng.Int63n(r.maxID), Attrs: attrs}
		entries = append(entries, e)
		if rng.Intn(5) == 0 {
			entries = append(entries, e) // duplicate row
		}
	}
	return NewPlanSpace(entries)
}

func planCost(mgr *enrich.Manager, plan []PlanItem) time.Duration {
	var cost time.Duration
	for _, it := range plan {
		cost += mgr.Family(it.Relation, it.Attr).Functions[it.FnID].AvgCost()
	}
	return cost
}

func TestPlanPropertyBudgetAndDedup(t *testing.T) {
	_, mgr := propFixture(t)
	rng := rand.New(rand.NewSource(4001))
	strategies := []Strategy{SBOO, SBRO, SBFO, Benefit}
	for iter := 0; iter < 300; iter++ {
		space := randSpace(rng)
		strategy := strategies[rng.Intn(len(strategies))]
		budget := time.Duration(rng.Intn(5000)) * time.Microsecond
		plan := space.Plan(mgr, strategy, budget, rng)

		if budget <= 0 && len(plan) != 0 {
			t.Fatalf("iter %d: non-positive budget must yield an empty plan, got %d items", iter, len(plan))
		}
		seen := make(map[tripletKey]bool, len(plan))
		for _, it := range plan {
			k := tripletKey{it.Alias, it.TID, it.Attr, it.FnID}
			if seen[k] {
				t.Fatalf("iter %d (%v, budget %v): duplicate triplet %+v", iter, strategy, budget, it)
			}
			seen[k] = true
			fam := mgr.Family(it.Relation, it.Attr)
			if fam == nil || it.FnID < 0 || it.FnID >= len(fam.Functions) {
				t.Fatalf("iter %d: plan item references unknown function: %+v", iter, it)
			}
		}
		if len(plan) > 0 {
			total := planCost(mgr, plan)
			last := mgr.Family(plan[len(plan)-1].Relation, plan[len(plan)-1].Attr).
				Functions[plan[len(plan)-1].FnID].AvgCost()
			if total-last >= budget {
				t.Fatalf("iter %d (%v): plan cost %v (w/o last item %v) breaches budget %v",
					iter, strategy, total, total-last, budget)
			}
		}
	}
}

func TestPlanPropertyNeverReplansConsumedOrEnriched(t *testing.T) {
	d, mgr := propFixture(t)
	rng := rand.New(rand.NewSource(4002))
	feats := func(rel string, tid int64, attr string) []float64 {
		f, _, err := featureOf(d.DB, rel, tid, attr)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	strategies := []Strategy{SBOO, SBRO, SBFO, Benefit}
	for iter := 0; iter < 120; iter++ {
		space := randSpace(rng)
		strategy := strategies[rng.Intn(len(strategies))]

		// First plan: consume a random subset, enrich another random subset
		// through the manager (so the state bitmap, not the consumed ledger,
		// blocks them).
		plan := space.Plan(mgr, strategy, 3*time.Millisecond, rng)
		blocked := make(map[tripletKey]bool)
		for _, it := range plan {
			k := tripletKey{it.Alias, it.TID, it.Attr, it.FnID}
			switch rng.Intn(3) {
			case 0:
				space.Consume(it)
				blocked[k] = true
			case 1:
				if _, _, err := mgr.Execute(it.Relation, it.TID, it.Attr, it.FnID, feats(it.Relation, it.TID, it.Attr), 0); err != nil {
					t.Fatal(err)
				}
				blocked[k] = true
			}
		}

		// Replans (any strategy, any budget) must avoid every blocked triplet.
		for round := 0; round < 3; round++ {
			s2 := strategies[rng.Intn(len(strategies))]
			replan := space.Plan(mgr, s2, time.Duration(1+rng.Intn(4000))*time.Microsecond, rng)
			for _, it := range replan {
				k := tripletKey{it.Alias, it.TID, it.Attr, it.FnID}
				if blocked[k] {
					t.Fatalf("iter %d round %d (%v): replanned blocked triplet %+v", iter, round, s2, it)
				}
				if mgr.Enriched(it.Relation, it.TID, it.Attr, it.FnID, 0) {
					t.Fatalf("iter %d round %d (%v): replanned enriched triplet %+v", iter, round, s2, it)
				}
			}
		}
	}
}

func TestCompactPropertyKeepsExactlyPending(t *testing.T) {
	d, mgr := propFixture(t)
	rng := rand.New(rand.NewSource(4003))

	// pending reports whether the entry still has a plannable triplet.
	pending := func(space *PlanSpace, e SpaceEntry) bool {
		for _, attr := range e.Attrs {
			fam := mgr.Family(e.Relation, attr)
			if fam == nil {
				continue
			}
			for _, fn := range fam.Functions {
				k := tripletKey{e.Alias, e.TID, attr, fn.ID}
				if !consumed(space, k) && !mgr.Enriched(e.Relation, e.TID, attr, fn.ID, e.Gen) {
					return true
				}
			}
		}
		return false
	}

	for iter := 0; iter < 120; iter++ {
		space := randSpace(rng)

		// Randomly consume and enrich triplets, including full entries.
		for _, e := range space.entries {
			for _, attr := range e.Attrs {
				fam := mgr.Family(e.Relation, attr)
				for _, fn := range fam.Functions {
					switch rng.Intn(4) {
					case 0:
						space.Consume(PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: fn.ID})
					case 1:
						f, gen, err := featureOf(d.DB, e.Relation, e.TID, attr)
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := mgr.Execute(e.Relation, e.TID, attr, fn.ID, f, gen); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}

		beforeEntries := make([]SpaceEntry, len(space.entries))
		copy(beforeEntries, space.entries)
		wantLive := 0
		wasPending := make(map[string]bool, len(beforeEntries))
		for _, e := range beforeEntries {
			p := pending(space, e)
			wasPending[fmt.Sprintf("%s/%d", e.Alias, e.TID)] = wasPending[fmt.Sprintf("%s/%d", e.Alias, e.TID)] || p
			if p {
				wantLive++
			}
		}

		live := space.Compact(mgr)
		if live != len(space.entries) {
			t.Fatalf("iter %d: Compact returned %d but kept %d entries", iter, live, len(space.entries))
		}
		if live != wantLive {
			t.Fatalf("iter %d: Compact kept %d entries, want %d still-pending", iter, live, wantLive)
		}
		for _, e := range space.entries {
			if !pending(space, e) {
				t.Fatalf("iter %d: Compact kept fully-handled entry %+v", iter, e)
			}
		}
		// Nothing pending was dropped: every pre-Compact pending entry key
		// must still be present.
		kept := make(map[string]bool, len(space.entries))
		for _, e := range space.entries {
			kept[fmt.Sprintf("%s/%d", e.Alias, e.TID)] = true
		}
		for key, p := range wasPending {
			if p && !kept[key] {
				t.Fatalf("iter %d: Compact dropped still-pending entry %s", iter, key)
			}
		}
	}
}

// TestPlanPropertyResetReopensUnconsumed: after Manager.ResetTuple moves a
// tuple to a new generation, the functions that ran for its old image stop
// blocking the plan — its unconsumed triplets are plannable again — while
// its consumed triplets stay blocked. Draining the space (plan, consume,
// compact until empty) must plan exactly the triplets that are neither
// consumed nor executed for the image the entry names (earlier iterations
// leave state behind on the shared manager).
func TestPlanPropertyResetReopensUnconsumed(t *testing.T) {
	d, mgr := propFixture(t)
	rng := rand.New(rand.NewSource(4004))
	strategies := []Strategy{SBOO, SBRO, SBFO, Benefit}
	nextGen := uint64(1000)
	for iter := 0; iter < 60; iter++ {
		space := randSpace(rng)
		type tuple struct {
			rel string
			tid int64
		}
		// Entries name the image the state currently belongs to, so work
		// executed below counts as prior work until a reset.
		for i := range space.entries {
			e := &space.entries[i]
			e.Gen = mgr.GenOf(e.Relation, e.TID)
		}
		consumedSet := make(map[tripletKey]bool)
		executed := make(map[tripletKey]bool)
		for _, e := range space.entries {
			for _, attr := range e.Attrs {
				for _, fn := range mgr.Family(e.Relation, attr).Functions {
					k := tripletKey{e.Alias, e.TID, attr, fn.ID}
					switch rng.Intn(3) {
					case 0:
						space.Consume(PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: fn.ID})
						consumedSet[k] = true
					case 1:
						f, _, err := featureOf(d.DB, e.Relation, e.TID, attr)
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := mgr.Execute(e.Relation, e.TID, attr, fn.ID, f, e.Gen); err != nil {
							t.Fatal(err)
						}
						executed[k] = true
					}
				}
			}
		}
		reset := make(map[tuple]bool)
		for _, e := range space.entries {
			k := tuple{e.Relation, e.TID}
			if _, seen := reset[k]; !seen {
				reset[k] = rng.Intn(2) == 0
				if reset[k] {
					mgr.ResetTuple(e.Relation, e.TID, nextGen)
					nextGen++
				}
			}
		}
		want := make(map[tripletKey]bool)
		for _, e := range space.entries {
			for _, attr := range e.Attrs {
				for _, fn := range mgr.Family(e.Relation, attr).Functions {
					k := tripletKey{e.Alias, e.TID, attr, fn.ID}
					ran := mgr.Enriched(e.Relation, e.TID, attr, fn.ID, e.Gen)
					if ran && reset[tuple{e.Relation, e.TID}] {
						t.Fatalf("iter %d: %+v still executed for the image a reset superseded", iter, k)
					}
					if !consumedSet[k] && !ran {
						want[k] = true
					}
				}
			}
		}

		got := make(map[tripletKey]bool)
		for round := 0; space.Compact(mgr) > 0; round++ {
			if round == 1000 {
				t.Fatalf("iter %d: the plan space did not drain", iter)
			}
			plan := space.Plan(mgr, strategies[rng.Intn(len(strategies))], time.Hour, rng)
			for _, it := range plan {
				k := tripletKey{it.Alias, it.TID, it.Attr, it.FnID}
				if consumedSet[k] {
					t.Fatalf("iter %d: planned consumed triplet %+v", iter, it)
				}
				if !reset[tuple{it.Relation, it.TID}] && executed[k] {
					t.Fatalf("iter %d: planned triplet executed for its image %+v", iter, it)
				}
				got[k] = true
				space.Consume(it)
			}
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("iter %d: plannable triplet %+v never planned (reset %v, executed %v)",
					iter, k, reset[tuple{k.alias, k.tid}], executed[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: planned %d triplets, want %d", iter, len(got), len(want))
		}
	}
}
