// Package progressive implements the paper's progressive query processing
// (§3): query execution split into cost-budgeted epochs, a PlanSpaceTable of
// candidate (tuple, attribute) pairs seeded by probe queries, per-epoch
// PlanTables built by the sampling strategies SB(OO)/SB(RO)/SB(FO), joint
// enrichment + IVM-based incremental answer maintenance for both the loose
// and the tight design, and the bookkeeping behind the paper's overhead and
// progressiveness experiments.
package progressive

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/stats"
)

// Strategy selects how the planner picks (tuple, attribute, function)
// triplets each epoch (§3.3.2).
type Strategy int

// The three sampling-based strategies.
const (
	// SBOO — Sampling-Based Object Ordered: one random attribute per chosen
	// tuple, all of its functions at once.
	SBOO Strategy = iota
	// SBRO — Sampling-Based Random Ordered: one random attribute, one
	// random not-yet-run function.
	SBRO
	// SBFO — Sampling-Based Function Ordered: the next function per
	// attribute in decreasing Quality/Cost order.
	SBFO
	// Benefit is an extension beyond the paper's three sampling strategies,
	// implementing the benefit-based selection it cites as an alternative
	// (§3.1, [27]): tuples are ranked by the uncertainty of their current
	// determinization (entropy of the averaged stored outputs), so epochs
	// spend their budget where another function execution is most likely to
	// change the answer. Functions are then chosen SB(FO)-style.
	Benefit
	// Adaptive extends Benefit with the runtime-statistics feedback loop of
	// DESIGN §14 (PIQUE's expected-benefit-per-cost): entries are ranked by
	// entropy × observed answer-impact / observed per-function cost, and the
	// function choice per attribute maximizes impact-per-cost rather than
	// static quality-per-cost. Epoch reports feed the observations back, so
	// the plan re-ranks mid-query as measured costs and impacts drift from
	// their estimates.
	Adaptive
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case SBOO:
		return "SB(OO)"
	case SBRO:
		return "SB(RO)"
	case SBFO:
		return "SB(FO)"
	case Benefit:
		return "Benefit"
	case Adaptive:
		return "Adaptive"
	default:
		return "SB(?)"
	}
}

// SpaceEntry is one PlanSpaceTable row (§3.3.1): a candidate tuple and the
// derived attributes the query needs it enriched for.
type SpaceEntry struct {
	Alias    string
	Relation string
	TID      int64
	Attrs    []string
	// Gen is the fixed-data generation of the tuple image the probe selected:
	// the planner counts prior work only when it was computed from that image.
	Gen uint64
}

// PlanItem is one PlanTable row: a (tuple, attribute, function) triplet
// selected for (potential) enrichment in the current epoch.
type PlanItem struct {
	Alias    string
	Relation string
	TID      int64
	Attr     string
	FnID     int
}

// PlanSpace is the mutable PlanSpaceTable plus the consumed-triplet ledger
// that prevents replanning of work that is done (or was skipped by the tight
// design's short-circuiting, which eliminates the tuple for this query).
type PlanSpace struct {
	entries  []SpaceEntry
	consumed map[tripletKey]bool
}

type tripletKey struct {
	alias string
	tid   int64
	attr  string
	fnID  int
}

// NewPlanSpace wraps probe-query output.
func NewPlanSpace(entries []SpaceEntry) *PlanSpace {
	return &PlanSpace{entries: entries, consumed: make(map[tripletKey]bool)}
}

// Len returns the number of live PlanSpaceTable rows.
func (ps *PlanSpace) Len() int { return len(ps.entries) }

// SizeBytes estimates the PlanSpaceTable's storage (Exp 5): relation name,
// tuple id and attribute list per row.
func (ps *PlanSpace) SizeBytes() int64 {
	var size int64
	for _, e := range ps.entries {
		size += int64(len(e.Alias) + len(e.Relation) + 8)
		for _, a := range e.Attrs {
			size += int64(len(a))
		}
	}
	return size
}

// Consume marks a planned triplet as handled. The executor calls it for
// every planned triplet whether it executed or was short-circuited away.
func (ps *PlanSpace) Consume(it PlanItem) {
	ps.consumed[tripletKey{it.Alias, it.TID, it.Attr, it.FnID}] = true
}

// Compact drops entries with no remaining plannable triplets, given the
// family sizes from the manager. It returns the number of live entries.
func (ps *PlanSpace) Compact(mgr *enrich.Manager) int {
	live := ps.entries[:0]
	for _, e := range ps.entries {
		remaining := false
		for _, attr := range e.Attrs {
			fam := mgr.Family(e.Relation, attr)
			if fam == nil {
				continue
			}
			for _, fn := range fam.Functions {
				k := tripletKey{e.Alias, e.TID, attr, fn.ID}
				if !ps.consumed[k] && !mgr.Enriched(e.Relation, e.TID, attr, fn.ID, e.Gen) {
					remaining = true
					break
				}
			}
			if remaining {
				break
			}
		}
		if remaining {
			live = append(live, e)
		}
	}
	ps.entries = live
	return len(live)
}

// Plan builds the epoch's PlanTable: tuples are drawn by simple random
// sampling from the plan space, triplets are chosen per the strategy, and
// selection stops when the estimated plan cost reaches the epoch budget (the
// plan-validity rule of §3.3.2).
func (ps *PlanSpace) Plan(mgr *enrich.Manager, strategy Strategy, budget time.Duration, rng *rand.Rand) []PlanItem {
	return ps.PlanStats(mgr, strategy, budget, rng, nil)
}

// PlanStats is Plan with a runtime-statistics store: the Adaptive strategy
// ranks entries and functions by the store's observed impact-per-cost
// (falling back to static estimates where nothing was observed yet). The
// other strategies ignore the store entirely, so PlanStats(…, nil) ≡ Plan.
func (ps *PlanSpace) PlanStats(mgr *enrich.Manager, strategy Strategy, budget time.Duration, rng *rand.Rand, st *stats.Store) []PlanItem {
	if len(ps.entries) == 0 || budget <= 0 {
		return nil
	}
	var order []int
	switch strategy {
	case Benefit:
		order = ps.benefitOrder(mgr)
	case Adaptive:
		order = ps.adaptiveOrder(mgr, st)
	default:
		order = rng.Perm(len(ps.entries))
	}
	var plan []PlanItem
	var cost time.Duration
	// Guard against duplicate plan-space entries (probe queries can list the
	// same (alias, tuple) twice): a PlanTable never carries the same triplet
	// twice, which the parallel executor's dedup accounting relies on.
	seen := make(map[tripletKey]bool)
	for _, ei := range order {
		if cost >= budget {
			break
		}
		e := ps.entries[ei]
		items := ps.pickForEntry(mgr, e, strategy, rng, st)
		for _, it := range items {
			k := tripletKey{it.Alias, it.TID, it.Attr, it.FnID}
			if seen[k] {
				continue
			}
			seen[k] = true
			fam := mgr.Family(it.Relation, it.Attr)
			plan = append(plan, it)
			cost += fam.Functions[it.FnID].AvgCost()
			if cost >= budget {
				break
			}
		}
	}
	return plan
}

// pickForEntry selects this epoch's triplets for one plan-space tuple.
func (ps *PlanSpace) pickForEntry(mgr *enrich.Manager, e SpaceEntry, strategy Strategy, rng *rand.Rand, st *stats.Store) []PlanItem {
	avail := func(attr string) []int {
		fam := mgr.Family(e.Relation, attr)
		if fam == nil {
			return nil
		}
		var out []int
		for _, fn := range fam.Functions {
			k := tripletKey{e.Alias, e.TID, attr, fn.ID}
			if !ps.consumed[k] && !mgr.Enriched(e.Relation, e.TID, attr, fn.ID, e.Gen) {
				out = append(out, fn.ID)
			}
		}
		return out
	}

	switch strategy {
	case SBOO:
		// One random attribute, all of its remaining functions.
		attrs := shuffledAttrs(e.Attrs, rng)
		for _, attr := range attrs {
			fns := avail(attr)
			if len(fns) == 0 {
				continue
			}
			items := make([]PlanItem, len(fns))
			for i, id := range fns {
				items[i] = PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: id}
			}
			return items
		}
	case SBRO:
		// One random attribute, one random function.
		attrs := shuffledAttrs(e.Attrs, rng)
		for _, attr := range attrs {
			fns := avail(attr)
			if len(fns) == 0 {
				continue
			}
			id := fns[rng.Intn(len(fns))]
			return []PlanItem{{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: id}}
		}
	case SBFO, Benefit:
		// Every attribute advances by its next-best function in
		// quality-per-cost order.
		var items []PlanItem
		for _, attr := range e.Attrs {
			remaining := avail(attr)
			if len(remaining) == 0 {
				continue
			}
			rset := make(map[int]bool, len(remaining))
			for _, id := range remaining {
				rset[id] = true
			}
			fam := mgr.Family(e.Relation, attr)
			for _, id := range fam.ByQualityPerCost() {
				if rset[id] {
					items = append(items, PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: id})
					break
				}
			}
		}
		return items
	case Adaptive:
		// Every attribute advances by the remaining function with the best
		// observed impact-per-cost (ties break to the lowest function ID, so
		// plans are deterministic — Adaptive never draws on the rng).
		var items []PlanItem
		for _, attr := range e.Attrs {
			remaining := avail(attr)
			if len(remaining) == 0 {
				continue
			}
			fam := mgr.Family(e.Relation, attr)
			bestID, bestScore := -1, math.Inf(-1)
			for _, id := range remaining {
				s := fnImpact(st, e.Relation, attr, id) / fnCostNs(st, e.Relation, attr, fam.Functions[id])
				if s > bestScore {
					bestScore, bestID = s, id
				}
			}
			items = append(items, PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: attr, FnID: bestID})
		}
		return items
	}
	return nil
}

// fnCostNs is the Adaptive strategy's cost lookup, in priority order: a
// pinned estimate (experiments that decouple planning from wall-clock
// noise), the store's decayed observation, then the function's own measured
// average. Always ≥ 1ns so it can be divided by.
func fnCostNs(st *stats.Store, rel, attr string, fn *enrich.Function) float64 {
	if fn.PinCost && fn.CostEst > 0 {
		return float64(fn.CostEst.Nanoseconds())
	}
	if c, ok := st.FnCostNs(rel, attr, fn.ID); ok && c > 0 {
		return c
	}
	c := float64(fn.AvgCost().Nanoseconds())
	if c < 1 {
		c = 1
	}
	return c
}

// fnImpact is the observed answer-impact of one function (delta rows per
// execution, EWMA-decayed), defaulting to 1 before any observation and
// floored at 0.01 so zero-impact functions still rank by cost rather than
// collapsing to a single score.
func fnImpact(st *stats.Store, rel, attr string, fnID int) float64 {
	if v, ok := st.FnImpact(rel, attr, fnID); ok {
		if v < 0.01 {
			return 0.01
		}
		return v
	}
	return 1
}

// adaptiveOrder ranks plan-space entries by expected benefit-per-cost: the
// entry's determinization uncertainty (entropy, as benefitOrder) times the
// best remaining function's impact-per-cost across its attributes. The sort
// is stable over the deterministic probe order, so equal scores keep a
// reproducible order with no rng involved.
func (ps *PlanSpace) adaptiveOrder(mgr *enrich.Manager, st *stats.Store) []int {
	type scored struct {
		idx   int
		score float64
	}
	out := make([]scored, len(ps.entries))
	for i, e := range ps.entries {
		stbl := mgr.StateTable(e.Relation)
		best := 0.0
		for _, attr := range e.Attrs {
			fam := mgr.Family(e.Relation, attr)
			if fam == nil {
				continue
			}
			var ent float64 = 1
			if stbl != nil {
				if snap, _ := stbl.OutputSnapshotAt(e.TID, attr, e.Gen); snap != nil {
					ent = stateEntropy(&enrich.AttrState{Outputs: snap}, fam.Domain)
				}
			}
			bestFn := 0.0
			for _, fn := range fam.Functions {
				k := tripletKey{e.Alias, e.TID, attr, fn.ID}
				if ps.consumed[k] || mgr.Enriched(e.Relation, e.TID, attr, fn.ID, e.Gen) {
					continue
				}
				if s := fnImpact(st, e.Relation, attr, fn.ID) / fnCostNs(st, e.Relation, attr, fn); s > bestFn {
					bestFn = s
				}
			}
			if s := ent * bestFn; s > best {
				best = s
			}
		}
		out[i] = scored{idx: i, score: best}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].score > out[b].score })
	order := make([]int, len(out))
	for i, s := range out {
		order[i] = s.idx
	}
	return order
}

// benefitOrder ranks plan-space entries by decreasing uncertainty of their
// current determinization: normalized entropy of the averaged stored
// outputs, with never-touched attributes scoring 1 (maximally uncertain).
func (ps *PlanSpace) benefitOrder(mgr *enrich.Manager) []int {
	type scored struct {
		idx   int
		score float64
	}
	out := make([]scored, len(ps.entries))
	for i, e := range ps.entries {
		st := mgr.StateTable(e.Relation)
		best := 0.0
		for _, attr := range e.Attrs {
			fam := mgr.Family(e.Relation, attr)
			if fam == nil {
				continue
			}
			var s float64 = 1
			if st != nil {
				// OutputSnapshotAt reads under the table lock, so ranking stays
				// race-free while epoch workers write state.
				if snap, _ := st.OutputSnapshotAt(e.TID, attr, e.Gen); snap != nil {
					s = stateEntropy(&enrich.AttrState{Outputs: snap}, fam.Domain)
				}
			}
			if s > best {
				best = s
			}
		}
		out[i] = scored{idx: i, score: best}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].score > out[b].score })
	order := make([]int, len(out))
	for i, s := range out {
		order[i] = s.idx
	}
	return order
}

// stateEntropy computes the normalized Shannon entropy of the averaged
// executed-function outputs; 1 when nothing has executed.
func stateEntropy(s *enrich.AttrState, domain int) float64 {
	sum := make([]float64, domain)
	n := 0
	for _, o := range s.Outputs {
		if o == nil {
			continue
		}
		n++
		for c, p := range o.Effective() {
			if c < domain {
				sum[c] += p
			}
		}
	}
	if n == 0 {
		return 1
	}
	total := 0.0
	for _, v := range sum {
		total += v
	}
	if total <= 0 {
		return 1
	}
	h := 0.0
	for _, v := range sum {
		p := v / total
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(domain))
}

func shuffledAttrs(attrs []string, rng *rand.Rand) []string {
	out := make([]string, len(attrs))
	copy(out, attrs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// PlanSizeBytes estimates the PlanTable's storage for Exp 5.
func PlanSizeBytes(plan []PlanItem) int64 {
	var size int64
	for _, it := range plan {
		size += int64(len(it.Alias)+len(it.Relation)+len(it.Attr)) + 12
	}
	return size
}
