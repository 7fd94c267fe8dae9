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
	"math/bits"
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

// PlanSpace is the mutable PlanSpaceTable plus the consumed-function ledger
// that prevents replanning of work that is done (or was skipped by the tight
// design's short-circuiting, which eliminates the tuple for this query). The
// ledger is one function mask per (alias, tuple, attribute), shared by
// duplicate entries: a triplet is plannable while its bit is clear in the
// mask and in the attribute's executed-function bitmap at the entry's
// generation.
type PlanSpace struct {
	entries []SpaceEntry
	masks   [][]*attrMask // parallel to entries: one per entry attribute
	byKey   map[maskKey]*attrMask
	res     []resolved // the distinct families named, resolved per call

	// Scratch reused across calls: the entry's picks, the masks holding
	// planned bits, and a shuffled attribute order.
	picks   []PlanItem
	touched []*attrMask
	perm    []int
}

// attrMask is the ledger of one (alias, tuple, attribute).
type attrMask struct {
	fam      int    // index into PlanSpace.res
	consumed uint64 // functions consumed by earlier epochs
	planned  uint64 // functions on the PlanTable being built
}

type maskKey struct {
	alias string
	tid   int64
	attr  string
}

// resolved is one (relation, attribute) family as a call sees it: looked up
// once, with its functions' cost estimates and SB(FO) order read once per
// PlanStats call.
type resolved struct {
	rel, attr string
	fam       *enrich.Family
	st        *enrich.StateTable
	full      uint64
	cost      []time.Duration
	order     []int
}

// NewPlanSpace wraps probe-query output.
func NewPlanSpace(entries []SpaceEntry) *PlanSpace {
	ps := &PlanSpace{entries: entries, masks: make([][]*attrMask, len(entries)), byKey: make(map[maskKey]*attrMask)}
	for i, e := range entries {
		ps.masks[i] = make([]*attrMask, len(e.Attrs))
		for j, attr := range e.Attrs {
			k := maskKey{e.Alias, e.TID, attr}
			m := ps.byKey[k]
			if m == nil {
				m = &attrMask{fam: ps.famIndex(e.Relation, attr)}
				ps.byKey[k] = m
			}
			ps.masks[i][j] = m
		}
	}
	return ps
}

func (ps *PlanSpace) famIndex(rel, attr string) int {
	for i, r := range ps.res {
		if r.rel == rel && r.attr == attr {
			return i
		}
	}
	ps.res = append(ps.res, resolved{rel: rel, attr: attr})
	return len(ps.res) - 1
}

// resolve looks every family up once; forPlan also reads the functions'
// cost estimates and SB(FO) order.
func (ps *PlanSpace) resolve(mgr *enrich.Manager, forPlan bool) {
	for i := range ps.res {
		r := &ps.res[i]
		r.fam, r.st, r.full = mgr.Family(r.rel, r.attr), mgr.StateTable(r.rel), 0
		if r.fam == nil {
			continue
		}
		r.full = r.fam.FullBitmap()
		if forPlan {
			r.cost = r.cost[:0]
			for _, fn := range r.fam.Functions {
				r.cost = append(r.cost, fn.AvgCost())
			}
			r.order = r.fam.ByQualityPerCost()
		}
	}
}

// pending returns the plannable functions of entry i's attribute j: those
// neither consumed nor executed for the entry's tuple image.
func (ps *PlanSpace) pending(i, j int) uint64 {
	m := ps.masks[i][j]
	r := &ps.res[m.fam]
	rest := r.full &^ m.consumed
	if rest == 0 {
		return 0 // no family, or every function consumed: no state to read
	}
	e := &ps.entries[i]
	return rest &^ r.st.BitmapAt(e.TID, e.Attrs[j], e.Gen)
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
	if m := ps.byKey[maskKey{it.Alias, it.TID, it.Attr}]; m != nil {
		m.consumed |= 1 << uint(it.FnID)
	}
}

// Compact drops entries with no remaining plannable triplets, given the
// family sizes from the manager. It returns the number of live entries.
func (ps *PlanSpace) Compact(mgr *enrich.Manager) int {
	ps.resolve(mgr, false)
	n := 0
	for i := range ps.entries {
		for j := range ps.entries[i].Attrs {
			if ps.pending(i, j) != 0 {
				ps.entries[n], ps.masks[n] = ps.entries[i], ps.masks[i]
				n++
				break
			}
		}
	}
	ps.entries, ps.masks = ps.entries[:n], ps.masks[:n]
	return n
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
	ps.resolve(mgr, true)
	var order []int
	switch strategy {
	case Benefit:
		order = ps.benefitOrder(mgr)
	case Adaptive:
		order = ps.adaptiveOrder(st)
	default:
		order = rng.Perm(len(ps.entries))
	}
	var plan []PlanItem
	var cost time.Duration
	// Guard against duplicate plan-space entries (probe queries can list the
	// same (alias, tuple) twice): a PlanTable never carries the same triplet
	// twice, which the parallel executor's dedup accounting relies on. The
	// shared mask's planned bits remember what this PlanTable holds.
	defer func() {
		for _, m := range ps.touched {
			m.planned = 0
		}
		ps.touched = ps.touched[:0]
	}()
	for _, ei := range order {
		if cost >= budget {
			break
		}
		e := &ps.entries[ei]
		for _, it := range ps.pickForEntry(ei, strategy, rng, st) {
			m := ps.masks[ei][attrIndex(e.Attrs, it.Attr)]
			bit := uint64(1) << uint(it.FnID)
			if m.planned&bit != 0 {
				continue
			}
			if m.planned == 0 {
				ps.touched = append(ps.touched, m)
			}
			m.planned |= bit
			plan = append(plan, it)
			cost += ps.res[m.fam].cost[it.FnID]
			if cost >= budget {
				break
			}
		}
	}
	return plan
}

func attrIndex(attrs []string, attr string) int {
	for j, a := range attrs {
		if a == attr {
			return j
		}
	}
	return -1
}

// pickForEntry selects this epoch's triplets for plan-space entry ei, into
// scratch the next call overwrites. The families must be resolved for
// planning.
func (ps *PlanSpace) pickForEntry(ei int, strategy Strategy, rng *rand.Rand, st *stats.Store) []PlanItem {
	e := &ps.entries[ei]
	picks := ps.picks[:0]
	defer func() { ps.picks = picks }()
	item := func(j, id int) PlanItem {
		return PlanItem{Alias: e.Alias, Relation: e.Relation, TID: e.TID, Attr: e.Attrs[j], FnID: id}
	}

	switch strategy {
	case SBOO:
		// One random attribute, all of its remaining functions.
		for _, j := range ps.shuffledAttrs(len(e.Attrs), rng) {
			fns := ps.pending(ei, j)
			for id := 0; fns != 0; id++ {
				if fns&(1<<uint(id)) != 0 {
					picks = append(picks, item(j, id))
					fns &^= 1 << uint(id)
				}
			}
			if len(picks) > 0 {
				return picks
			}
		}
	case SBRO:
		// One random attribute, one random function.
		for _, j := range ps.shuffledAttrs(len(e.Attrs), rng) {
			fns := ps.pending(ei, j)
			if fns == 0 {
				continue
			}
			k := rng.Intn(bits.OnesCount64(fns))
			for ; k > 0; k-- {
				fns &= fns - 1
			}
			return append(picks, item(j, bits.TrailingZeros64(fns)))
		}
	case SBFO, Benefit:
		// Every attribute advances by its next-best function in
		// quality-per-cost order.
		for j := range e.Attrs {
			remaining := ps.pending(ei, j)
			if remaining == 0 {
				continue
			}
			for _, id := range ps.res[ps.masks[ei][j].fam].order {
				if remaining&(1<<uint(id)) != 0 {
					picks = append(picks, item(j, id))
					break
				}
			}
		}
	case Adaptive:
		// Every attribute advances by the remaining function with the best
		// observed impact-per-cost (ties break to the lowest function ID, so
		// plans are deterministic — Adaptive never draws on the rng).
		for j, attr := range e.Attrs {
			remaining := ps.pending(ei, j)
			if remaining == 0 {
				continue
			}
			fam := ps.res[ps.masks[ei][j].fam].fam
			bestID, bestScore := -1, math.Inf(-1)
			for id := range fam.Functions {
				if remaining&(1<<uint(id)) == 0 {
					continue
				}
				s := fnImpact(st, e.Relation, attr, id) / fnCostNs(st, e.Relation, attr, fam.Functions[id])
				if s > bestScore {
					bestScore, bestID = s, id
				}
			}
			picks = append(picks, item(j, bestID))
		}
	}
	return picks
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
func (ps *PlanSpace) adaptiveOrder(st *stats.Store) []int {
	type scored struct {
		idx   int
		score float64
	}
	out := make([]scored, len(ps.entries))
	var buf enrich.OutputBuf
	for i, e := range ps.entries {
		best := 0.0
		for j, attr := range e.Attrs {
			r := &ps.res[ps.masks[i][j].fam]
			if r.fam == nil {
				continue
			}
			var ent float64 = 1
			if outs := r.st.OutputsAt(e.TID, attr, e.Gen, &buf); outs != nil {
				ent = stateEntropy(outs, r.fam.Domain)
			}
			bestFn := 0.0
			remaining := ps.pending(i, j)
			for _, fn := range r.fam.Functions {
				if remaining&(1<<uint(fn.ID)) == 0 {
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
	var buf enrich.OutputBuf
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
				// OutputsAt copies under the table lock, so ranking stays
				// race-free while epoch workers write state.
				if outs := st.OutputsAt(e.TID, attr, e.Gen, &buf); outs != nil {
					s = stateEntropy(outs, fam.Domain)
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
// executed-function outputs (indexed by function id, nil where the function
// did not run); 1 when nothing has executed.
func stateEntropy(outs [][]float64, domain int) float64 {
	sum := make([]float64, domain)
	n := 0
	for _, o := range outs {
		if o == nil {
			continue
		}
		n++
		for c, p := range o[:domain] {
			sum[c] += p
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

// shuffledAttrs returns a random order of n attribute indices, into scratch.
// It draws on rng exactly as shuffling the attribute names would.
func (ps *PlanSpace) shuffledAttrs(n int, rng *rand.Rand) []int {
	perm := ps.perm[:0]
	for j := 0; j < n; j++ {
		perm = append(perm, j)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	ps.perm = perm
	return perm
}

// PlanSizeBytes estimates the PlanTable's storage for Exp 5.
func PlanSizeBytes(plan []PlanItem) int64 {
	var size int64
	for _, it := range plan {
		size += int64(len(it.Alias)+len(it.Relation)+len(it.Attr)) + 12
	}
	return size
}
