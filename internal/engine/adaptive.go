package engine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
)

// This file implements the engine half of the adaptive cost-based
// optimization layer (DESIGN §14): cheapest-rejection-first reordering of a
// filter's pure conjunct prefix with batch-boundary re-ranking, runtime
// build-side selection for hash joins, and the small observed-cardinality
// cost model behind cost-based join ordering and plan-only EXPLAIN
// annotations. Everything here is gated on ExecCtx.Adapt (a stats.Store):
// nil — the default — keeps every hot loop on the exact pre-adaptive code
// path.
//
// Correctness contract: only the pure (UDF-free) prefix of a filter's
// conjunct list is ever permuted. Reordering pure conjuncts among themselves
// changes neither the output rows (AND is commutative over side-effect-free
// three-valued terms) nor the set of rows that reach the UDF-bearing suffix
// (a row reaches it iff no pure conjunct rejected it, regardless of prefix
// order), so the enrichment side effects — which rows get enriched, in which
// row order — are byte-identical to the static plan. The suffix keeps its
// static order and the engine's short-circuit contract.

const (
	// adaptiveStride is how many rows a filter processes between re-ranking
	// its pure conjuncts — one cancelCheckStride, so the rank check rides on
	// the existing cancellation poll.
	adaptiveStride = cancelCheckStride
	// adaptiveSampleEvery is the per-conjunct timing sample rate: 1-in-N
	// evaluations pay two clock reads; the rest are counted only.
	adaptiveSampleEvery = 16
	// adaptiveBuildSwapFactor: a hash join builds on the left input when it
	// is at least this factor smaller than the right (the default build
	// side). The hysteresis keeps near-equal inputs on the familiar path.
	adaptiveBuildSwapFactor = 2
)

// predKey is the stats-store key of a predicate: its rendered form, which
// is stable across plan rebuilds of the same query shape.
func predKey(e expr.Expr) string { return fmt.Sprint(e) }

// conjMeter accumulates one conjunct's observed behaviour during a single
// filter execution.
type conjMeter struct {
	evals   int64
	rejects int64
	sampled int64
	ns      int64
}

// costNs is the measured per-evaluation cost, floored at 1ns so a
// clock-resolution zero never collapses every rank to zero.
func (m *conjMeter) costNs() float64 {
	if m.sampled == 0 {
		return 1
	}
	c := float64(m.ns) / float64(m.sampled)
	if c < 1 {
		return 1
	}
	return c
}

// rank is the cheapest-rejection-first score: cost per evaluation divided
// by rejection rate, ascending — a cheap conjunct that rejects most rows
// sorts first. Conjuncts that never rejected sort last (rejection rate
// floored), unevaluated conjuncts keep their position via +Inf and the
// stable sort.
func (m *conjMeter) rank() float64 {
	if m.evals == 0 {
		return math.Inf(1)
	}
	rej := float64(m.rejects) / float64(m.evals)
	if rej < 1e-9 {
		rej = 1e-9
	}
	return m.costNs() / rej
}

// seedConjOrder initializes the evaluation order of the pure conjuncts from
// the store's decayed estimates; conjuncts the store has not seen keep their
// static position (stable sort over +Inf ranks).
func seedConjOrder(st *stats.Store, conjs []expr.Expr, order []int) {
	ranks := make([]float64, len(conjs))
	any := false
	for i, c := range conjs {
		ranks[i] = math.Inf(1)
		sel, okSel := st.PredicateSelectivity(predKey(c))
		if !okSel {
			continue
		}
		cost, okCost := st.PredicateCostNs(predKey(c))
		if !okCost || cost < 1 {
			cost = 1
		}
		rej := 1 - sel
		if rej < 1e-9 {
			rej = 1e-9
		}
		ranks[i] = cost / rej
		any = true
	}
	if !any {
		return
	}
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
}

// rerankConjs recomputes the order from the run's own meters; reports
// whether the order changed.
func rerankConjs(order []int, meters []conjMeter) bool {
	ranks := make([]float64, len(meters))
	for i := range meters {
		ranks[i] = meters[i].rank()
	}
	changed := false
	prev := make([]int, len(order))
	copy(prev, order)
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	for i := range order {
		if order[i] != prev[i] {
			changed = true
			break
		}
	}
	return changed
}

// filterAdaptive is filterInto with the pure conjunct prefix evaluated in
// adaptive cheapest-rejection-first order, re-ranked every adaptiveStride
// rows. Output rows, output order and the rows reaching the UDF-bearing
// suffix are byte-identical to the static path (see the contract above).
func (f *Filter) filterAdaptive(ctx *ExecCtx, in, out []*expr.Row) ([]*expr.Row, error) {
	pure := f.conjs[:f.pureN]
	suffix := f.conjs[f.pureN:]
	order := make([]int, len(pure))
	for i := range order {
		order[i] = i
	}
	seedConjOrder(ctx.Adapt, pure, order)
	meters := make([]conjMeter, len(pure))

	for i, r := range in {
		if i%adaptiveStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
			if i > 0 && rerankConjs(order, meters) {
				ctx.Stats.AdaptiveReorders++
			}
		}
		res := expr.True
		for _, ci := range order {
			m := &meters[ci]
			m.evals++
			timed := m.evals%adaptiveSampleEvery == 1
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			tv, err := expr.EvalPred(ctx.Eval, pure[ci], r)
			if timed {
				m.ns += int64(time.Since(t0))
				m.sampled++
			}
			if err != nil {
				return nil, err
			}
			if tv == expr.False {
				m.rejects++
				res = expr.False
				break
			}
			if tv == expr.Unknown {
				res = expr.Unknown
			}
		}
		if res != expr.False {
			// UDF-bearing suffix: static order, same three-valued
			// short-circuit as expr.And — side effects fire for exactly the
			// rows the static plan fires them for.
			for _, c := range suffix {
				tv, err := expr.EvalPred(ctx.Eval, c, r)
				if err != nil {
					return nil, err
				}
				if tv == expr.False {
					res = expr.False
					break
				}
				if tv == expr.Unknown {
					res = expr.Unknown
				}
			}
		}
		if res == expr.True {
			out = append(out, r)
		}
	}

	// Feed the run's observations back into the store: per-conjunct
	// selectivity and cost, plus the whole filter's cardinalities.
	for ci := range pure {
		m := &meters[ci]
		if m.evals == 0 {
			continue
		}
		cost := float64(-1)
		if m.sampled > 0 {
			cost = m.costNs()
		}
		ctx.Adapt.ObservePredicate(predKey(pure[ci]), m.evals, m.evals-m.rejects, cost)
	}
	ctx.Adapt.ObserveOp("filter:"+predKey(f.Pred), int64(len(in)), int64(len(out)))
	return out, nil
}

// hashJoinBuildLeft is the swapped-build hash join: the (smaller) left
// input becomes the build side, the right input probes, and per-left-index
// match lists restore the exact left-major emission order of the default
// probe-left path — output is byte-identical, only the memory/probe cost
// moves to the smaller input.
func (j *Join) hashJoinBuildLeft(ctx *ExecCtx, left, right []*expr.Row, rOffset int, condTrue bool) ([]*expr.Row, error) {
	ht := make(map[uint64][]int32, len(left))
	for li, l := range left {
		h, ok := hashRowKey(l, j.HashKeysL, 0)
		if !ok {
			continue // NULL join keys never match (SQL semantics)
		}
		ht[h] = append(ht[h], int32(li))
	}
	matches := make([][]int32, len(left))
	total := 0
	for ri, r := range right {
		if ri%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
		}
		h, ok := hashRowKey(r, j.HashKeysR, rOffset)
		if !ok {
			continue
		}
		for _, li := range ht[h] {
			if !joinKeysEqual(left[li], j.HashKeysL, r, j.HashKeysR, rOffset) {
				continue
			}
			matches[li] = append(matches[li], int32(ri))
			total++
		}
	}
	// Emit in left order, right-scan order within each left row — exactly
	// the order the default build-right path produces. The residual
	// condition (always UDF-free here: UDF conditions block the hash
	// strategy) is evaluated per emitted pair in that same order.
	if condTrue {
		ctx.Arena.Reserve(total, total*len(j.rs.Cols), total*len(j.rs.Slots))
	}
	out := make([]*expr.Row, 0, total)
	for li, l := range left {
		if li%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
		}
		for _, ri := range matches[li] {
			row := ctx.Arena.JoinRows(j.rs, l, right[ri])
			if condTrue {
				out = append(out, row)
				continue
			}
			tv, err := expr.EvalPred(ctx.Eval, j.Cond, row)
			if err != nil {
				return nil, err
			}
			if tv == expr.True {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// opKey is the join's stats-store key.
func (j *Join) opKey() string {
	return fmt.Sprintf("join:%v|keys=%v", j.Cond, j.HashKeysL)
}

// ---- Cost model ----

// CostModel estimates cardinalities and costs from the stats store's
// observed selectivities, falling back to textbook heuristics for
// predicates it has never seen. It backs cost-based join ordering and the
// plan-only EXPLAIN annotations; estimates are advisory, never load-bearing
// for correctness.
type CostModel struct {
	Store *stats.Store
}

// Selectivity estimates the pass rate of a predicate: the store's decayed
// observation when available, else a heuristic by shape (equality 0.1,
// range comparison 1/3, everything else 0.5).
func (cm *CostModel) Selectivity(e expr.Expr) float64 {
	if e == nil {
		return 1
	}
	if _, ok := e.(expr.TruePred); ok {
		return 1
	}
	if cm != nil && cm.Store != nil {
		if sel, ok := cm.Store.PredicateSelectivity(predKey(e)); ok {
			return sel
		}
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(e) {
		sel *= heuristicSel(c)
	}
	return sel
}

func heuristicSel(e expr.Expr) float64 {
	cmp, ok := e.(*expr.Cmp)
	if !ok {
		return 0.5
	}
	switch cmp.Op {
	case expr.EQ:
		return 0.1
	case expr.NE:
		return 0.9
	default:
		return 1.0 / 3
	}
}

// leafCard estimates a table's post-selection cardinality: live row count
// times the selectivity of every pushed-down conjunct.
func (cm *CostModel) leafCard(tbl storage.Relation, conds []SelCond) float64 {
	card := float64(tbl.Len())
	for _, c := range conds {
		card *= cm.Selectivity(c.E)
	}
	if card < 1 {
		card = 1
	}
	return card
}

// orderInsensitiveOutput reports whether the query's output is canonical
// regardless of join input order: every select item aggregates with an
// order-insensitive function (COUNT/MIN/MAX — SUM and AVG accumulate floats
// in input order) or is a group-by column, and the Aggregate node sorts its
// group keys. Only such queries are eligible for cost-based join
// reordering; everything else keeps the static order so results stay
// byte-identical with adaptivity off.
func orderInsensitiveOutput(a *Analysis) bool {
	stmt := a.Stmt
	if stmt == nil || !stmt.HasAggregate() {
		return false
	}
	for _, it := range stmt.Items {
		switch it.Agg {
		case sqlparser.AggNone, sqlparser.AggCount, sqlparser.AggMin, sqlparser.AggMax:
		default:
			return false
		}
	}
	return true
}

// orderTablesCost is orderTables with the cost model breaking ties: the
// greedy left-deep order still prefers the best connectivity tier (cheap
// join conditions before UDF-bearing ones — the semantic ordering the
// designs rely on), but within a tier it joins the table with the smallest
// estimated post-selection cardinality next, and it starts from the
// smallest estimated leaf instead of FROM order. Callers gate it on
// orderInsensitiveOutput.
func orderTablesCost(a *Analysis, db storage.Source, cm *CostModel) []int {
	n := len(a.Tables)
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if n <= 1 {
		return out
	}
	cards := make([]float64, n)
	for i, tm := range a.Tables {
		tbl, err := db.Table(tm.Relation)
		if err != nil {
			return out // unknown table: bail to FROM order, Build will error
		}
		cards[i] = cm.leafCard(tbl, a.Sel[tm.Alias])
	}
	start := 0
	for i := 1; i < n; i++ {
		if cards[i] < cards[start] {
			start = i
		}
	}
	perm := []int{start}
	inSet := map[string]bool{a.Tables[start].Alias: true}
	used := make([]bool, n)
	used[start] = true
	for len(perm) < n {
		best, bestScore, bestCard := -1, -1, math.Inf(1)
		for ti := 0; ti < n; ti++ {
			if used[ti] {
				continue
			}
			score := connectivity(a, inSet, a.Tables[ti].Alias)
			if score > bestScore || (score == bestScore && cards[ti] < bestCard) {
				best, bestScore, bestCard = ti, score, cards[ti]
			}
		}
		used[best] = true
		inSet[a.Tables[best].Alias] = true
		perm = append(perm, best)
	}
	return perm
}
