package engine

import (
	"fmt"
	"math"

	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
)

// This file implements the engine half of the adaptive cost-based
// optimization layer (DESIGN §14): runtime build-side selection for hash
// joins, and the small observed-cardinality cost model behind cost-based join
// ordering and plan-only EXPLAIN annotations. Filters keep their static
// conjunct order: every Filter execution, on whichever path ran, reports its
// pass rate to ExecCtx.Adapt (a stats.Store) under predKey, and the cost model
// reads it back. A nil store — the default — keeps every hot loop on the exact
// pre-adaptive code path.
//
// Correctness contract: adaptivity never changes an answer's rows or their
// order. The swapped-build join emits in the default path's order, and
// cost-based join ordering applies only to outputs that canonicalize under any
// join order (orderInsensitiveOutput).

// adaptiveBuildSwapFactor: a hash join builds on the left input when it is at
// least this factor smaller than the right (the default build side). The
// hysteresis keeps near-equal inputs on the familiar path.
const adaptiveBuildSwapFactor = 2

// predKey is the stats-store key of a predicate: its rendered form, which
// is stable across plan rebuilds of the same query shape.
func predKey(e expr.Expr) string { return fmt.Sprint(e) }

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
// times the selectivity of the alias's pushed-down predicate, looked up under
// the key its leaf Filter observes.
func (cm *CostModel) leafCard(tbl storage.Relation, push expr.Expr) float64 {
	card := float64(tbl.Len()) * cm.Selectivity(push)
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

// orderTablesCost is orderTables with the cost model over opts.Stats breaking
// ties: the greedy left-deep order still prefers the best connectivity tier
// (cheap join conditions before UDF-bearing ones — the semantic ordering the
// designs rely on), but within a tier it joins the table with the smallest
// estimated post-selection cardinality next, and it starts from the smallest
// estimated leaf instead of FROM order. Callers gate it on
// orderInsensitiveOutput.
func orderTablesCost(a *Analysis, db storage.Source, opts BuildOptions) []int {
	n := len(a.Tables)
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if n <= 1 {
		return out
	}
	cm := &CostModel{Store: opts.Stats}
	cards := make([]float64, n)
	for i, tm := range a.Tables {
		tbl, err := db.Table(tm.Relation)
		if err != nil {
			return out // unknown table: bail to FROM order, Build will error
		}
		push, _ := splitSelPred(a, tm.Alias, !opts.NoUDFPullUp, opts.NoFixedFirstOrdering)
		cards[i] = cm.leafCard(tbl, push)
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
