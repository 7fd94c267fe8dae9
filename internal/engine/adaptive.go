package engine

import (
	"fmt"

	"enrichdb/internal/expr"
	"enrichdb/internal/stats"
)

// This file implements the engine half of the adaptive cost-based
// optimization layer (DESIGN §14): runtime build-side selection for hash
// joins, and the small observed-selectivity cost model behind plan-only
// EXPLAIN annotations. Joins keep the static order Build gives them, and
// filters their static conjunct order: every Filter execution, on whichever
// path ran, reports its pass rate to ExecCtx.Adapt (a stats.Store) under
// predKey, and the cost model reads it back. A nil store — the default —
// keeps every hot loop on the exact pre-adaptive code path.
//
// Correctness contract: adaptivity never changes an answer's rows or their
// order. The swapped-build join emits in the default path's order.

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
// predicates it has never seen. It backs the plan-only EXPLAIN annotations;
// estimates are advisory, never load-bearing for correctness.
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
