package engine

import (
	"fmt"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// SemiJoin keeps the rows of L that join with at least one row of R under
// the conjunction of Conds, in L's order — the loose design's semi-join
// reduction over fixed join conditions (§2.1 Step 3). The strategy is the
// one the join on the same conditions would use (configureJoin): a hash
// table over R's equi-join keys plus any residual, or a nested loop. NULL
// keys never match.
type SemiJoin struct {
	j     *Join
	Conds []expr.Expr
}

// NewSemiJoin builds a semi-join node; conds are unresolved expressions over
// l's aliases and the single alias r scans.
func NewSemiJoin(l, r Plan, conds []expr.Expr) (*SemiJoin, error) {
	jcs := make([]JoinCond, len(conds))
	for i, c := range conds {
		jcs[i] = JoinCond{E: c}
	}
	j := NewJoin(l, r)
	if err := configureJoin(j, jcs, l.Schema(), r.Schema().Slots[0].Alias); err != nil {
		return nil, fmt.Errorf("engine: semi-join condition: %w", err)
	}
	return &SemiJoin{j: j, Conds: conds}, nil
}

// Schema returns the left input's schema.
func (s *SemiJoin) Schema() *expr.RowSchema { return s.j.L.Schema() }

func (s *SemiJoin) name() string {
	if s.j.Hash() {
		return "HashSemiJoin"
	}
	return "NestedLoopSemiJoin"
}

// Execute runs the reduction.
func (s *SemiJoin) Execute(ctx *ExecCtx) ([]*expr.Row, error) {
	if ctx.Prof == nil {
		return s.execute(ctx)
	}
	n := ctx.profEnter(s.name(), fmt.Sprintf("on %s", expr.NewAnd(s.Conds...)))
	out, err := s.execute(ctx)
	ctx.profExit(n, len(out), err)
	return out, err
}

func (s *SemiJoin) execute(ctx *ExecCtx) ([]*expr.Row, error) {
	j := s.j
	left, err := j.L.Execute(ctx)
	if err != nil || len(left) == 0 || len(s.Conds) == 0 {
		return left, err
	}
	right, err := j.R.Execute(ctx)
	if err != nil {
		return nil, err
	}
	rOff := len(j.L.Schema().Cols)
	var ht map[uint64][]*expr.Row
	if j.Hash() {
		ht = make(map[uint64][]*expr.Row, len(right))
		for _, r := range right {
			if h, ok := hashRowKey(r, j.HashKeysR, rOff); ok {
				ht[h] = append(ht[h], r)
			}
		}
	}
	// Residual pairs are evaluated in one scratch row: the fixed condition is
	// UDF-free, so nothing retains it.
	_, condTrue := j.Cond.(expr.TruePred)
	pair := &expr.Row{Schema: j.rs, Vals: make([]types.Value, len(j.rs.Cols)), TIDs: make([]int64, len(j.rs.Slots))}
	var out []*expr.Row
	for li, l := range left {
		if li%cancelCheckStride == 0 {
			if err := ctx.CancelErr(); err != nil {
				return nil, err
			}
		}
		cands := right
		if ht != nil {
			h, ok := hashRowKey(l, j.HashKeysL, 0)
			if !ok {
				continue
			}
			cands = ht[h]
		}
		copy(pair.Vals, l.Vals)
		copy(pair.TIDs, l.TIDs)
		for _, r := range cands {
			if ht != nil && !joinKeysEqual(l, j.HashKeysL, r, j.HashKeysR, rOff) {
				continue
			}
			if !condTrue {
				ctx.Stats.JoinPairs++
				copy(pair.Vals[rOff:], r.Vals)
				copy(pair.TIDs[len(l.TIDs):], r.TIDs)
				tv, err := expr.EvalPred(ctx.Eval, j.Cond, pair)
				if err != nil {
					return nil, err
				}
				if tv != expr.True {
					continue
				}
			}
			out = append(out, l)
			break
		}
	}
	return out, nil
}

// Explain renders the subtree.
func (s *SemiJoin) Explain(indent string) string {
	return fmt.Sprintf("%s%s on %s\n%s%s", indent, s.name(), expr.NewAnd(s.Conds...),
		s.j.L.Explain(indent+"  "), s.j.R.Explain(indent+"  "))
}
