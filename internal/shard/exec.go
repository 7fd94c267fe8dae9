package shard

import (
	"fmt"
	"sync"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
)

// Scatterable is a sharded query source: the live *Store or a frozen *Snap.
// The scatter-gather executor plans per shard against ShardSource(i) and
// merges in insertion-sequence order.
type Scatterable interface {
	NumShards() int
	ShardSource(i int) storage.Source
}

// Eligible reports whether the analyzed query can run scatter-gather: a
// single-table scan/filter/projection with no aggregate or grouping. Those
// shapes partition cleanly — each shard computes its slice of the answer
// independently and the merge is a pure order restoration. Everything else
// (joins, aggregates) runs over the merged views, which is correct for
// every shape.
func Eligible(a *engine.Analysis) bool {
	if len(a.Tables) != 1 || len(a.Joins) != 0 {
		return false
	}
	st := a.Stmt
	return !st.HasAggregate() && len(st.GroupBy) == 0
}

// Scatter is ScatterAnswer's row view: the merged answer as rows.
func Scatter(a *engine.Analysis, src Scatterable, parent *engine.ExecCtx) ([]*expr.Row, *expr.RowSchema, bool, error) {
	ans, schema, ok, err := ScatterAnswer(a, src, parent)
	return ans.View(schema), schema, ok, err
}

// ScatterAnswer runs the analyzed query independently on every shard and
// merges the per-shard answers by source-tuple insertion sequence,
// restoring exactly the order a single merged scan would have produced — the
// output is byte-identical to unsharded execution. When every shard answers
// in columns (engine.ExecuteAnswer) the merge fills one exactly sized
// columnar answer; otherwise it merges rows. Returns ok=false (and does
// nothing) when the query shape is not Eligible.
//
// Each shard executes on its own fork of the parent context (see
// engine.ExecCtx.Fork for what a shard inherits) against a frozen snapshot
// of its replica, so every merge key is read from what the shard scanned. A
// profiled parent records the whole fan-out as one ShardScatter node:
// shards, rows scanned across them, rows merged, wall.
func ScatterAnswer(a *engine.Analysis, src Scatterable, parent *engine.ExecCtx) (engine.Answer, *expr.RowSchema, bool, error) {
	if !Eligible(a) {
		return engine.Answer{}, nil, false, nil
	}
	if parent == nil {
		parent = engine.NewExecCtx()
	}
	n := src.NumShards()
	var pn *engine.OpProfile
	if parent.Prof != nil {
		pn = parent.Prof.Phase("ShardScatter", fmt.Sprintf("%d shards", n))
	}
	parts := make([]part, n)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			p.run(a, src.ShardSource(i), parent.Fork())
		}(&parts[i])
	}
	wg.Wait()
	scanned, columnar := int64(0), true
	for i := range parts {
		if parts[i].err != nil {
			return engine.Answer{}, nil, false, parts[i].err
		}
		scanned += parts[i].scanned
		columnar = columnar && parts[i].ans.Cols != nil
	}
	schema := parts[0].schema
	var ans engine.Answer
	if columnar {
		ans.Cols = mergeColumns(parts)
	} else {
		ans.Rows = mergeRows(parts, schema)
	}
	parent.Prof.End(pn, scanned, int64(ans.Len()))
	return ans, schema, true, nil
}

// part is one shard's share of a scatter: its answer, the insertion
// sequence of each answer row (the merge key) and its scan count.
type part struct {
	ans     engine.Answer
	seqs    []uint64
	schema  *expr.RowSchema
	scanned int64
	err     error
}

// run plans and executes the query on one shard. A live replica is frozen
// first, so a row answer's sequences are looked up in the very snapshot its
// rows came from (a columnar answer carries its own).
func (p *part) run(a *engine.Analysis, ssrc storage.Source, ctx *engine.ExecCtx) {
	if live, ok := ssrc.(storage.Store); ok {
		ssrc = live.Freeze()
	}
	plan, err := engine.Build(a, ssrc)
	if err != nil {
		p.err = err
		return
	}
	p.schema = plan.Schema()
	if p.ans, p.err = engine.ExecuteAnswer(plan, ctx); p.err != nil {
		return
	}
	p.scanned = ctx.Stats.RowsScanned
	if p.ans.Cols != nil {
		p.seqs = p.ans.Cols.Seqs
		return
	}
	// Rows flowing out of an eligible plan carry exactly one base TID.
	tbl, err := ssrc.Table(a.Tables[0].Relation)
	if err != nil {
		p.err = err
		return
	}
	p.seqs = make([]uint64, len(p.ans.Rows))
	for j, row := range p.ans.Rows {
		p.seqs[j] = tbl.Get(row.TIDs[0]).Seq
	}
}

// mergeColumns merges the shards' columnar answers into one, sized once.
func mergeColumns(parts []part) *expr.Columns {
	runs := make([]*expr.Columns, len(parts))
	lens := make([]int, len(parts))
	total := 0
	for i := range parts {
		runs[i] = parts[i].ans.Cols
		lens[i] = runs[i].Len()
		total += lens[i]
	}
	out := expr.NewColumns(runs[0].Kinds(), total, false)
	k := 0
	mergeSeq(lens, func(r, p int) uint64 { return runs[r].Seqs[p] }, func(r, p int) {
		run := runs[r]
		out.TIDs[k] = run.TIDs[p]
		for ci := range out.Cols {
			out.Cols[ci].CopyLane(k, &run.Cols[ci], p)
		}
		k++
	})
	return out
}

// mergeRows merges the shards' answers as rows: a columnar share through
// its row view.
func mergeRows(parts []part, schema *expr.RowSchema) []*expr.Row {
	runs := make([][]*expr.Row, len(parts))
	lens := make([]int, len(parts))
	total := 0
	for i := range parts {
		runs[i] = parts[i].ans.View(schema)
		lens[i] = len(runs[i])
		total += lens[i]
	}
	out := make([]*expr.Row, 0, total)
	mergeSeq(lens, func(r, p int) uint64 { return parts[r].seqs[p] }, func(r, p int) {
		out = append(out, runs[r][p])
	})
	return out
}
