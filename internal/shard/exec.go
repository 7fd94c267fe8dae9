package shard

import (
	"fmt"
	"sort"
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
// single-table scan/filter/projection with no aggregate, grouping, ordering
// or limit. Those shapes partition cleanly — each shard computes its slice
// of the answer independently and the merge is a pure order restoration.
// Everything else (joins, aggregates, LIMIT) runs over the merged views,
// which is correct for every shape.
func Eligible(a *engine.Analysis) bool {
	if len(a.Tables) != 1 || len(a.Joins) != 0 {
		return false
	}
	st := a.Stmt
	return !st.HasAggregate() && len(st.GroupBy) == 0 && len(st.OrderBy) == 0 && st.Limit < 0
}

// Scatter runs the analyzed query independently on every shard and merges
// the per-shard row streams by source-tuple insertion sequence, restoring
// exactly the order a single merged scan would have produced — the output
// is byte-identical to unsharded execution. Returns ok=false (and does
// nothing) when the query shape is not Eligible.
//
// Each shard executes on its own fork of the parent context (see
// engine.ExecCtx.Fork for what a shard inherits). A profiled parent records
// the whole fan-out as one ShardScatter node: shards, rows scanned across
// them, rows merged, wall.
func Scatter(a *engine.Analysis, src Scatterable, parent *engine.ExecCtx) ([]*expr.Row, *expr.RowSchema, bool, error) {
	if !Eligible(a) {
		return nil, nil, false, nil
	}
	if parent == nil {
		parent = engine.NewExecCtx()
	}
	n := src.NumShards()
	rel := a.Tables[0].Relation
	var pn *engine.OpProfile
	if parent.Prof != nil {
		pn = parent.Prof.Phase("ShardScatter", fmt.Sprintf("%d shards", n))
	}

	type shardOut struct {
		rows    []*expr.Row
		seqs    []uint64
		scanned int64
		err     error
	}
	outs := make([]shardOut, n)
	var schema *expr.RowSchema
	var schemaMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ssrc := src.ShardSource(i)
			plan, err := engine.Build(a, ssrc)
			if err != nil {
				outs[i].err = err
				return
			}
			schemaMu.Lock()
			if schema == nil {
				schema = plan.Schema()
			}
			schemaMu.Unlock()
			ctx := parent.Fork()
			rows, err := plan.Execute(ctx)
			if err != nil {
				outs[i].err = err
				return
			}
			// Tag each row with its source tuple's insertion sequence for the
			// merge. Rows flowing out of an eligible plan carry exactly one
			// base TID; a tuple deleted between execute and tag (live scatter
			// under concurrent writers) inherits its predecessor's slot, which
			// keeps the merge total and deterministic for frozen sources.
			tbl, terr := ssrc.Table(rel)
			if terr != nil {
				outs[i].err = terr
				return
			}
			seqs := make([]uint64, len(rows))
			var prev uint64
			for j, row := range rows {
				if len(row.TIDs) > 0 {
					if tu := tbl.Get(row.TIDs[0]); tu != nil {
						prev = tu.Seq
					}
				}
				seqs[j] = prev
			}
			outs[i] = shardOut{rows: rows, seqs: seqs, scanned: ctx.Stats.RowsScanned}
		}(i)
	}
	wg.Wait()
	total, scanned := 0, int64(0)
	for i := range outs {
		if outs[i].err != nil {
			return nil, nil, false, outs[i].err
		}
		total += len(outs[i].rows)
		scanned += outs[i].scanned
	}
	type tagged struct {
		row   *expr.Row
		seq   uint64
		shard int
		pos   int
	}
	merged := make([]tagged, 0, total)
	for i := range outs {
		for j, row := range outs[i].rows {
			merged = append(merged, tagged{row: row, seq: outs[i].seqs[j], shard: i, pos: j})
		}
	}
	sort.Slice(merged, func(x, y int) bool {
		if merged[x].seq != merged[y].seq {
			return merged[x].seq < merged[y].seq
		}
		if merged[x].shard != merged[y].shard {
			return merged[x].shard < merged[y].shard
		}
		return merged[x].pos < merged[y].pos
	})
	rows := make([]*expr.Row, len(merged))
	for i := range merged {
		rows[i] = merged[i].row
	}
	parent.Prof.End(pn, scanned, int64(len(rows)))
	return rows, schema, true, nil
}
