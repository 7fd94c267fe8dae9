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
		rows    []seqRow
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
			// Tag each row with its source tuple's insertion sequence, the
			// merge key: a shard's plan emits rows in slab order, so the
			// tags form a Seq-ascending run. Rows flowing out of an eligible
			// plan carry exactly one base TID; a row whose tuple a live
			// writer deleted between execute and tag inherits its
			// predecessor's seq, keeping its place in the run, and the merge
			// breaks the tie by (shard, pos).
			tbl, terr := ssrc.Table(rel)
			if terr != nil {
				outs[i].err = terr
				return
			}
			tagged := make([]seqRow, len(rows))
			var prev uint64
			for j, row := range rows {
				if len(row.TIDs) > 0 {
					if tu := tbl.Get(row.TIDs[0]); tu != nil {
						prev = tu.Seq
					}
				}
				tagged[j] = seqRow{seq: prev, row: row}
			}
			outs[i] = shardOut{rows: tagged, scanned: ctx.Stats.RowsScanned}
		}(i)
	}
	wg.Wait()
	runs := make([][]seqRow, n)
	scanned := int64(0)
	for i := range outs {
		if outs[i].err != nil {
			return nil, nil, false, outs[i].err
		}
		runs[i] = outs[i].rows
		scanned += outs[i].scanned
	}
	merged := mergeRuns(runs, func(r seqRow) uint64 { return r.seq })
	rows := make([]*expr.Row, len(merged))
	for i := range merged {
		rows[i] = merged[i].row
	}
	parent.Prof.End(pn, scanned, int64(len(rows)))
	return rows, schema, true, nil
}

// seqRow is a shard's output row tagged with its source tuple's insertion
// sequence, the merge key.
type seqRow struct {
	seq uint64
	row *expr.Row
}
