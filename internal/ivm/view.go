// Package ivm implements incremental view maintenance for the single-block
// SPJAG queries the engine supports, following the delta rules of §3.3 of the
// paper:
//
//	σ_C:  Δq = σ_C(ΔR)
//	⋈:    Δq = ΔR₁ ⋈ R₂ + R₁' ⋈ ΔR₂ (+ …), evaluated sequentially with the
//	      already-updated inputs on the left and not-yet-updated on the right
//	γ:    per-group accumulators updated from the signed pre-aggregation rows
//
// The maintained invariant is q(D + ΔD) = q(D) + Δq(D, ΔD): applying the
// deltas of a batch of base-table updates leaves the view equal to a from-
// scratch re-execution of the query. Enrichment updates arrive as value
// changes (old tuple → new tuple), which the view processes as a deletion
// plus an insertion.
// Set-up (New) is one engine query, not a replay of the tables through Apply.
package ivm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// TupleDelta is one base-table change: an insert (Old nil), a delete (New
// nil), or a value update (both set, same tuple id). The progressive
// executors construct these from enrichment write-backs.
type TupleDelta struct {
	Relation string
	Old, New *types.Tuple
}

// Delta is the view-level change produced by one Apply: result rows that
// appeared and disappeared (per occurrence; an updated aggregation group
// contributes its old row to Deleted and its new row to Inserted). This is
// what "fetching delta answers" (§3.3.4) returns to the analyst.
type Delta struct {
	Inserted []*expr.Row
	Deleted  []*expr.Row
}

// aliasInput is the materialized, selection-filtered input of one FROM-clause
// occurrence (the view's subview for that alias).
type aliasInput struct {
	meta engine.TableMeta
	pred expr.Expr // selection conjunction, resolved on the table schema
	rs   *expr.RowSchema
	rows map[int64]*expr.Row // current F_i keyed by tuple id
	node *engine.Rows        // leaf of the shared delta plan

	// snapCache is the materialized snapshot of rows, kept sorted by tid;
	// invalidated on mutation so repeated delta joins avoid re-sorting.
	snapCache []*expr.Row
}

// signedRow is a combined (pre-output) row with a multiset sign.
type signedRow struct {
	row  *expr.Row
	sign int
}

// View is an incrementally maintained materialization of one query. Its
// methods are safe for concurrent use: Apply serializes against readers
// (Rows, InputRows, SizeBytes, Len), so a run's epoch workers — or a caller
// polling delta answers from another goroutine — never observe a view mid-
// maintenance. Note snapshot() mutates the per-alias cache, which makes even
// the read paths writes.
type View struct {
	mu       sync.Mutex
	a        *engine.Analysis
	out      *engine.Output
	inputs   []*aliasInput
	combined *expr.RowSchema
	plan     engine.Plan // join tree over the inputs' Rows leaves
	constOK  bool        // constant conjuncts verdict (computed once)

	// SPJ result: multiset of projected rows. Entries are keyed by the
	// shared types.Hasher over values + tuple ids; buckets hold every entry
	// with the same hash and are resolved by exact row identity, so
	// collisions never merge distinct rows. spjOrder keeps entries in
	// first-materialization order for deterministic Rows output.
	spj      map[uint64][]*spjEntry
	spjOrder []*spjEntry

	// Aggregation result: per-group accumulators.
	groups map[string]*groupState

	// Maintenance counters; nil (the default) discards. SetTelemetry wires
	// them onto a registry.
	applies      *telemetry.Counter // ivm.applies: Apply batches processed
	rowsInserted *telemetry.Counter // ivm.rows_inserted: view-level delta inserts
	rowsDeleted  *telemetry.Counter // ivm.rows_deleted: view-level delta deletes
	applyNanos   *telemetry.Counter // ivm.apply_ns: wall-clock inside Apply
}

// SetTelemetry publishes the view's maintenance counters (ivm.applies,
// ivm.rows_inserted, ivm.rows_deleted, ivm.apply_ns) onto reg. Call before
// concurrent use; a nil registry leaves the counters discarding.
func (v *View) SetTelemetry(reg *telemetry.Registry) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.applies = reg.Counter("ivm.applies")
	v.rowsInserted = reg.Counter("ivm.rows_inserted")
	v.rowsDeleted = reg.Counter("ivm.rows_deleted")
	v.applyNanos = reg.Counter("ivm.apply_ns")
}

type spjEntry struct {
	row   *expr.Row
	count int
}

// New creates a view for the analyzed query and materializes it from the
// current database contents (the paper's query-setup step in epoch e₀): one
// filtered scan per alias on ctx (the vector kernel, and ctx's scan pool when
// it has one), then one execution of the join tree over the survivors. The
// view equals, row for row and in order, an empty view that Apply fed one
// insert per base tuple in scan order. Pass a nil ctx for a fresh one.
func New(a *engine.Analysis, db storage.Source, ctx *engine.ExecCtx) (*View, error) {
	if ctx == nil {
		ctx = engine.NewExecCtx()
	}
	v := &View{a: a, spj: make(map[uint64][]*spjEntry), groups: make(map[string]*groupState)}

	leaves := make([]engine.Plan, len(a.Tables))
	for i, tm := range a.Tables {
		rs := expr.SchemaForTable(tm.Alias, tm.Schema)
		pred := a.SelPred(tm.Alias)
		if err := pred.Resolve(rs); err != nil {
			return nil, err
		}
		in := &aliasInput{
			meta: tm,
			pred: pred,
			rs:   rs,
			rows: make(map[int64]*expr.Row),
			node: engine.NewRows(rs, nil),
		}
		v.inputs = append(v.inputs, in)
		leaves[i] = in.node
	}

	plan, err := engine.BuildJoinTree(a, leaves)
	if err != nil {
		return nil, err
	}
	v.plan = plan
	v.combined = plan.Schema()

	out, err := engine.BuildOutput(a, v.combined)
	if err != nil {
		return nil, err
	}
	v.out = out

	v.constOK = true
	for _, c := range a.Const {
		ce := c.Clone()
		if err := ce.Resolve(v.combined); err != nil {
			return nil, err
		}
		tv, err := expr.EvalPred(ctx.Eval, ce, &expr.Row{Schema: v.combined})
		if err != nil {
			return nil, err
		}
		if tv != expr.True {
			v.constOK = false
		}
	}

	if !v.constOK {
		return v, nil // a constant-false view stays empty; Apply keeps it so
	}

	var rows []*expr.Row // after the loop: the last alias's, in scan order
	for _, in := range v.inputs {
		tbl, err := db.Table(in.meta.Relation)
		if err != nil {
			return nil, err
		}
		if rows, err = engine.NewFilter(engine.NewScan(tbl, in.meta.Alias), in.pred).Execute(ctx); err != nil {
			return nil, err
		}
		in.seed(rows)
	}
	// From empty inputs, Apply's sequential delta rule joins every earlier
	// alias against still-empty inputs, so only the last alias's pass emits
	// rows: the earlier inputs in tid order, the last in scan order.
	last := len(v.inputs) - 1
	for _, in := range v.inputs[:last] {
		in.node.Data = in.snapshot()
	}
	v.inputs[last].node.Data = rows
	joined, err := v.plan.Execute(ctx)
	if err != nil {
		return nil, err
	}
	signed := make([]signedRow, len(joined))
	for i, r := range joined {
		signed[i] = signedRow{row: r, sign: 1}
	}
	if _, err := v.fold(signed); err != nil {
		return nil, err
	}
	return v, nil
}

// seed replaces the filter's rows, in place, with view-owned copies, so the
// view never pins the scan's arena chunks (values alias the immutable stored
// image), and makes them the input's rows.
func (in *aliasInput) seed(rows []*expr.Row) {
	in.rows = make(map[int64]*expr.Row, len(rows))
	for i, r := range rows {
		rows[i] = &expr.Row{Schema: in.rs, Vals: r.Vals, TIDs: []int64{r.TIDs[0]}}
		in.rows[r.TIDs[0]] = rows[i]
	}
}

// Apply maintains the view under a batch of base-table deltas and returns
// the view-level delta. The batch is processed atomically: all per-alias
// input deltas are computed against the pre-batch inputs, then joined with
// the standard sequential rule.
func (v *View) Apply(ctx *engine.ExecCtx, deltas []TupleDelta) (*Delta, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	start := time.Now()
	d, err := v.apply(ctx, deltas)
	v.applyNanos.AddDuration(time.Since(start))
	if err == nil && d != nil {
		v.applies.Inc()
		v.rowsInserted.Add(int64(len(d.Inserted)))
		v.rowsDeleted.Add(int64(len(d.Deleted)))
	}
	return d, err
}

// apply is Apply's body; the caller holds v.mu.
func (v *View) apply(ctx *engine.ExecCtx, deltas []TupleDelta) (*Delta, error) {
	if ctx == nil {
		ctx = engine.NewExecCtx()
	}
	if !v.constOK {
		return &Delta{}, nil
	}

	deltas = coalesce(deltas)

	// Per-alias signed input deltas.
	type inputDelta struct {
		plus, minus []*expr.Row
	}
	inDeltas := make([]inputDelta, len(v.inputs))
	for _, d := range deltas {
		for ii, in := range v.inputs {
			if in.meta.Relation != d.Relation {
				continue
			}
			var tid int64
			if d.Old != nil {
				tid = d.Old.ID
			} else if d.New != nil {
				tid = d.New.ID
			} else {
				return nil, fmt.Errorf("ivm: empty tuple delta for %s", d.Relation)
			}
			oldRow, oldIn := in.rows[tid]
			var newRow *expr.Row
			newIn := false
			if d.New != nil {
				// Stored images are copy-on-write, never mutated in place,
				// so the view's row may alias the tuple's values.
				newRow = expr.RowFromTuple(in.rs, d.New)
				tv, err := expr.EvalPred(ctx.Eval, in.pred, newRow)
				if err != nil {
					return nil, err
				}
				newIn = tv == expr.True
			}
			switch {
			case !oldIn && newIn:
				inDeltas[ii].plus = append(inDeltas[ii].plus, newRow)
			case oldIn && !newIn:
				inDeltas[ii].minus = append(inDeltas[ii].minus, oldRow)
			case oldIn && newIn:
				if !sameRowVals(oldRow, newRow) {
					inDeltas[ii].minus = append(inDeltas[ii].minus, oldRow)
					inDeltas[ii].plus = append(inDeltas[ii].plus, newRow)
				}
			}
		}
	}

	// Sequential delta join: for alias i, join ΔF_i against F_j (j≠i), where
	// F_j for j<i is already updated and for j>i still holds the old rows.
	var signed []signedRow
	for ii, in := range v.inputs {
		d := inDeltas[ii]
		if len(d.plus) == 0 && len(d.minus) == 0 {
			continue
		}
		for jj, other := range v.inputs {
			if jj != ii {
				other.node.Data = other.snapshot()
			}
		}
		for _, batch := range []struct {
			rows []*expr.Row
			sign int
		}{{d.plus, 1}, {d.minus, -1}} {
			if len(batch.rows) == 0 {
				continue
			}
			in.node.Data = batch.rows
			joined, err := v.plan.Execute(ctx)
			if err != nil {
				return nil, err
			}
			for _, r := range joined {
				signed = append(signed, signedRow{row: r, sign: batch.sign})
			}
		}
		// Apply ΔF_i so later aliases see the updated input.
		for _, r := range d.minus {
			delete(in.rows, r.TIDs[0])
		}
		for _, r := range d.plus {
			in.rows[r.TIDs[0]] = r
		}
		in.snapCache = nil
	}
	return v.fold(signed)
}

// fold folds signed combined rows into the result.
func (v *View) fold(signed []signedRow) (*Delta, error) {
	if v.out.Agg != nil {
		return v.applyAgg(signed)
	}
	return v.applySPJ(signed), nil
}

// coalesce merges multiple deltas for the same (relation, tuple) within a
// batch into one net change (first Old, last New), dropping changes that net
// out entirely (e.g. insert followed by delete).
func coalesce(deltas []TupleDelta) []TupleDelta {
	type key struct {
		rel string
		tid int64
	}
	idx := make(map[key]int)
	out := make([]TupleDelta, 0, len(deltas))
	for _, d := range deltas {
		var tid int64
		if d.Old != nil {
			tid = d.Old.ID
		} else if d.New != nil {
			tid = d.New.ID
		} else {
			continue
		}
		k := key{d.Relation, tid}
		if i, ok := idx[k]; ok {
			out[i].New = d.New
			continue
		}
		idx[k] = len(out)
		out = append(out, d)
	}
	// Drop entries that net to nothing (insert+delete in one batch).
	final := out[:0]
	for _, d := range out {
		if d.Old == nil && d.New == nil {
			continue
		}
		final = append(final, d)
	}
	return final
}

// snapshot returns the input's rows in deterministic (tid) order, cached
// until the next mutation.
func (in *aliasInput) snapshot() []*expr.Row {
	if in.snapCache != nil {
		return in.snapCache
	}
	ids := make([]int64, 0, len(in.rows))
	for id := range in.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*expr.Row, len(ids))
	for i, id := range ids {
		out[i] = in.rows[id]
	}
	in.snapCache = out
	return out
}

// applySPJ folds signed combined rows into the multiset result, netting out
// rows that were deleted and re-inserted unchanged within the batch.
func (v *View) applySPJ(signed []signedRow) *Delta {
	type netEntry struct {
		row  *expr.Row
		hash uint64
		sign int
	}
	net := make(map[uint64][]*netEntry)
	var order []*netEntry
	for _, sr := range signed {
		row := v.project(sr.row)
		h := row.IdentityHash()
		var e *netEntry
		for _, cand := range net[h] {
			if cand.row.SameIdentity(row) {
				e = cand
				break
			}
		}
		if e != nil {
			e.sign += sr.sign
			continue
		}
		e = &netEntry{row: row, hash: h, sign: sr.sign}
		net[h] = append(net[h], e)
		order = append(order, e)
	}
	delta := &Delta{}
	for _, e := range order {
		if e.sign == 0 {
			continue
		}
		var ent *spjEntry
		for _, cand := range v.spj[e.hash] {
			if cand.row.SameIdentity(e.row) {
				ent = cand
				break
			}
		}
		if ent == nil {
			ent = &spjEntry{row: e.row}
			v.spj[e.hash] = append(v.spj[e.hash], ent)
			v.spjOrder = append(v.spjOrder, ent)
		}
		ent.count += e.sign
		n := e.sign
		for ; n > 0; n-- {
			delta.Inserted = append(delta.Inserted, e.row)
		}
		for ; n < 0; n++ {
			delta.Deleted = append(delta.Deleted, ent.row)
		}
	}
	return delta
}

// project applies the non-aggregate output spec to a combined row.
func (v *View) project(r *expr.Row) *expr.Row {
	if v.out.Star || v.out.Proj == nil {
		return r
	}
	vals := make([]types.Value, len(v.out.Proj))
	for i, ci := range v.out.Proj {
		vals[i] = r.Vals[ci]
	}
	return &expr.Row{Schema: v.out.Schema, Vals: vals, TIDs: r.TIDs}
}

// Rows returns the current view contents (one row per multiset occurrence),
// in first-materialization order for SPJ queries and sorted group order for
// aggregations.
func (v *View) Rows() []*expr.Row {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.out.Agg != nil {
		return v.aggRows()
	}
	var out []*expr.Row
	for _, e := range v.spjOrder {
		for i := 0; i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// Schema returns the view's output schema.
func (v *View) Schema() *expr.RowSchema { return v.out.Schema }

// InputRows returns a snapshot of the alias's current filtered input (F_i) —
// the tuples, post-selection, that the view's join currently sees. The tight
// design's per-epoch delta evaluation joins planned tuples against these.
func (v *View) InputRows(alias string) []*expr.Row {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, in := range v.inputs {
		if in.meta.Alias == alias {
			return in.snapshot()
		}
	}
	return nil
}

// SizeBytes estimates the materialized view's footprint (Exp 5): 8 bytes per
// value plus tuple-id bookkeeping per stored result row, 8 bytes per group
// value plus the group's one int64 row count, and one tid index entry per
// filtered input row.
func (v *View) SizeBytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var size int64
	for _, e := range v.spjOrder {
		if e.count > 0 {
			size += int64(len(e.row.Vals))*8 + int64(len(e.row.TIDs))*8
		}
	}
	for _, g := range v.groups {
		if g.rows > 0 {
			size += int64(len(g.groupVals))*8 + 8
		}
	}
	for _, in := range v.inputs {
		size += int64(len(in.rows)) * 8 // tid index entries
	}
	return size
}

// Len returns the number of result rows currently in the view.
func (v *View) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.out.Agg != nil {
		n := 0
		for _, g := range v.groups {
			if g.rows > 0 {
				n++
			}
		}
		return n
	}
	n := 0
	for _, e := range v.spjOrder {
		n += e.count
	}
	return n
}

func sameRowVals(a, b *expr.Row) bool {
	if len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		av, bv := a.Vals[i], b.Vals[i]
		if av.IsNull() != bv.IsNull() {
			return false
		}
		if !av.IsNull() && !av.Equal(bv) {
			return false
		}
	}
	return true
}

// groupState accumulates one aggregation group incrementally: its row
// count, which every COUNT(*) of the select list reads.
type groupState struct {
	groupVals []types.Value
	rows      int64
}

// applyAgg folds signed combined rows into the per-group counts and reports
// changed groups as delete-old/insert-new row pairs.
func (v *View) applyAgg(signed []signedRow) (*Delta, error) {
	agg := v.out.Agg
	touched := make(map[string]*expr.Row) // key -> output row before the batch (nil entry = absent)
	for _, sr := range signed {
		key := sr.row.Key(agg.GroupBy)
		g, ok := v.groups[key]
		if !ok {
			gv := make([]types.Value, len(agg.GroupBy))
			for i, gi := range agg.GroupBy {
				gv[i] = sr.row.Vals[gi]
			}
			g = &groupState{groupVals: gv}
			v.groups[key] = g
		}
		if _, seen := touched[key]; !seen {
			touched[key] = v.groupRow(g) // nil when rows == 0
		}
		g.rows += int64(sr.sign)
		if g.rows < 0 {
			return nil, fmt.Errorf("ivm: negative group cardinality for key %q", key)
		}
	}

	delta := &Delta{}
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		oldRow := touched[key]
		newRow := v.groupRow(v.groups[key])
		switch {
		case oldRow == nil && newRow == nil:
		case oldRow == nil:
			delta.Inserted = append(delta.Inserted, newRow)
		case newRow == nil:
			delta.Deleted = append(delta.Deleted, oldRow)
			delete(v.groups, key)
		case !sameRowVals(oldRow, newRow):
			delta.Deleted = append(delta.Deleted, oldRow)
			delta.Inserted = append(delta.Inserted, newRow)
		}
	}
	return delta, nil
}

// groupRow renders a group's current output row (post-reorder), or nil when
// the group is empty.
func (v *View) groupRow(g *groupState) *expr.Row {
	if g.rows <= 0 {
		return nil
	}
	vals := v.out.Agg.GroupRow(g.groupVals, g.rows)
	if v.out.Reorder != nil {
		re := make([]types.Value, len(v.out.Reorder))
		for i, w := range v.out.Reorder {
			re[i] = vals[w]
		}
		vals = re
	}
	return &expr.Row{Schema: v.out.Schema, Vals: vals}
}

// aggRows renders all non-empty groups in deterministic order.
func (v *View) aggRows() []*expr.Row {
	keys := make([]string, 0, len(v.groups))
	for k := range v.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*expr.Row
	for _, k := range keys {
		if r := v.groupRow(v.groups[k]); r != nil {
			out = append(out, r)
		}
	}
	return out
}
