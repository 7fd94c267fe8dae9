// Package loose implements the paper's loosely coupled design (§2.1): probe
// queries identify the minimal set of tuples that must be enriched to answer
// a query, the tuples are enriched in batch at an enrichment server (in
// process or over TCP), the enriched values are written back, and the query
// then executes normally in the DBMS.
package loose

import (
	"fmt"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// ProbeResult is the probe-query output for one FROM-clause occurrence: the
// tuples that require enrichment and the derived attributes the query needs.
// These rows populate the PlanSpaceTable (§3.3.1).
type ProbeResult struct {
	Alias    string
	Relation string
	Attrs    []string
	TIDs     []int64
}

// ProbeOptions toggles the three minimality strategies of §2.1; the
// ablation benchmarks disable them one at a time to quantify each one's
// contribution. The zero value enables everything.
type ProbeOptions struct {
	// NoSelections disables "Exploiting Selection Conditions on Fixed
	// Attributes" (and the derived-condition rewrite): every tuple of the
	// relation becomes a candidate.
	NoSelections bool
	// NoPriorWork disables "Exploiting Prior Work": fully enriched tuples
	// are not filtered out.
	NoPriorWork bool
	// NoSemiJoins disables "Exploiting Join Conditions on Fixed
	// Attributes" (Steps 2–3).
	NoSemiJoins bool
}

// GenerateProbes runs probe-query generation (Steps 0–4 of §2.1) for every
// alias of the query that references derived attributes:
//
//	Step 0 happened in engine.Analyze (query tree, CNF, fixed/derived split).
//	Step 1: reduce each alias by its fixed selection conditions and by the
//	        rewritten derived conditions ((not fully enriched) ∨ C), which
//	        exploits prior enrichment work.
//	Step 2: build the join graph over fixed join conditions only.
//	Step 3: for each target alias, generate semi-join programs bottom-up over
//	        a BFS spanning tree rooted at the alias.
//	Step 4: the probe result is the reduced, semi-join-filtered tuple set,
//	        keeping only tuples with at least one not-fully-enriched
//	        attribute.
func GenerateProbes(a *engine.Analysis, db storage.Source, mgr *enrich.Manager, ctx *engine.ExecCtx) ([]ProbeResult, error) {
	return GenerateProbesOpt(a, db, mgr, ctx, ProbeOptions{})
}

// GenerateProbesOpt is GenerateProbes with strategy toggles.
func GenerateProbesOpt(a *engine.Analysis, db storage.Source, mgr *enrich.Manager, ctx *engine.ExecCtx, opts ProbeOptions) ([]ProbeResult, error) {
	if ctx == nil {
		ctx = engine.NewExecCtx()
	}

	// Step 1: reduced relations.
	reduced := make(map[string][]*expr.Row, len(a.Tables))
	schemas := make(map[string]*expr.RowSchema, len(a.Tables))
	for _, tm := range a.Tables {
		rows, rs, err := reduceAlias(a, tm, db, mgr, ctx, opts)
		if err != nil {
			return nil, err
		}
		reduced[tm.Alias] = rows
		schemas[tm.Alias] = rs
	}

	// Step 2: join graph over fixed join conditions.
	graph := buildJoinGraph(a)

	var results []ProbeResult
	for _, tm := range a.Tables {
		attrs := a.DerivedAttrsOf(tm.Alias)
		if len(attrs) == 0 {
			continue
		}
		// Step 3: semi-join program over the BFS spanning tree.
		rows := reduced[tm.Alias]
		if !opts.NoSemiJoins {
			var err error
			rows, err = semiJoinReduce(tm.Alias, graph, reduced, schemas, ctx, map[string]bool{tm.Alias: true})
			if err != nil {
				return nil, err
			}
		}
		// Step 4: keep tuples that still need enrichment (Figure 3's bitmap
		// test, via the manager). Prior work counts only when it matches the
		// tuple image this source exposes (generation check), so a snapshot
		// session re-enriches tuples whose shared state a later committed
		// write has superseded.
		tbl, err := db.Table(tm.Relation)
		if err != nil {
			return nil, err
		}
		var tids []int64
		for _, r := range rows {
			tid := r.TIDs[0]
			if opts.NoPriorWork {
				tids = append(tids, tid)
				continue
			}
			tu := tbl.Get(tid)
			if tu == nil {
				continue
			}
			for _, attr := range attrs {
				// A fully enriched tuple whose image still carries NULL is
				// kept too: another session may have executed the functions
				// after this source snapshotted the tuple but before the
				// determined value reached the base table (state writes
				// first). BuildRequests patches such tuples from the shared
				// state without re-running anything.
				ai := tbl.Schema().ColIndex(attr)
				if !mgr.FullyEnrichedAt(tm.Relation, tid, attr, tu.Gen) ||
					(ai >= 0 && tu.Vals[ai].IsNull()) {
					tids = append(tids, tid)
					break
				}
			}
		}
		results = append(results, ProbeResult{
			Alias:    tm.Alias,
			Relation: tm.Relation,
			Attrs:    attrs,
			TIDs:     tids,
		})
	}
	return results, nil
}

// cancelCheckStride is how many tuples a probe scan reads between polls of
// the context's Done channel (the engine's filter loops use the same stride).
const cancelCheckStride = 1024

// reduceAlias applies Step 1 to one alias: fixed selection conditions are
// evaluated as-is; each derived condition C over attributes A₁..Aₙ passes a
// tuple when C holds on the current determined values OR some Aᵢ is not yet
// fully enriched (the paper's (⋁ Aᵢ IS NULL) ∨ C rewrite, generalized to the
// progressive bitmap test).
func reduceAlias(a *engine.Analysis, tm engine.TableMeta, db storage.Source, mgr *enrich.Manager, ctx *engine.ExecCtx, opts ProbeOptions) ([]*expr.Row, *expr.RowSchema, error) {
	tbl, err := db.Table(tm.Relation)
	if err != nil {
		return nil, nil, err
	}
	rs := expr.SchemaForTable(tm.Alias, tm.Schema)

	type condEval struct {
		cond engine.SelCond
		pred expr.Expr
	}
	var conds []condEval
	if !opts.NoSelections {
		for _, c := range a.Sel[tm.Alias] {
			p := c.E.Clone()
			if err := p.Resolve(rs); err != nil {
				return nil, nil, err
			}
			conds = append(conds, condEval{cond: c, pred: p})
		}
	}

	var out []*expr.Row
	var evalErr error
	scanned := 0
	tbl.Scan(func(t *types.Tuple) bool {
		if scanned%cancelCheckStride == 0 {
			if evalErr = ctx.CancelErr(); evalErr != nil {
				return false
			}
		}
		scanned++
		row := expr.RowFromTuple(rs, t)
		keep := true
		for _, ce := range conds {
			tv, err := expr.EvalPred(ctx.Eval, ce.pred, row)
			if err != nil {
				evalErr = err
				return false
			}
			if tv == expr.True {
				continue
			}
			if !ce.cond.Derived {
				keep = false
				break
			}
			// Derived condition failed (or is Unknown) on current values:
			// the tuple survives only if more enrichment could change it.
			// Without prior-work exploitation the state is not consulted,
			// so every tuple is assumed enrichable.
			enrichable := opts.NoPriorWork
			for _, ref := range ce.cond.DerivedRefs {
				if enrichable {
					break
				}
				if ref.Alias != tm.Alias {
					continue
				}
				if !mgr.FullyEnrichedAt(tm.Relation, t.ID, ref.Attr, t.Gen) {
					enrichable = true
					continue
				}
				// Fully enriched but the image value never arrived (a peer
				// session's determined value was racing this snapshot):
				// patching from state could still change the verdict.
				if ai := tm.Schema.ColIndex(ref.Attr); ai >= 0 && t.Vals[ai].IsNull() {
					enrichable = true
				}
			}
			if !enrichable {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	ctx.Stats.RowsScanned += int64(tbl.Len())
	return out, rs, nil
}

// joinGraph is Step 2's structure: an adjacency list of fixed join
// conditions between aliases.
type joinGraph map[string][]graphEdge

type graphEdge struct {
	other string
	conds []expr.Expr // fixed join conjuncts (unresolved clones)
}

// buildJoinGraph collects fixed join conditions between alias pairs; derived
// join conditions are removed as in the paper. Conditions spanning three or
// more aliases cannot drive a pairwise semi-join and are skipped.
func buildJoinGraph(a *engine.Analysis) joinGraph {
	g := make(joinGraph)
	for _, jc := range a.Joins {
		if jc.Derived || len(jc.Aliases) != 2 {
			continue
		}
		x, y := jc.Aliases[0], jc.Aliases[1]
		g.addEdge(x, y, jc.E)
		g.addEdge(y, x, jc.E)
	}
	return g
}

func (g joinGraph) addEdge(from, to string, cond expr.Expr) {
	for i := range g[from] {
		if g[from][i].other == to {
			g[from][i].conds = append(g[from][i].conds, cond)
			return
		}
	}
	g[from] = append(g[from], graphEdge{other: to, conds: []expr.Expr{cond}})
}

// semiJoinReduce is Step 3: reduce the root alias's rows by semi-joining
// with each BFS-tree child's (recursively reduced) rows.
func semiJoinReduce(root string, g joinGraph, reduced map[string][]*expr.Row, schemas map[string]*expr.RowSchema, ctx *engine.ExecCtx, visited map[string]bool) ([]*expr.Row, error) {
	rows := reduced[root]
	for _, e := range g[root] {
		if visited[e.other] {
			continue
		}
		visited[e.other] = true
		childRows, err := semiJoinReduce(e.other, g, reduced, schemas, ctx, visited)
		if err != nil {
			return nil, err
		}
		rows, err = SemiJoin(rows, schemas[root], childRows, schemas[e.other], e.conds, ctx)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// SemiJoin keeps the left rows that join with at least one right row under
// the conjunction of conds. Pure equi-join conditions use a hash table; any
// other shape falls back to a nested loop. Exported as the semi-join kernel:
// the probe generator is its only production caller, but the kernel benchmark
// suite drives it directly.
func SemiJoin(left []*expr.Row, leftRS *expr.RowSchema, right []*expr.Row, rightRS *expr.RowSchema, conds []expr.Expr, ctx *engine.ExecCtx) ([]*expr.Row, error) {
	if len(left) == 0 || len(conds) == 0 {
		return left, nil
	}
	combined := expr.Concat(leftRS, rightRS)

	// Try the hash path: every condition a column equality across the sides.
	var lKeys, rKeys []int
	hashable := true
	for _, c := range conds {
		lc, rc, ok := expr.EquiJoinCols(c)
		if !ok {
			hashable = false
			break
		}
		li, lerr := leftRS.Lookup(lc.Alias, lc.Name)
		ri, rerr := rightRS.Lookup(rc.Alias, rc.Name)
		if lerr != nil || rerr != nil {
			// Orientation was the other way around.
			li, lerr = leftRS.Lookup(rc.Alias, rc.Name)
			ri, rerr = rightRS.Lookup(lc.Alias, lc.Name)
			if lerr != nil || rerr != nil {
				hashable = false
				break
			}
		}
		lKeys = append(lKeys, li)
		rKeys = append(rKeys, ri)
	}

	var out []*expr.Row
	if hashable {
		// Build a hashed key set over the right side. Buckets hold one
		// representative row per distinct key; probes verify column equality
		// so hash collisions never produce spurious matches. Like the
		// original string-key implementation, NULL keys match NULL here —
		// the semi-join only bounds the probe's candidate set, and the final
		// query applies real SQL semantics.
		ht := make(map[uint64][]*expr.Row, len(right))
	build:
		for _, r := range right {
			h := semiKeyHash(r, rKeys)
			for _, cand := range ht[h] {
				if semiKeysEqual(cand, rKeys, r, rKeys) {
					continue build
				}
			}
			ht[h] = append(ht[h], r)
		}
		for _, l := range left {
			for _, r := range ht[semiKeyHash(l, lKeys)] {
				if semiKeysEqual(l, lKeys, r, rKeys) {
					out = append(out, l)
					break
				}
			}
		}
		return out, nil
	}

	pred := make([]expr.Expr, len(conds))
	for i, c := range conds {
		pred[i] = c.Clone()
	}
	joined := expr.NewAnd(pred...)
	if err := joined.Resolve(combined); err != nil {
		return nil, fmt.Errorf("loose: semi-join condition: %w", err)
	}
	for _, l := range left {
		for _, r := range right {
			ctx.Stats.JoinPairs++
			row := expr.JoinRows(combined, l, r)
			tv, err := expr.EvalPred(ctx.Eval, joined, row)
			if err != nil {
				return nil, err
			}
			if tv == expr.True {
				out = append(out, l)
				break
			}
		}
	}
	return out, nil
}

// semiKeyHash hashes the key columns of a row through the shared
// types.Hasher. NULLs hash like any other value (see SemiJoin).
func semiKeyHash(r *expr.Row, keys []int) uint64 {
	h := types.NewHasher()
	for _, k := range keys {
		h.WriteValue(r.Vals[k])
	}
	return h.Sum64()
}

// semiKeysEqual verifies a candidate pair column by column.
func semiKeysEqual(l *expr.Row, lKeys []int, r *expr.Row, rKeys []int) bool {
	for i := range lKeys {
		if !types.KeyEqual(l.Vals[lKeys[i]], r.Vals[rKeys[i]]) {
			return false
		}
	}
	return true
}
