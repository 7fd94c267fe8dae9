package engine

import (
	"fmt"

	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// Build turns an analyzed query into an executable plan:
//
//   - selections are pushed down to their table's scan, with fixed conjuncts
//     ordered before derived ones (so cheap fixed predicates shield the
//     expensive enrichment-bearing ones — the ordering both designs rely on);
//   - joins are left-deep in FROM order; a join uses the hash strategy only
//     when its placeable conditions are plain column equalities free of
//     disjunctions and UDFs, reproducing the optimizer behaviour the paper
//     observes on Q8 (rewritten conditions force a nested loop);
//   - aggregation and projection are added per the select list.
func Build(a *Analysis, db storage.Source) (Plan, error) {
	return BuildOpt(a, db, BuildOptions{})
}

// BuildOptions toggles the optimizer behaviours the paper's comparisons
// hinge on; the ablation benchmarks disable them individually. The zero
// value enables everything.
type BuildOptions struct {
	// NoFixedFirstOrdering keeps selection conjuncts in query order instead
	// of evaluating fixed conditions before derived ones.
	NoFixedFirstOrdering bool
	// NoUDFPullUp pushes UDF-bearing selection conjuncts down to the scans
	// even in multi-table queries.
	NoUDFPullUp bool
	// NoJoinReorder joins strictly in FROM order.
	NoJoinReorder bool
}

// BuildOpt is Build with optimizer toggles.
func BuildOpt(a *Analysis, db storage.Source, opts BuildOptions) (Plan, error) {
	if len(a.Tables) == 0 {
		return nil, fmt.Errorf("engine: query has no tables")
	}

	// Expensive-predicate pull-up: in multi-table queries, selection
	// conjuncts containing UDF calls (the tight design's rewritten derived
	// conditions) are evaluated above the joins, so cheap fixed joins
	// shrink the input before any enrichment fires — the PostgreSQL
	// behaviour §4 of the paper relies on for Q7/Q8 parity.
	multi := len(a.Tables) > 1 && !opts.NoUDFPullUp
	var pulled []expr.Expr

	// Join ordering: greedy left-deep, preferring to join next the table
	// connected to the current set by fixed-only conditions, deferring
	// UDF-bearing (expensive) join conditions — the cost-based behaviour
	// that keeps the tight design's Q8 enrichment count at parity with the
	// loose design even though its join must run as a nested loop.
	ordered := a
	if !opts.NoJoinReorder {
		ordered = a.withTableOrder(orderTables(a))
	}

	leaves := make([]Plan, len(ordered.Tables))
	for ti, tm := range ordered.Tables {
		tbl, err := db.Table(tm.Relation)
		if err != nil {
			return nil, err
		}
		push, pull := splitSelPred(ordered, tm.Alias, multi, opts.NoFixedFirstOrdering)
		pulled = append(pulled, pull...)

		var leaf Plan = NewScan(tbl, tm.Alias)
		if push != nil {
			if err := push.Resolve(leaf.Schema()); err != nil {
				return nil, err
			}
			leaf = NewFilter(leaf, push)
		}
		leaves[ti] = leaf
	}

	cur, err := BuildJoinTree(ordered, leaves)
	if err != nil {
		return nil, err
	}

	if len(pulled) > 0 {
		pred := expr.NewAnd(pulled...)
		if err := pred.Resolve(cur.Schema()); err != nil {
			return nil, err
		}
		cur = NewFilter(cur, pred)
	}

	if len(a.Const) > 0 {
		pred := expr.NewAnd(cloneExprs(a.Const)...)
		if err := pred.Resolve(cur.Schema()); err != nil {
			return nil, err
		}
		cur = NewFilter(cur, pred)
	}

	return addOutput(ordered, cur)
}

// orderTables returns a left-deep join order as indexes into a.Tables. It
// keeps the first FROM table, then greedily appends the remaining table with
// the best connectivity score: fixed-only join conditions beat mixed beat
// UDF-only beat unconnected; FROM order breaks ties.
func orderTables(a *Analysis) []int {
	n := len(a.Tables)
	if n <= 2 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := []int{0}
	inSet := map[string]bool{a.Tables[0].Alias: true}
	used := make([]bool, n)
	used[0] = true
	for len(perm) < n {
		best, bestScore := -1, -1
		for ti := 1; ti < n; ti++ {
			if used[ti] {
				continue
			}
			score := connectivity(a, inSet, a.Tables[ti].Alias)
			if score > bestScore {
				best, bestScore = ti, score
			}
		}
		used[best] = true
		inSet[a.Tables[best].Alias] = true
		perm = append(perm, best)
	}
	return perm
}

// connectivity scores joining `alias` into the current set: 3 when every
// placeable condition is cheap (no UDFs/disjunctions), 2 when a cheap
// condition exists alongside expensive ones, 1 when only expensive
// conditions connect it, 0 when unconnected.
func connectivity(a *Analysis, inSet map[string]bool, alias string) int {
	cheap, expensive := false, false
	for _, jc := range a.Joins {
		references := false
		placeable := true
		for _, ja := range jc.Aliases {
			if ja == alias {
				references = true
			} else if !inSet[ja] {
				placeable = false
			}
		}
		if !references || !placeable {
			continue
		}
		if containsUDForOr(jc.E) {
			expensive = true
		} else {
			cheap = true
		}
	}
	switch {
	case cheap && !expensive:
		return 3
	case cheap:
		return 2
	case expensive:
		return 1
	default:
		return 0
	}
}

// withTableOrder returns the analysis with tables permuted (shared conds).
func (a *Analysis) withTableOrder(perm []int) *Analysis {
	identity := true
	for i, p := range perm {
		if i != p {
			identity = false
			break
		}
	}
	if identity {
		return a
	}
	out := *a
	out.Tables = make([]TableMeta, len(perm))
	for i, p := range perm {
		out.Tables[i] = a.Tables[p]
	}
	return &out
}

// BuildJoinTree joins the per-table leaf plans (parallel to a.Tables, in
// FROM order) left-deep, placing each of a.Joins at the first point both its
// sides are available. Leaves may be scans, filtered scans, or materialized
// Rows nodes (the IVM module substitutes delta row sets for base inputs).
func BuildJoinTree(a *Analysis, leaves []Plan) (Plan, error) {
	if len(leaves) != len(a.Tables) {
		return nil, fmt.Errorf("engine: %d leaves for %d tables", len(leaves), len(a.Tables))
	}
	cur := leaves[0]
	inSet := map[string]bool{a.Tables[0].Alias: true}
	placed := make([]bool, len(a.Joins))

	for ti := 1; ti < len(leaves); ti++ {
		join := NewJoin(cur, leaves[ti])
		inSet[a.Tables[ti].Alias] = true

		var conds []JoinCond
		for ji, jc := range a.Joins {
			if placed[ji] {
				continue
			}
			if aliasesSubset(jc.Aliases, inSet) {
				conds = append(conds, jc)
				placed[ji] = true
			}
		}
		if err := configureJoin(join, conds, cur.Schema(), a.Tables[ti].Alias); err != nil {
			return nil, err
		}
		cur = join
	}

	for ji, jc := range a.Joins {
		if !placed[ji] {
			return nil, fmt.Errorf("engine: join condition %s could not be placed", jc.E)
		}
	}
	return cur, nil
}

// splitSelPred partitions an alias's selection conjuncts into the pushed-
// down predicate (fixed conjuncts first, then derived ones — the ordering
// both designs' enrichment savings rely on) and, for multi-table queries,
// the pulled-up UDF-bearing conjuncts.
func splitSelPred(a *Analysis, alias string, pullUDFs, queryOrder bool) (push expr.Expr, pulled []expr.Expr) {
	conds := a.Sel[alias]
	if len(conds) == 0 {
		return nil, nil
	}
	var kids []expr.Expr
	add := func(c SelCond) {
		if c.Derived && pullUDFs && containsUDF(c.E) {
			pulled = append(pulled, c.E.Clone())
			return
		}
		kids = append(kids, c.E.Clone())
	}
	if queryOrder {
		for _, c := range conds {
			add(c)
		}
	} else {
		for _, c := range conds {
			if !c.Derived {
				add(c)
			}
		}
		for _, c := range conds {
			if c.Derived {
				add(c)
			}
		}
	}
	if len(kids) == 0 {
		return nil, pulled
	}
	return expr.NewAnd(kids...), pulled
}

// configureJoin resolves the placeable conditions against the combined
// schema and selects the join strategy.
func configureJoin(j *Join, conds []JoinCond, leftSchema *expr.RowSchema, rightAlias string) error {
	rs := j.Schema()
	if len(conds) == 0 {
		return nil // cross product
	}

	blocked := false
	for _, c := range conds {
		if containsUDForOr(c.E) {
			blocked = true
			break
		}
	}

	var residual []expr.Expr
	if blocked {
		residual = make([]expr.Expr, 0, len(conds))
		for _, c := range conds {
			residual = append(residual, c.E.Clone())
		}
	} else {
		leftWidth := len(leftSchema.Cols)
		for _, c := range conds {
			l, r, ok := expr.EquiJoinCols(c.E)
			if !ok {
				residual = append(residual, c.E.Clone())
				continue
			}
			// Orient the pair: exactly one side must be the new alias.
			var leftCol, rightCol *expr.Col
			switch {
			case r.Alias == rightAlias && l.Alias != rightAlias:
				leftCol, rightCol = l, r
			case l.Alias == rightAlias && r.Alias != rightAlias:
				leftCol, rightCol = r, l
			default:
				residual = append(residual, c.E.Clone())
				continue
			}
			li, err := leftSchema.Lookup(leftCol.Alias, leftCol.Name)
			if err != nil {
				return err
			}
			ri, err := rs.Lookup(rightCol.Alias, rightCol.Name)
			if err != nil {
				return err
			}
			if ri < leftWidth {
				return fmt.Errorf("engine: join key %s resolved into left input", rightCol)
			}
			j.HashKeysL = append(j.HashKeysL, li)
			j.HashKeysR = append(j.HashKeysR, ri)
		}
	}

	if len(residual) > 0 {
		pred := expr.NewAnd(residual...)
		if err := pred.Resolve(rs); err != nil {
			return err
		}
		j.Cond = pred
	}
	return nil
}

// containsUDF reports whether the expression invokes any UDF.
func containsUDF(e expr.Expr) bool {
	found := false
	e.Walk(func(n expr.Expr) {
		if _, ok := n.(*expr.UDFCall); ok {
			found = true
		}
	})
	return found
}

// containsUDForOr reports whether the expression contains a UDF call or a
// disjunction — the features that prevent the optimizer from using a hash
// join on the condition.
func containsUDForOr(e expr.Expr) bool {
	found := false
	e.Walk(func(n expr.Expr) {
		switch n.(type) {
		case *expr.UDFCall, *expr.Or:
			found = true
		}
	})
	return found
}

// Output describes how combined join rows are turned into query output:
// identity (SELECT *), projection, or aggregation with an optional reorder
// back to select-list order. The IVM module shares this spec to maintain
// aggregates incrementally.
type Output struct {
	Star    bool
	Proj    []int      // non-agg, non-star: combined -> output column indexes
	Agg     *Aggregate // agg template (Child unset); nil otherwise
	Reorder []int      // select-list position -> agg output index; nil if identity
	Schema  *expr.RowSchema
}

// BuildOutput computes the output spec of a query over the combined
// (pre-output) row schema.
func BuildOutput(a *Analysis, combined *expr.RowSchema) (*Output, error) {
	stmt := a.Stmt
	if !stmt.HasAggregate() && len(stmt.GroupBy) == 0 {
		if stmt.Star {
			return &Output{Star: true, Schema: combined}, nil
		}
		cols := make([]int, len(stmt.Items))
		rs := &expr.RowSchema{Slots: combined.Slots, Cols: make([]expr.ColInfo, len(stmt.Items))}
		for i, it := range stmt.Items {
			ci, err := combined.Lookup(it.Col.Alias, it.Col.Name)
			if err != nil {
				return nil, err
			}
			cols[i] = ci
			rs.Cols[i] = combined.Cols[ci]
		}
		return &Output{Proj: cols, Schema: rs}, nil
	}

	if stmt.Star {
		return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
	}

	agg, err := BuildAggregate(NewRows(combined, nil), stmt.Items, stmt.GroupBy)
	if err != nil {
		return nil, err
	}
	agg.Child = nil

	// The aggregate emits group columns then aggregates; reorder to the
	// select list when the user wrote them interleaved differently.
	want := make([]int, len(stmt.Items))
	identity := true
	ai := 0
	for i, it := range stmt.Items {
		if it.Agg == sqlparser.AggNone {
			pos := -1
			for g, gcol := range stmt.GroupBy {
				if gcol.Alias == it.Col.Alias && gcol.Name == it.Col.Name {
					pos = g
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("engine: column %s must appear in GROUP BY", it.Col)
			}
			want[i] = pos
		} else {
			want[i] = len(stmt.GroupBy) + ai
			ai++
		}
		if want[i] != i {
			identity = false
		}
	}
	out := &Output{Agg: agg, Schema: agg.Schema()}
	if !identity {
		out.Reorder = want
		rs := &expr.RowSchema{Slots: agg.Schema().Slots, Cols: make([]expr.ColInfo, len(want))}
		for i, w := range want {
			rs.Cols[i] = agg.Schema().Cols[w]
		}
		out.Schema = rs
	}
	return out, nil
}

// addOutput appends aggregation/projection per the select list.
func addOutput(a *Analysis, cur Plan) (Plan, error) {
	out, err := BuildOutput(a, cur.Schema())
	if err != nil {
		return nil, err
	}
	switch {
	case out.Star:
		return cur, nil
	case out.Agg == nil:
		return NewProject(cur, out.Proj), nil
	default:
		out.Agg.Child = cur
		if out.Reorder == nil {
			return out.Agg, nil
		}
		return NewProject(out.Agg, out.Reorder), nil
	}
}

// BuildAggregate constructs an Aggregate node over child for the given
// select items and group-by columns. Output schema: group columns in
// group-by order, then aggregates in select-list order.
func BuildAggregate(child Plan, items []sqlparser.SelectItem, groupBy []*expr.Col) (*Aggregate, error) {
	crs := child.Schema()
	agg := &Aggregate{Child: child}

	outCols := make([]expr.ColInfo, 0, len(items))
	for _, g := range groupBy {
		ci, err := crs.Lookup(g.Alias, g.Name)
		if err != nil {
			return nil, err
		}
		agg.GroupBy = append(agg.GroupBy, ci)
		outCols = append(outCols, crs.Cols[ci])
	}
	for _, it := range items {
		if it.Agg == sqlparser.AggCount {
			name := it.String()
			agg.Aggs = append(agg.Aggs, name)
			outCols = append(outCols, expr.ColInfo{Alias: "", Name: name, Kind: types.KindInt, Slot: 0})
		}
	}
	agg.rs = &expr.RowSchema{
		Slots: []expr.TableSlot{{Alias: "", Relation: "", Schema: nil, ColStart: 0}},
		Cols:  outCols,
	}
	return agg, nil
}

func aliasesSubset(aliases []string, set map[string]bool) bool {
	for _, a := range aliases {
		if !set[a] {
			return false
		}
	}
	return true
}

func cloneExprs(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}
