package engine

import (
	"fmt"
	"math"
	"strings"
)

// This file implements plan-only EXPLAIN (no ANALYZE): the chosen operator
// tree rendered with the cost model's estimated cardinalities and — where
// the stats store has observed the predicate before — decayed observed
// selectivities. It makes the adaptive layer's decisions inspectable
// without executing anything: no scans, no enrichment side effects.

// AnnotatedExplain renders the plan one node per line (the same tree shape
// as Plan.Explain) with per-node annotations: estimated output rows,
// estimated cumulative cost (in row-visits), and for filters the
// selectivity estimate tagged "observed" when it came from the stats store
// rather than a heuristic. cm may be nil (pure heuristics).
func AnnotatedExplain(p Plan, cm *CostModel) string {
	if cm == nil {
		cm = &CostModel{}
	}
	var sb strings.Builder
	annotate(&sb, p, cm, "")
	return sb.String()
}

// annotate walks the plan, writing one annotated line per node and
// returning (estimated output rows, estimated cumulative cost).
func annotate(sb *strings.Builder, p Plan, cm *CostModel, indent string) (rows, cost float64) {
	line := firstLine(p.Explain(""))
	switch n := p.(type) {
	case *Scan:
		rows = float64(n.Table.Len())
		cost = rows
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f)\n", indent, line, rows, cost)
	case *Rows:
		rows = float64(len(n.Data))
		cost = rows
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f)\n", indent, line, rows, cost)
	case *Filter:
		sel := cm.Selectivity(n.Pred)
		src := "heuristic"
		if cm.Store != nil {
			if s, ok := cm.Store.PredicateSelectivity(predKey(n.Pred)); ok {
				sel, src = s, "observed"
			}
		}
		childRows, childCost := 0.0, 0.0
		var child strings.Builder
		childRows, childCost = annotate(&child, n.Child, cm, indent+"  ")
		rows = childRows * sel
		cost = childCost + childRows
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f sel=%.3f %s)\n",
			indent, line, rows, cost, sel, src)
		sb.WriteString(child.String())
		return rows, cost
	case *Join:
		var lb, rb strings.Builder
		lRows, lCost := annotate(&lb, n.L, cm, indent+"  ")
		rRows, rCost := annotate(&rb, n.R, cm, indent+"  ")
		if _, _, ok := cm.cardOf(n.opKey()); ok {
			_, out, _ := cm.cardOf(n.opKey())
			rows = out
		} else if n.Hash() {
			rows = math.Max(lRows, rRows) // foreign-key equi-join heuristic
		} else {
			rows = lRows * rRows * cm.Selectivity(n.Cond)
		}
		probe := lRows + rRows
		if !n.Hash() {
			probe = lRows * rRows
		}
		cost = lCost + rCost + probe
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f)\n", indent, line, rows, cost)
		sb.WriteString(lb.String())
		sb.WriteString(rb.String())
		return rows, cost
	case *Aggregate:
		var child strings.Builder
		childRows, childCost := annotate(&child, n.Child, cm, indent+"  ")
		if len(n.GroupBy) == 0 {
			rows = 1
		} else {
			rows = math.Max(1, childRows*0.1)
		}
		cost = childCost + childRows
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f)\n", indent, line, rows, cost)
		sb.WriteString(child.String())
		return rows, cost
	case *Project:
		var child strings.Builder
		rows, cost = annotate(&child, n.Child, cm, indent+"  ")
		cost += rows
		fmt.Fprintf(sb, "%s%s  (est_rows=%.0f est_cost=%.0f)\n", indent, line, rows, cost)
		sb.WriteString(child.String())
		return rows, cost
	default:
		// Unknown node: render its own subtree unannotated.
		sb.WriteString(indentBlock(p.Explain(indent)))
		return 0, 0
	}
	return rows, cost
}

// cardOf is the nil-safe store cardinality lookup.
func (cm *CostModel) cardOf(key string) (in, out float64, ok bool) {
	if cm == nil || cm.Store == nil {
		return 0, 0, false
	}
	return cm.Store.OpCardinality(key)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func indentBlock(s string) string {
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	return s
}
