// Package tight implements the paper's tightly coupled design (§2.2,
// §3.3.3): queries are rewritten so conditions over derived attributes
// invoke UDFs — CheckState, GetValue and read_udf — that enrich tuples
// lazily inside predicate evaluation. Short-circuit evaluation of the
// rewritten conjunctions is what saves enrichments relative to the loose
// design; the UDFs and disjunctions in the rewritten conditions are what
// force nested-loop joins (the Q8 effect).
package tight

import (
	"fmt"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
)

// RewriteAnalysis produces a rewritten copy of the query analysis in which
// every derived conjunct is replaced by its ω form:
//
//	ω(C) = ⋁ over subsets S of C's derived refs:
//	       (⋀_{r∈S} CheckState(r)) ∧ (⋀_{r∉S} ¬CheckState(r)) ∧
//	       C[r∈S → GetValue(r), r∉S → read_udf(r)]
//
// For a single derived reference this is the two-case selection rewrite; for
// two references it is exactly the paper's four-case join rewrite. Each ω(C)
// sits inside an expr.Guarded next to C itself: rows evaluate ω, while the
// vector kernel answers C from the stored values on images whose enrichment
// mark covers C's references, where ω(C) is C. The input analysis is not
// modified.
func RewriteAnalysis(a *engine.Analysis) (*engine.Analysis, error) {
	out := &engine.Analysis{
		Stmt:   a.Stmt,
		Tables: a.Tables,
		Sel:    make(map[string][]engine.SelCond, len(a.Sel)),
		Const:  a.Const,
	}
	for alias, conds := range a.Sel {
		rw := make([]engine.SelCond, len(conds))
		for i, c := range conds {
			rc := c
			if c.Derived {
				e, err := rewriteConjunct(c.E, c.DerivedRefs)
				if err != nil {
					return nil, err
				}
				rc.E = e
			}
			rw[i] = rc
		}
		out.Sel[alias] = rw
	}
	out.Joins = make([]engine.JoinCond, len(a.Joins))
	for i, j := range a.Joins {
		rj := j
		if j.Derived {
			e, err := rewriteConjunct(j.E, j.DerivedRefs)
			if err != nil {
				return nil, err
			}
			rj.E = e
		}
		out.Joins[i] = rj
	}

	// Derived attributes that appear only in the select list or GROUP BY
	// (the paper's Q9) are not reached by any rewritten condition, yet the
	// query needs their values. Inject a rewritten `attr IS NOT NULL`
	// conjunct so reading them enriches them, exactly as read_udf does for
	// predicate-referenced attributes.
	covered := make(map[expr.DerivedRef]bool)
	for _, conds := range a.Sel {
		for _, c := range conds {
			for _, r := range c.DerivedRefs {
				covered[r] = true
			}
		}
	}
	for _, j := range a.Joins {
		for _, r := range j.DerivedRefs {
			covered[r] = true
		}
	}
	for _, tm := range a.Tables {
		for _, attr := range a.DerivedAttrsOf(tm.Alias) {
			ref := expr.DerivedRef{Alias: tm.Alias, Attr: attr}
			if covered[ref] {
				continue
			}
			cond := &expr.IsNull{Kid: expr.NewCol(tm.Alias, attr), Negate: true}
			e, err := rewriteConjunct(cond, []expr.DerivedRef{ref})
			if err != nil {
				return nil, err
			}
			out.Sel[tm.Alias] = append(out.Sel[tm.Alias], engine.SelCond{
				Alias: tm.Alias, E: e, Derived: true, DerivedRefs: []expr.DerivedRef{ref},
			})
		}
	}
	return out, nil
}

// rewriteConjunct builds the guarded ω form of one derived conjunct.
func rewriteConjunct(c expr.Expr, refs []expr.DerivedRef) (expr.Expr, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("tight: conjunct %s marked derived but has no derived refs", c)
	}
	if len(refs) > 8 {
		return nil, fmt.Errorf("tight: conjunct %s references %d derived attributes; max 8", c, len(refs))
	}
	var cases []expr.Expr
	for mask := 0; mask < 1<<uint(len(refs)); mask++ {
		var guard []expr.Expr
		subst := make(map[expr.DerivedRef]expr.UDFKind, len(refs))
		for ri, ref := range refs {
			cs := expr.NewUDFCall(expr.UDFCheckState, ref.Alias, ref.Attr)
			if mask&(1<<uint(ri)) != 0 { // enriched: read the stored value
				guard = append(guard, cs)
				subst[ref] = expr.UDFGetValue
			} else { // not enriched: enrich as a side effect of reading
				guard = append(guard, &expr.Not{Kid: cs})
				subst[ref] = expr.UDFReadUDF
			}
		}
		body := substitute(c.Clone(), subst)
		cases = append(cases, expr.NewAnd(append(guard, body)...))
	}
	return expr.NewGuarded(refs, c.Clone(), expr.NewOr(cases...)), nil
}

// substitute replaces every derived column reference with the designated UDF
// call. It rebuilds the tree because expression nodes hold typed children.
func substitute(e expr.Expr, subst map[expr.DerivedRef]expr.UDFKind) expr.Expr {
	switch n := e.(type) {
	case *expr.Col:
		if kind, ok := subst[expr.DerivedRef{Alias: n.Alias, Attr: n.Name}]; ok {
			return expr.NewUDFCall(kind, n.Alias, n.Name)
		}
		return n
	case *expr.Cmp:
		return &expr.Cmp{Op: n.Op, L: substitute(n.L, subst), R: substitute(n.R, subst)}
	case *expr.And:
		kids := make([]expr.Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = substitute(k, subst)
		}
		return expr.NewAnd(kids...)
	case *expr.Or:
		kids := make([]expr.Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = substitute(k, subst)
		}
		return expr.NewOr(kids...)
	case *expr.Not:
		return &expr.Not{Kid: substitute(n.Kid, subst)}
	case *expr.IsNull:
		return &expr.IsNull{Kid: substitute(n.Kid, subst), Negate: n.Negate}
	default:
		return e
	}
}
