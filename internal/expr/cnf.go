package expr

import "fmt"

// ToCNF converts a boolean expression into conjunctive normal form
// (C = C₁ ∧ C₂ ∧ … ∧ Cₙ, the paper's §2.1 Step 0). NOT is pushed to the
// atoms (comparisons negate their operator; NULL tests flip), then OR is
// distributed over AND. Query predicates are small, so the worst-case blowup
// of distribution is acceptable.
func ToCNF(e Expr) Expr {
	return distribute(pushNot(e, false))
}

// Conjuncts returns the top-level conjuncts of an expression (itself if it is
// not a conjunction).
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return a.Kids
	}
	if _, ok := e.(TruePred); ok {
		return nil
	}
	return []Expr{e}
}

// pushNot pushes negation down to atoms. neg reports whether the current
// subtree is under an odd number of NOTs.
func pushNot(e Expr, neg bool) Expr {
	switch n := e.(type) {
	case *Not:
		return pushNot(n.Kid, !neg)
	case *And:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = pushNot(k, neg)
		}
		if neg {
			return NewOr(kids...)
		}
		return NewAnd(kids...)
	case *Or:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = pushNot(k, neg)
		}
		if neg {
			return NewAnd(kids...)
		}
		return NewOr(kids...)
	case *Cmp:
		if neg {
			return &Cmp{Op: n.Op.Negate(), L: n.L.Clone(), R: n.R.Clone()}
		}
		return n.Clone()
	case *IsNull:
		return &IsNull{Kid: n.Kid.Clone(), Negate: n.Negate != neg}
	default:
		if neg {
			return &Not{Kid: e.Clone()}
		}
		return e.Clone()
	}
}

// distribute rewrites the NOT-free tree into CNF by distributing OR over AND.
func distribute(e Expr) Expr {
	switch n := e.(type) {
	case *And:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = distribute(k)
		}
		return NewAnd(kids...)
	case *Or:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = distribute(k)
		}
		// Fold the disjuncts pairwise: (A∧B) ∨ C = (A∨C) ∧ (B∨C).
		acc := kids[0]
		for _, k := range kids[1:] {
			acc = orPair(acc, k)
		}
		return acc
	default:
		return e
	}
}

// orPair distributes a binary OR whose operands are already in CNF.
func orPair(a, b Expr) Expr {
	aAnd, aIsAnd := a.(*And)
	bAnd, bIsAnd := b.(*And)
	switch {
	case aIsAnd:
		kids := make([]Expr, len(aAnd.Kids))
		for i, k := range aAnd.Kids {
			kids[i] = orPair(k, b)
		}
		return NewAnd(kids...)
	case bIsAnd:
		kids := make([]Expr, len(bAnd.Kids))
		for i, k := range bAnd.Kids {
			kids[i] = orPair(a, k)
		}
		return NewAnd(kids...)
	default:
		return NewOr(a, b)
	}
}

// DerivedRef is a derived attribute referenced by an expression.
type DerivedRef struct {
	Alias string
	Attr  string
}

// AttrClassifier reports whether a column reference names a derived
// attribute. It abstracts the catalog so expr does not depend on how aliases
// are mapped to relations.
type AttrClassifier interface {
	IsDerived(alias, column string) (bool, error)
}

// ClassifierFunc adapts a function to AttrClassifier.
type ClassifierFunc func(alias, column string) (bool, error)

// IsDerived calls the function.
func (f ClassifierFunc) IsDerived(alias, column string) (bool, error) { return f(alias, column) }

// ClassifyConjunct reports whether a CNF conjunct is a *fixed condition*
// (references only fixed attributes) or a *derived condition* (references at
// least one derived attribute), per §2.1 Step 0. UDF calls always make a
// conjunct derived.
func ClassifyConjunct(e Expr, cl AttrClassifier) (derived bool, refs []DerivedRef, err error) {
	seen := make(map[DerivedRef]bool)
	e.Walk(func(n Expr) {
		if err != nil {
			return
		}
		switch c := n.(type) {
		case *Col:
			d, cerr := cl.IsDerived(c.Alias, c.Name)
			if cerr != nil {
				err = cerr
				return
			}
			if d {
				derived = true
				r := DerivedRef{Alias: c.Alias, Attr: c.Name}
				if !seen[r] {
					seen[r] = true
					refs = append(refs, r)
				}
			}
		case *UDFCall:
			derived = true
			r := DerivedRef{Alias: c.Alias, Attr: c.Attr}
			if !seen[r] {
				seen[r] = true
				refs = append(refs, r)
			}
		}
	})
	return derived, refs, err
}

// Aliases returns the distinct table aliases referenced by the expression,
// in first-appearance order. Unqualified references contribute the empty
// alias, which callers must have resolved away beforehand.
func Aliases(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(a string) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	e.Walk(func(n Expr) {
		switch c := n.(type) {
		case *Col:
			add(c.Alias)
		case *UDFCall:
			add(c.Alias)
		}
	})
	return out
}

// EquiJoinCols checks whether the conjunct is a simple equi-join between
// columns of two different aliases (R₁.A = R₂.B) and returns the two sides.
func EquiJoinCols(e Expr) (l, r *Col, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return nil, nil, false
	}
	lc, lok := c.L.(*Col)
	rc, rok := c.R.(*Col)
	if !lok || !rok || lc.Alias == rc.Alias {
		return nil, nil, false
	}
	return lc, rc, true
}

// MustResolve resolves the expression and panics on failure; for statically
// known-correct rewrites and tests.
func MustResolve(e Expr, rs *RowSchema) Expr {
	if err := e.Resolve(rs); err != nil {
		panic(fmt.Sprintf("expr: resolve %s: %v", e, err))
	}
	return e
}
