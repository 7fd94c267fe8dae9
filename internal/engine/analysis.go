// Package engine implements logical planning, optimization and execution of
// the SPJAG query subset. Its query Analysis — per-alias selection conjuncts,
// join conjuncts, and their fixed/derived classification — is also the shared
// input of the loose design's probe-query generator and the IVM module.
package engine

import (
	"fmt"

	"enrichdb/internal/catalog"
	"enrichdb/internal/expr"
	"enrichdb/internal/sqlparser"
)

// TableMeta is one FROM-clause occurrence bound to its schema.
type TableMeta struct {
	Alias    string
	Relation string
	Schema   *catalog.Schema
}

// JoinCond is one CNF conjunct referencing two or more aliases.
type JoinCond struct {
	Aliases []string
	E       expr.Expr
	// Derived reports whether the conjunct references any derived attribute
	// (§2.1: derived join conditions cannot reduce probe queries).
	Derived bool
	// DerivedRefs lists the derived attributes referenced, if any.
	DerivedRefs []expr.DerivedRef
}

// SelCond is one CNF conjunct over a single alias.
type SelCond struct {
	Alias       string
	E           expr.Expr
	Derived     bool
	DerivedRefs []expr.DerivedRef
}

// Analysis is the normalized, classified form of a parsed query: columns
// qualified, WHERE in CNF, conjuncts split into per-alias selections and
// join conditions, each labelled fixed or derived.
type Analysis struct {
	Stmt   *sqlparser.SelectStmt
	Tables []TableMeta

	// Sel holds the selection conjuncts per alias, in query order.
	Sel map[string][]SelCond
	// Joins holds the multi-alias conjuncts, in query order.
	Joins []JoinCond
	// Const holds conjuncts referencing no columns (constant predicates).
	Const []expr.Expr
}

// AnalyzeSQL parses a SELECT statement and analyzes it against the catalog:
// the front of every query pipeline.
func AnalyzeSQL(query string, cat *catalog.Catalog) (*Analysis, error) {
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		return nil, err
	}
	return Analyze(stmt, cat)
}

// Analyze normalizes and classifies a parsed statement against the catalog.
// It mutates the statement's expressions (qualifying unqualified columns);
// callers that need the original should re-parse.
func Analyze(stmt *sqlparser.SelectStmt, cat *catalog.Catalog) (*Analysis, error) {
	a := &Analysis{Stmt: stmt, Sel: make(map[string][]SelCond)}
	seen := make(map[string]bool)
	for _, ref := range stmt.From {
		s := cat.Schema(ref.Table)
		if s == nil {
			return nil, fmt.Errorf("engine: unknown relation %s", ref.Table)
		}
		if seen[ref.Alias] {
			return nil, fmt.Errorf("engine: duplicate table alias %s", ref.Alias)
		}
		seen[ref.Alias] = true
		a.Tables = append(a.Tables, TableMeta{Alias: ref.Alias, Relation: ref.Table, Schema: s})
	}

	if err := a.qualify(stmt); err != nil {
		return nil, err
	}

	cl := expr.ClassifierFunc(func(alias, column string) (bool, error) {
		t := a.table(alias)
		if t == nil {
			return false, fmt.Errorf("engine: unknown alias %s", alias)
		}
		c := t.Schema.Col(column)
		if c == nil {
			return false, fmt.Errorf("engine: unknown column %s.%s", alias, column)
		}
		return c.Derived, nil
	})

	if stmt.Where != nil {
		cnf := expr.ToCNF(stmt.Where)
		for _, conj := range expr.Conjuncts(cnf) {
			aliases := expr.Aliases(conj)
			derived, refs, err := expr.ClassifyConjunct(conj, cl)
			if err != nil {
				return nil, err
			}
			switch len(aliases) {
			case 0:
				a.Const = append(a.Const, conj)
			case 1:
				al := aliases[0]
				a.Sel[al] = append(a.Sel[al], SelCond{Alias: al, E: conj, Derived: derived, DerivedRefs: refs})
			default:
				a.Joins = append(a.Joins, JoinCond{Aliases: aliases, E: conj, Derived: derived, DerivedRefs: refs})
			}
		}
	}
	return a, nil
}

// table returns the metadata for an alias, or nil.
func (a *Analysis) table(alias string) *TableMeta {
	for i := range a.Tables {
		if a.Tables[i].Alias == alias {
			return &a.Tables[i]
		}
	}
	return nil
}

// Table returns the metadata for an alias, or nil.
func (a *Analysis) Table(alias string) *TableMeta { return a.table(alias) }

// SelPred returns the conjunction of all selection conjuncts of an alias
// (TruePred when none), cloned so callers may rewrite it freely.
func (a *Analysis) SelPred(alias string) expr.Expr {
	conds := a.Sel[alias]
	if len(conds) == 0 {
		return expr.TruePred{}
	}
	kids := make([]expr.Expr, len(conds))
	for i, c := range conds {
		kids[i] = c.E.Clone()
	}
	return expr.NewAnd(kids...)
}

// DerivedAttrsOf returns the derived attributes of alias referenced anywhere
// in the query (selections, joins, select list, group by), in first-use
// order. These are the attributes that must be enriched for the query.
func (a *Analysis) DerivedAttrsOf(alias string) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(attr string) {
		if !seen[attr] {
			seen[attr] = true
			out = append(out, attr)
		}
	}
	for _, c := range a.Sel[alias] {
		for _, r := range c.DerivedRefs {
			if r.Alias == alias {
				add(r.Attr)
			}
		}
	}
	for _, j := range a.Joins {
		for _, r := range j.DerivedRefs {
			if r.Alias == alias {
				add(r.Attr)
			}
		}
	}
	t := a.table(alias)
	checkCol := func(c *expr.Col) {
		if c == nil || c.Alias != alias || t == nil {
			return
		}
		if sc := t.Schema.Col(c.Name); sc != nil && sc.Derived {
			add(c.Name)
		}
	}
	for _, it := range a.Stmt.Items {
		checkCol(it.Col)
	}
	for _, g := range a.Stmt.GroupBy {
		checkCol(g)
	}
	return out
}

// qualify rewrites unqualified column references to carry their table alias,
// failing on unknown or ambiguous names.
func (a *Analysis) qualify(stmt *sqlparser.SelectStmt) error {
	fix := func(c *expr.Col) error {
		if c == nil {
			return nil
		}
		if c.Alias != "" {
			t := a.table(c.Alias)
			if t == nil {
				return fmt.Errorf("engine: unknown alias %s", c.Alias)
			}
			if t.Schema.Col(c.Name) == nil {
				return fmt.Errorf("engine: unknown column %s.%s", c.Alias, c.Name)
			}
			return nil
		}
		found := ""
		for _, t := range a.Tables {
			if t.Schema.Col(c.Name) != nil {
				if found != "" {
					return fmt.Errorf("engine: ambiguous column %s (in %s and %s)", c.Name, found, t.Alias)
				}
				found = t.Alias
			}
		}
		if found == "" {
			return fmt.Errorf("engine: unknown column %s", c.Name)
		}
		c.Alias = found
		return nil
	}

	var err error
	qualifyExpr := func(e expr.Expr) {
		if e == nil {
			return
		}
		e.Walk(func(n expr.Expr) {
			if err != nil {
				return
			}
			if c, ok := n.(*expr.Col); ok {
				err = fix(c)
			}
		})
	}
	qualifyExpr(stmt.Where)
	for _, it := range stmt.Items {
		if err == nil && it.Col != nil {
			err = fix(it.Col)
		}
	}
	for _, g := range stmt.GroupBy {
		if err == nil {
			err = fix(g)
		}
	}
	for _, o := range stmt.OrderBy {
		if err == nil {
			err = fix(o.Col)
		}
	}
	return err
}
