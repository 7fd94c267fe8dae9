package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// AggKind identifies an aggregation function in the select list.
type AggKind uint8

// Supported aggregates.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the aggregate name.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// SelectItem is one entry in the select list: either a plain column or an
// aggregate over a column (Col nil for COUNT(*)).
type SelectItem struct {
	Agg AggKind
	Col *expr.Col // nil only for COUNT(*)
}

// String renders the item.
func (it SelectItem) String() string {
	if it.Agg == AggNone {
		return it.Col.String()
	}
	if it.Col == nil {
		return it.Agg.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", it.Agg, it.Col)
}

// TableRef is one FROM-clause entry.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// SelectStmt is the parsed form of a single-block SPJAG query.
type SelectStmt struct {
	Star    bool
	Items   []SelectItem
	From    []TableRef
	Where   expr.Expr // nil when absent
	GroupBy []*expr.Col
}

// HasAggregate reports whether any select item aggregates.
func (s *SelectStmt) HasAggregate() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// String re-renders the statement (canonical form, for plan dumps and tests).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Star {
		sb.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(it.String())
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table)
		if t.Alias != t.Table {
			sb.WriteString(" " + t.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
	}
	return sb.String()
}

// Parse parses a single SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input after statement: %s", p.peek())
	}
	return stmt, nil
}

// Statement is a top-level SQL statement: a SELECT, optionally prefixed
// with EXPLAIN ANALYZE (run the query, return the operator profile tree
// instead of the rows).
type Statement struct {
	ExplainAnalyze bool
	// ExplainPlan marks a plan-only `EXPLAIN SELECT ...` (no ANALYZE): the
	// front end renders the operator tree the query would run, annotated
	// with estimated costs and observed selectivities, without executing it.
	ExplainPlan bool
	Select      *SelectStmt
}

// String re-renders the statement in canonical form.
func (s *Statement) String() string {
	if s.ExplainAnalyze {
		return "EXPLAIN ANALYZE " + s.Select.String()
	}
	if s.ExplainPlan {
		return "EXPLAIN " + s.Select.String()
	}
	return s.Select.String()
}

// ParseStatement parses `[EXPLAIN [ANALYZE]] SELECT ...`. Parse stays
// SELECT-only — existing callers (the planner, the fuzz round-trip) are
// unaffected; the root package's query pipeline, which every front end runs
// through, uses this entry.
func ParseStatement(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st := &Statement{}
	if p.accept(tokKeyword, "EXPLAIN") {
		if p.accept(tokKeyword, "ANALYZE") {
			st.ExplainAnalyze = true
		} else {
			st.ExplainPlan = true
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input after statement: %s", p.peek())
	}
	st.Select = sel
	return st, nil
}

// MustParse is Parse that panics; for statically known-good queries in tests
// and benchmarks.
func MustParse(input string) *SelectStmt {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: "+format, args...)
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errf("expected %s, got %s at position %d", want, p.peek(), p.peek().pos)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.accept(tokPunct, "*") {
		stmt.Star = true
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			stmt.Items = append(stmt.Items, it)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	// No paper query sorts or truncates its answer, so neither clause has
	// an executor; the words stay reserved so the error names the clause.
	if p.at(tokKeyword, "ORDER") || p.at(tokKeyword, "LIMIT") {
		clause := p.peek().text
		if clause == "ORDER" {
			clause = "ORDER BY"
		}
		return nil, p.errf("%s is not supported", clause)
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokKeyword {
		var agg AggKind
		switch t.text {
		case "COUNT":
			agg = AggCount
		case "SUM":
			agg = AggSum
		case "AVG":
			agg = AggAvg
		case "MIN":
			agg = AggMin
		case "MAX":
			agg = AggMax
		}
		if agg != AggNone {
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return SelectItem{}, err
			}
			var col *expr.Col
			if p.accept(tokPunct, "*") {
				if agg != AggCount {
					return SelectItem{}, p.errf("%s(*) is not supported; only COUNT(*)", agg)
				}
			} else {
				c, err := p.parseColRef()
				if err != nil {
					return SelectItem{}, err
				}
				col = c
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg, Col: col}, nil
		}
	}
	c, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: c}, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: t.text, Alias: t.text}
	p.accept(tokKeyword, "AS")
	if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseColRef() (*expr.Col, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if p.accept(tokPunct, ".") {
		t2, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return expr.NewCol(t.text, t2.text), nil
	}
	return expr.NewCol("", t.text), nil
}

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{l}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, r)
	}
	return expr.NewOr(kids...), nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{l}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, r)
	}
	return expr.NewAnd(kids...), nil
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		kid, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &expr.Not{Kid: kid}, nil
	}
	if p.accept(tokPunct, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == tokOp:
		p.next()
		op, err := cmpOp(t.text)
		if err != nil {
			return nil, err
		}
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(op, l, r), nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		// Accept both "BETWEEN a AND b" and the paper's "(a, b)" shorthand.
		if p.accept(tokPunct, "(") {
			lo, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
			hi, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return betweenExpr(l, lo, hi), nil
		}
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return betweenExpr(l, lo, hi), nil
	case t.kind == tokKeyword && t.text == "IN":
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var alts []expr.Expr
		for {
			v, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			alts = append(alts, expr.NewCmp(expr.EQ, l.Clone(), v))
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		// IN desugars to a disjunction of equalities; CNF, probe
		// generation and the tight rewrite all handle it from there.
		return expr.NewOr(alts...), nil
	case t.kind == tokKeyword && t.text == "IS":
		p.next()
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{Kid: l, Negate: neg}, nil
	default:
		return nil, p.errf("expected comparison after %s, got %s", l, t)
	}
}

// betweenExpr desugars BETWEEN into a pair of inclusive comparisons. The
// column operand is cloned so the two conjuncts do not share a node.
func betweenExpr(x, lo, hi expr.Expr) expr.Expr {
	return expr.NewAnd(
		expr.NewCmp(expr.GE, x, lo),
		expr.NewCmp(expr.LE, x.Clone(), hi),
	)
}

func (p *parser) parseOperand() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		return p.parseColRef()
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q: %v", t.text, err)
			}
			return expr.NewConst(types.NewFloat(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", t.text, err)
		}
		return expr.NewConst(types.NewInt(i)), nil
	case tokString:
		p.next()
		return expr.NewConst(types.NewString(t.text)), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return expr.NewConst(types.NewBool(true)), nil
		case "FALSE":
			p.next()
			return expr.NewConst(types.NewBool(false)), nil
		case "NULL":
			p.next()
			return expr.NewConst(types.Null), nil
		}
	}
	return nil, p.errf("expected column or literal, got %s at position %d", t, t.pos)
}

func cmpOp(text string) (expr.CmpOp, error) {
	switch text {
	case "=":
		return expr.EQ, nil
	case "<>", "!=":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	default:
		return expr.EQ, fmt.Errorf("sqlparser: unknown operator %q", text)
	}
}
