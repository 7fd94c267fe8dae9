package sqlparser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

// randStmt builds a random single-block statement within the supported
// grammar.
func randStmt(r *rand.Rand) *SelectStmt {
	stmt := &SelectStmt{}
	nTables := r.Intn(3) + 1
	for i := 0; i < nTables; i++ {
		ref := TableRef{Table: fmt.Sprintf("T%d", i)}
		ref.Alias = ref.Table
		if r.Intn(2) == 0 {
			ref.Alias = fmt.Sprintf("A%d", i)
		}
		stmt.From = append(stmt.From, ref)
	}
	aliasOf := func() string { return stmt.From[r.Intn(nTables)].Alias }
	col := func() *expr.Col {
		return expr.NewCol(aliasOf(), fmt.Sprintf("c%d", r.Intn(4)))
	}

	if r.Intn(4) == 0 {
		stmt.Star = true
	} else if r.Intn(3) == 0 {
		// Aggregation query.
		g := col()
		stmt.GroupBy = []*expr.Col{g}
		stmt.Items = []SelectItem{
			{Col: expr.NewCol(g.Alias, g.Name)},
			{Agg: AggCount},
			{Agg: AggSum, Col: col()},
		}
	} else {
		n := r.Intn(3) + 1
		for i := 0; i < n; i++ {
			stmt.Items = append(stmt.Items, SelectItem{Col: col()})
		}
	}

	if r.Intn(5) > 0 {
		stmt.Where = randWhere(r, col, 2)
	}
	return stmt
}

func randWhere(r *rand.Rand, col func() *expr.Col, depth int) expr.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return expr.NewCmp(expr.EQ, col(), expr.NewConst(types.NewInt(int64(r.Intn(100)))))
		case 1:
			ops := []expr.CmpOp{expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
			return expr.NewCmp(ops[r.Intn(len(ops))], col(), expr.NewConst(types.NewFloat(r.Float64()*10)))
		case 2:
			return &expr.IsNull{Kid: col(), Negate: r.Intn(2) == 0}
		default:
			return expr.NewCmp(expr.EQ, col(), expr.NewConst(types.NewString(fmt.Sprintf("s%d", r.Intn(5)))))
		}
	}
	switch r.Intn(3) {
	case 0:
		return expr.NewAnd(randWhere(r, col, depth-1), randWhere(r, col, depth-1))
	case 1:
		return expr.NewOr(randWhere(r, col, depth-1), randWhere(r, col, depth-1))
	default:
		return &expr.Not{Kid: randWhere(r, col, depth-1)}
	}
}

// TestParserRoundTripProperty: rendering a random statement and re-parsing
// it must reach a fixed point (render(parse(render(s))) == render(s)).
func TestParserRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		stmt := randStmt(r)
		text := stmt.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: rendered statement failed to parse: %v\n%s", trial, err, text)
		}
		again := parsed.String()
		if again != text {
			t.Fatalf("trial %d: round trip not a fixed point:\n  %s\n  %s", trial, text, again)
		}
	}
}

// TestLexerRejectsGarbageWithoutPanic feeds byte noise to the parser; it
// must return errors, never panic.
func TestLexerRejectsGarbageWithoutPanic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := "SELECT FROM WHERE ()<>=!'\".,*ab01 \t\n%$#"
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(40)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		// Must not panic; error or success both fine.
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic on %q: %v", trial, sb.String(), p)
				}
			}()
			Parse(sb.String())
		}()
	}
}
