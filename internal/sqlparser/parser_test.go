package sqlparser

import (
	"strings"
	"testing"

	"enrichdb/internal/expr"
)

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !s.Star || len(s.From) != 1 || s.From[0].Table != "MultiPie" {
		t.Errorf("shape: %+v", s)
	}
	and, ok := s.Where.(*expr.And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("WHERE: %s", s.Where)
	}
}

func TestParseAliases(t *testing.T) {
	s := MustParse("SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment")
	if len(s.From) != 2 || s.From[0].Alias != "T1" || s.From[1].Alias != "T2" {
		t.Errorf("aliases: %+v", s.From)
	}
	cmp := s.Where.(*expr.Cmp)
	l := cmp.L.(*expr.Col)
	if l.Alias != "T1" || l.Name != "sentiment" {
		t.Errorf("lhs: %v", l)
	}
	s2 := MustParse("SELECT * FROM TweetData AS T1")
	if s2.From[0].Alias != "T1" {
		t.Errorf("AS alias: %+v", s2.From)
	}
}

func TestParseBetween(t *testing.T) {
	s := MustParse("SELECT * FROM T WHERE t BETWEEN 10 AND 20")
	and, ok := s.Where.(*expr.And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("BETWEEN must desugar to two conjuncts: %s", s.Where)
	}
	if c := and.Kids[0].(*expr.Cmp); c.Op != expr.GE {
		t.Errorf("first op %s", c.Op)
	}
	if c := and.Kids[1].(*expr.Cmp); c.Op != expr.LE {
		t.Errorf("second op %s", c.Op)
	}
	// The paper's parenthesized form.
	s2 := MustParse("SELECT * FROM T WHERE t BETWEEN (10, 20)")
	if s2.Where.String() != s.Where.String() {
		t.Errorf("paren BETWEEN: %s vs %s", s2.Where, s.Where)
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN 1 AND 2 GROUP BY topic")
	if !s.HasAggregate() {
		t.Fatal("must detect aggregate")
	}
	if len(s.Items) != 2 || s.Items[0].Agg != AggNone || s.Items[1].Agg != AggCount || s.Items[1].Col != nil {
		t.Errorf("items: %+v", s.Items)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "topic" {
		t.Errorf("group by: %+v", s.GroupBy)
	}
}

func TestParseOrNotNull(t *testing.T) {
	s := MustParse("SELECT * FROM R WHERE (a IS NULL OR a = 1) AND NOT b = 2 AND c IS NOT NULL")
	str := s.Where.String()
	for _, want := range []string{"IS NULL", "OR", "NOT", "IS NOT NULL"} {
		if !strings.Contains(str, want) {
			t.Errorf("rendered WHERE %q missing %q", str, want)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	s := MustParse("SELECT * FROM R WHERE a = -5 AND c = 'it''s' AND d IS NULL")
	str := s.Where.String()
	// The embedded quote renders re-escaped ('' per SQL), so the printed
	// statement parses back to the same literal.
	for _, want := range []string{"-5", "'it''s'", "NULL"} {
		if !strings.Contains(str, want) {
			t.Errorf("WHERE %q missing %q", str, want)
		}
	}
}

func TestParseOperators(t *testing.T) {
	ops := map[string]expr.CmpOp{
		"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
		"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
	}
	for text, want := range ops {
		s := MustParse("SELECT * FROM R WHERE a " + text + " 1")
		c := s.Where.(*expr.Cmp)
		if c.Op != want {
			t.Errorf("op %q parsed as %s", text, c.Op)
		}
	}
}

func TestParseIn(t *testing.T) {
	s := MustParse("SELECT * FROM R WHERE a IN (1, 2, 3) AND b = 4")
	and := s.Where.(*expr.And)
	or, ok := and.Kids[0].(*expr.Or)
	if !ok || len(or.Kids) != 3 {
		t.Fatalf("IN must desugar to a 3-way disjunction: %s", s.Where)
	}
	for i, k := range or.Kids {
		c, ok := k.(*expr.Cmp)
		if !ok || c.Op != expr.EQ {
			t.Fatalf("alt %d: %s", i, k)
		}
	}
	s2 := MustParse("SELECT * FROM R WHERE city IN ('LA')")
	if _, ok := s2.Where.(*expr.Cmp); !ok {
		t.Errorf("single-element IN should collapse to an equality: %s", s2.Where)
	}
	for _, bad := range []string{
		"SELECT * FROM R WHERE a IN ()",
		"SELECT * FROM R WHERE a IN (1, )",
		"SELECT * FROM R WHERE a IN 1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s, err := Parse("select * from R where a = 1 group by a")
	if err == nil && len(s.GroupBy) == 1 {
		return
	}
	t.Errorf("lowercase keywords: %v", err)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM R WHERE",
		"SELECT * FROM R WHERE a =",
		"SELECT * FROM R WHERE a BETWEEN 1",
		"SELECT * FROM R extra garbage (",
		"SELECT * FROM R WHERE a = 'unterminated",
		"SELECT * FROM R WHERE a # 1",
		"SELECT sum(*) FROM R",
		"SELECT * FROM R GROUP",
		"SELECT * FROM R WHERE a IS 1",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) must fail", q)
		}
	}
}

func TestStatementRoundTrip(t *testing.T) {
	// The canonical rendering must re-parse to the same rendering.
	queries := []string{
		"SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5",
		"SELECT topic, count(*) FROM TweetData WHERE TweetTime >= 1 AND TweetTime <= 5 GROUP BY topic",
		"SELECT * FROM TweetData T1, TweetData T2, State S WHERE T1.topic = T2.topic AND T1.location = S.city",
	}
	for _, q := range queries {
		s1 := MustParse(q)
		s2 := MustParse(s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip:\n %s\n %s", s1, s2)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("not sql")
}
