package sqlparser

import (
	"math/rand"
	"testing"
)

// FuzzParse feeds arbitrary byte strings through the parser. Two invariants:
//
//  1. Parse never panics — any input either yields a statement or an error.
//  2. Print/parse round-trip: for every accepted input, String() must itself
//     parse, and re-printing that parse must reach a fixed point (the printed
//     form is canonical, so one round settles it).
//
// The corpus seeds the supported grammar's corners: joins, aggregation,
// IS [NOT] NULL, string literals, NOT/OR nesting, the rejected FLOAT
// literals and ORDER BY/LIMIT clauses, plus
// the generator from property_test.go for structured depth. Run with
// `go test -fuzz=FuzzParse ./internal/sqlparser` to explore further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT",
		"SELECT * FROM t",
		"SELECT a.x, b.y FROM ta a, tb b WHERE a.x = b.y",
		"SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 6000",
		"SELECT sentiment, COUNT(*), SUM(t.score) FROM t GROUP BY sentiment",
		"SELECT x FROM t WHERE a IS NOT NULL OR NOT (b = 'str''quote')",
		"SELECT x FROM t ORDER BY x DESC, y ASC LIMIT 10",
		"SELECT x FROM t WHERE f > 1.5e3 AND s != 'café'",
		"select * from t where ((((a=1))))",
		"SELECT * FROM t WHERE a = 1 AND",
		"SELECT * FROM t LIMIT -1",
		"\x00\xff\xfe",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Structured seeds from the grammar generator.
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 32; i++ {
		f.Add(randStmt(rng).String())
	}

	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejected input is fine; not panicking is the point
		}
		printed := stmt.String()
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse:\ninput:   %q\nprinted: %q\nerr: %v", input, printed, err)
		}
		if again := re.String(); again != printed {
			t.Fatalf("print/parse/print not a fixed point:\nfirst:  %q\nsecond: %q", printed, again)
		}
	})
}
