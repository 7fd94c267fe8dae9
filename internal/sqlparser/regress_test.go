package sqlparser

import (
	"strings"
	"testing"
)

// TestParseRegressions pins inputs that broke the parser or printer in the
// past (and near neighbors of them). Each case asserts the round-trip
// property the fuzz target checks — Parse → String → Parse → String reaches
// a fixed point — plus, where it matters, a detail of the printed form. A
// case with refuse set is a FLOAT literal: it must fail with an error that
// names the whole literal, which the lexer must read as one number token.
// The same inputs are checked into testdata/fuzz/FuzzParse so the fuzzer
// starts from them too.
func TestParseRegressions(t *testing.T) {
	cases := []struct {
		name   string
		sql    string
		wants  []string // substrings the printed form must contain
		refuse string   // the error's substring, for a refused literal
	}{
		{
			// String literals containing quotes must be re-escaped when
			// printed; an unescaped print produced SQL that no longer
			// parsed (or parsed to a different literal).
			name:  "quote escaping in string literal printing",
			sql:   "SELECT x FROM t WHERE s = 'it''s'",
			wants: []string{"'it''s'"},
		},
		{
			name:  "empty string literal",
			sql:   "SELECT x FROM t WHERE s = ''",
			wants: []string{"''"},
		},
		{
			name: "literal that is only a quote",
			sql:  "SELECT x FROM t WHERE s = ''''",
		},
		{
			// The lexer once stopped a number at 'e', splitting 1.5e3
			// into 1.5 and an identifier e3.
			name:   "float exponent lexing",
			sql:    "SELECT x FROM t WHERE f > 1.5e3",
			refuse: "FLOAT literal 1.5e3 is not supported",
		},
		{
			name:   "negative exponent",
			sql:    "SELECT x FROM t WHERE f < 2E-7",
			refuse: "FLOAT literal 2E-7 is not supported",
		},
		{
			name:   "exponent with explicit plus",
			sql:    "SELECT x FROM t WHERE f >= 1e+2",
			refuse: "FLOAT literal 1e+2 is not supported",
		},
		{
			name:   "long fraction keeps value",
			sql:    "SELECT * FROM A WHERE 0 < 0.00000010000000",
			refuse: "FLOAT literal 0.00000010000000 is not supported",
		},
		{
			name: "no whitespace between tokens",
			sql:  "SELECT*FROM A WHERE(a<5)GROUP BY A00",
		},
		{
			name: "utf8 in literal",
			sql:  "SELECT * FROM t WHERE s = 'café ✓'",
		},
		{
			name: "IN list desugars and reprints",
			sql:  "SELECT x FROM t WHERE a IN (1, 2, 3)",
		},
		{
			name: "deeply nested parens",
			sql:  "select x from t where ((((a=1)))) and b = 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(tc.sql)
			if tc.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("Parse(%q) = %v, want an error naming %q", tc.sql, err, tc.refuse)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.sql, err)
			}
			printed := s.String()
			for _, w := range tc.wants {
				if !strings.Contains(printed, w) {
					t.Errorf("printed form %q missing %q", printed, w)
				}
			}
			re, err := Parse(printed)
			if err != nil {
				t.Fatalf("printed form does not re-parse:\ninput:   %q\nprinted: %q\nerr: %v", tc.sql, printed, err)
			}
			if again := re.String(); again != printed {
				t.Errorf("not a fixed point:\nfirst:  %q\nsecond: %q", printed, again)
			}
		})
	}
}

// TestParseRejections pins inputs that must fail cleanly (error, no panic);
// where want is set, the error must contain it.
func TestParseRejections(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{sql: "SELECT * FROM t WHERE a = 'unterminated"},
		{sql: "SELECT * FROM t WHERE a = 1 AND"},
		{sql: "SELECT"},
		{sql: ""},
		{sql: "\x00\xff\xfe"},
		{sql: "SELECT * FROM t WHERE f = 1.5e"}, // bare exponent marker
		{sql: "SELECT x FROM t WHERE a = 1 ORDER BY x DESC", want: "ORDER BY is not supported"},
		{sql: "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a", want: "ORDER BY is not supported"},
		{sql: "SELECT * FROM t LIMIT 10", want: "LIMIT is not supported"},
		{sql: "SELECT * FROM t a, u b WHERE a.x = b.x LIMIT 1", want: "LIMIT is not supported"},
		{sql: "SELECT SUM(x) FROM t", want: "SUM is not supported"},
		{sql: "SELECT g, avg(x) FROM t GROUP BY g", want: "AVG is not supported"},
		{sql: "SELECT MIN(t.x) FROM t", want: "MIN is not supported"},
		{sql: "SELECT count(*), MAX(x) FROM t", want: "MAX is not supported"},
		{sql: "SELECT COUNT(x) FROM t", want: "COUNT(column) is not supported"},
		{sql: "SELECT g, count(t.x) FROM t GROUP BY g", want: "COUNT(column) is not supported"},
		{sql: "SELECT * FROM t WHERE a = 1.5", want: "FLOAT literal 1.5 is not supported"},
		{sql: "SELECT * FROM t WHERE a = TRUE", want: "BOOL literal TRUE is not supported"},
		{sql: "SELECT * FROM t WHERE a <> false", want: "BOOL literal FALSE is not supported"},
	} {
		_, err := Parse(tc.sql)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.sql)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", tc.sql, err, tc.want)
		}
	}
}
