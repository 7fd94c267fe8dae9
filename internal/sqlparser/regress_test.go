package sqlparser

import (
	"strings"
	"testing"
)

// TestParseRegressions pins inputs that broke the parser or printer in the
// past (and near neighbors of them). Each case asserts the round-trip
// property the fuzz target checks — Parse → String → Parse → String reaches
// a fixed point — plus, where it matters, a detail of the printed form. The
// same inputs are checked into testdata/fuzz/FuzzParse so the fuzzer starts
// from them too.
func TestParseRegressions(t *testing.T) {
	cases := []struct {
		name  string
		sql   string
		wants []string // substrings the printed form must contain
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
			name:  "float exponent lexing",
			sql:   "SELECT x FROM t WHERE f > 1.5e3",
			wants: []string{"1500"},
		},
		{
			name: "negative exponent",
			sql:  "SELECT x FROM t WHERE f < 2E-7",
		},
		{
			name: "exponent with explicit plus",
			sql:  "SELECT x FROM t WHERE f >= 1e+2",
		},
		{
			name: "long fraction keeps value",
			sql:  "SELECT * FROM A WHERE 0 < 0.00000010000000",
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
	} {
		_, err := Parse(tc.sql)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.sql)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", tc.sql, err, tc.want)
		}
	}
}
