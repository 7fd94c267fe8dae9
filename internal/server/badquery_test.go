package server

import (
	"context"
	"errors"
	"testing"

	"enrichdb"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// TestBadQueriesEveryEntryPoint is the bad-query half of the good/bad query
// tables: each statement must fail on every entry point — DB.Run,
// Session.Run and the wire client — under every design, with one message.
// The wire leg answers an Error frame of code CodeQuery whose Msg is the
// in-process error text.
func TestBadQueriesEveryEntryPoint(t *testing.T) {
	db, _, addr := start(t, 32, nil, nil)
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cases := []struct{ name, sql string }{
		{"order by", "SELECT id FROM events WHERE grp = 1 ORDER BY id"},
		{"limit", "SELECT id, label FROM events LIMIT 3"},
		{"sum", "SELECT grp, SUM(id) FROM events GROUP BY grp"},
		{"avg", "SELECT AVG(id) FROM events"},
		{"min", "SELECT MIN(id) FROM events WHERE grp = 1"},
		{"max", "SELECT grp, count(*), MAX(label) FROM events GROUP BY grp"},
		{"count of a column", "SELECT COUNT(label) FROM events"},
		{"float literal", "SELECT id FROM events WHERE grp < 1.5"},
		{"TRUE literal", "SELECT id FROM events WHERE label = TRUE"},
		{"FALSE literal", "SELECT id FROM events WHERE grp = 1 AND label <> FALSE"},
		{"unknown column", "SELECT id, nosuch FROM events"},
		{"ambiguous column in self-join", "SELECT id FROM events a, events b WHERE a.id = b.id"},
		{"bad join column", "SELECT a.id FROM events a, events b WHERE a.grp = b.nosuch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for wd, d := range libraryDesign {
				_, dbErr := db.Run(ctx, d, tc.sql, enrichdb.QueryObs{})
				_, sessErr := sess.Run(ctx, d, tc.sql, enrichdb.QueryObs{})
				_, wireErr := c.Query(ctx, wire.Design(wd), tc.sql)
				if dbErr == nil || sessErr == nil || wireErr == nil {
					t.Fatalf("%s: accepted (DB.Run %v, Session.Run %v, wire %v)", d, dbErr, sessErr, wireErr)
				}
				if want == "" {
					want = dbErr.Error()
					t.Log(want)
				}
				if dbErr.Error() != want || sessErr.Error() != want {
					t.Errorf("%s: DB.Run %q, Session.Run %q; want %q", d, dbErr, sessErr, want)
				}
				var we *wire.Error
				if !errors.As(wireErr, &we) || we.Code != wire.CodeQuery || we.Msg != want {
					t.Errorf("%s: wire %v; want code %d, message %q", d, wireErr, wire.CodeQuery, want)
				}
			}
		})
	}
	// The connection survives its failed queries.
	if _, err := c.Query(ctx, wire.DesignPlain, "SELECT id FROM events WHERE grp = 1"); err != nil {
		t.Fatalf("query after the bad ones: %v", err)
	}
}
