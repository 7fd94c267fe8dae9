package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"enrichdb"
)

// canon renders a query result in a canonical, order-insensitive form: one
// tab-joined line per row, lines sorted, prefixed by the column header. Two
// results are equal iff their canonical renderings are byte-identical.
func canon(rows *enrichdb.Rows) string {
	if rows == nil {
		return "<nil>"
	}
	lines := make([]string, rows.Len())
	var sb strings.Builder
	for i := 0; i < rows.Len(); i++ {
		sb.Reset()
		for j, v := range rows.At(i) {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	return strings.Join(rows.Columns(), "\t") + "\n" + strings.Join(lines, "\n")
}

// replaySingle rebuilds a fresh database, applies ops in order, and runs one
// query through a (necessarily uncontended) session — the serial execution a
// snapshot-tagged result must be equivalent to.
func replaySingle(cfg Config, ops []committed, q recordedQuery) (string, error) {
	db, err := newDBForReplay(cfg)
	if err != nil {
		return "", err
	}
	defer db.Close()
	for _, c := range ops {
		if err := applyOp(db, c.Op); err != nil {
			return "", err
		}
	}
	return runRecorded(db, q)
}

// newDBForReplay builds the replay database: identical to the live one but
// without admission control (replay is single-threaded, and an admission
// limit would only add queue noise).
func newDBForReplay(cfg Config) (*enrichdb.DB, error) {
	cfg.MaxSessions = 0
	return newDB(cfg)
}

// runRecorded executes a recorded query's SQL through the same session path
// the live run used and returns the canonical result. A recorded plain query
// replays through the loose design: plain reads return whatever enrichment
// concurrent sessions happened to complete, so their oracle is containment
// in the fully-enriched serial answer (see compare), not byte-equality.
func runRecorded(db *enrichdb.DB, q recordedQuery) (string, error) {
	sess, err := db.Session()
	if err != nil {
		return "", err
	}
	defer sess.Close()
	design, ok := libraryDesign[q.Design]
	if !ok {
		return "", fmt.Errorf("replay: unknown design %q", q.Design)
	}
	if design == enrichdb.PlainDesign {
		design = enrichdb.LooseDesign
	}
	res, err := sess.Run(context.Background(), design, q.SQL, enrichdb.QueryObs{})
	if err != nil {
		return "", err
	}
	if q.Design == "loose" && res.FailedEnrichments > 0 {
		return "", fmt.Errorf("replay: %d failed enrichments", res.FailedEnrichments)
	}
	return canon(res.Rows), nil
}

// compare decides whether a recorded concurrent result is consistent with
// its serial replay. Loose and tight queries enrich everything they need
// themselves, so their answers are pure functions of the snapshot and must
// be byte-identical. A plain query performs no enrichment: it sees exactly
// the derived values concurrent sessions had determined by snapshot time —
// a prefix of the enrichment work — so each of its rows must appear in the
// fully-enriched serial answer (a non-NULL label is first-write-wins per
// image and deterministic, so a visible row can never contradict replay).
func compare(design, recorded, replayed string) bool {
	if design != "plain" {
		return recorded == replayed
	}
	return subsetOf(recorded, replayed)
}

// subsetOf reports whether every line of a (header plus row multiset) occurs
// in b, with identical headers.
func subsetOf(a, b string) bool {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	if len(al) == 0 || len(bl) == 0 || al[0] != bl[0] {
		return false
	}
	counts := make(map[string]int, len(bl))
	for _, l := range bl[1:] {
		counts[l]++
	}
	for _, l := range al[1:] {
		if l == "" {
			continue
		}
		if counts[l] == 0 {
			return false
		}
		counts[l]--
	}
	return true
}

// replayCheck is the serial-replay oracle: one fresh database, the committed
// history applied single-threaded in commit order, and every recorded query
// re-run at exactly the commit version its snapshot was taken at. A mismatch
// means a query answer depended on something other than its snapshot — a
// snapshot-isolation or enrichment-sharing bug — and is reported with the
// seed and a minimized op trace.
func replayCheck(cfg Config, ops []committed, queries []recordedQuery) (int, error) {
	db, err := newDBForReplay(cfg)
	if err != nil {
		return 0, err
	}
	defer db.Close()

	ordered := sortQueriesByVersion(queries)
	applied := 0
	for _, q := range ordered {
		for applied < len(ops) && ops[applied].Version <= q.Version {
			if err := applyOp(db, ops[applied].Op); err != nil {
				return 0, fmt.Errorf("harness seed %d: replay apply %s: %w", cfg.Seed, ops[applied].Op, err)
			}
			applied++
		}
		got, err := runRecorded(db, q)
		if err != nil {
			return 0, fmt.Errorf("harness seed %d: replay %s %q at v%d: %w", cfg.Seed, q.Design, q.SQL, q.Version, err)
		}
		if !compare(q.Design, q.Result, got) {
			prefix := ops[:applied]
			minimal := minimizeOps(cfg, prefix, q)
			return 0, fmt.Errorf(
				"harness seed %d: serial-replay mismatch for %s %q at v%d\n--- concurrent run ---\n%s\n--- serial replay ---\n%s\n--- minimized op trace (%d of %d ops) ---\n%s",
				cfg.Seed, q.Design, q.SQL, q.Version, q.Result, got,
				len(minimal), len(prefix), renderOps(minimal))
		}
	}
	return len(ordered), nil
}

func renderOps(ops []committed) string {
	lines := make([]string, len(ops))
	for i, c := range ops {
		lines[i] = fmt.Sprintf("v%d: %s", c.Version, c.Op)
	}
	return strings.Join(lines, "\n")
}
