package enrichdb

// EXPLAIN ANALYZE golden tests. Cardinalities on a seeded fixture are exact
// and asserted exactly; wall times are only asserted present and monotone
// (a child's inclusive wall can never exceed its parent's).

import (
	"context"
	"strings"
	"testing"
)

// checkProfileTree walks a profile asserting every node has a measured wall
// time no larger than its parent's (figures are inclusive of children).
func checkProfileTree(t *testing.T, n *OpProfile) {
	t.Helper()
	if n.Wall <= 0 {
		t.Errorf("node %s %s: wall = %v, want > 0", n.Name, n.Detail, n.Wall)
	}
	for _, c := range n.Children {
		if c.Wall > n.Wall {
			t.Errorf("child %s wall %v exceeds inclusive parent %s wall %v", c.Name, c.Wall, n.Name, n.Wall)
		}
		checkProfileTree(t, c)
	}
}

func TestExplainAnalyzePlain(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	defer db.Close()
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Profiling off by default: no profile comes back.
	rows, err := sess.Run(context.Background(), PlainDesign, "SELECT id, store FROM Reviews WHERE day < 10", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Profile != nil {
		t.Fatalf("profile returned with obs off: %+v", rows.Profile)
	}

	rows2, err := sess.Run(context.Background(), PlainDesign, "SELECT id, store FROM Reviews WHERE day < 10", QueryObs{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := rows2.Profile
	if prof == nil || prof.Root == nil {
		t.Fatal("no profile with obs.Profile set")
	}
	if prof.Design != "plain" {
		t.Fatalf("profile design = %q, want plain", prof.Design)
	}
	if rows.Len() != rows2.Len() {
		t.Fatalf("profiled query returned %d rows, unprofiled %d", rows2.Len(), rows.Len())
	}
	// day = i%30 over 200 rows: days 0..9 hit 7 times each, except 0..19
	// hit 7 times and 20..29 hit 6 — days 0..9 occur ceil(200/30) = 7 times.
	if prof.Root.RowsOut != int64(rows2.Len()) {
		t.Fatalf("root rows-out = %d, want %d", prof.Root.RowsOut, rows2.Len())
	}
	// Some node must have consumed the full 200-row relation.
	var sawFullScan bool
	var walk func(n *OpProfile)
	walk = func(n *OpProfile) {
		if n.RowsIn == 200 {
			sawFullScan = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Root)
	if !sawFullScan {
		t.Fatalf("no operator consumed the 200-row base relation:\n%s", prof)
	}
	checkProfileTree(t, prof.Root)
	if out := prof.String(); !strings.Contains(out, "out=") || !strings.Contains(out, "wall=") {
		t.Fatalf("rendered profile missing figures:\n%s", out)
	}
}

func TestExplainAnalyzeLooseAndTight(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	defer db.Close()
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	q := "SELECT id, rating FROM Reviews WHERE rating = 2"
	lres, err := sess.Run(context.Background(), LooseDesign, q, QueryObs{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Profile == nil || lres.Profile.Root == nil {
		t.Fatal("loose query returned no profile")
	}
	root := lres.Profile.Root
	if root.Name != "LooseQuery" {
		t.Fatalf("loose profile root = %q, want LooseQuery", root.Name)
	}
	if root.RowsOut != int64(lres.Rows.Len()) {
		t.Fatalf("loose root rows-out = %d, result has %d", root.RowsOut, lres.Rows.Len())
	}
	phases := make(map[string]bool)
	for _, c := range root.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"LooseProbe", "LooseEnrich", "LooseExecute"} {
		if !phases[want] {
			t.Errorf("loose profile missing phase %s; got %v", want, phases)
		}
	}
	checkProfileTree(t, root)

	// Tight runs the rewritten plan under the same profiler: the root is the
	// plan's top operator and UDF-wrapped predicates show up as Filters.
	tres, err := sess.Run(context.Background(), TightDesign, q, QueryObs{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Profile == nil || tres.Profile.Root == nil {
		t.Fatal("tight query returned no profile")
	}
	if tres.Profile.Design != "tight" {
		t.Fatalf("tight profile design = %q", tres.Profile.Design)
	}
	if tres.Profile.Root.RowsOut != int64(tres.Rows.Len()) {
		t.Fatalf("tight root rows-out = %d, result has %d", tres.Profile.Root.RowsOut, tres.Rows.Len())
	}
	checkProfileTree(t, tres.Profile.Root)

	// Loose and tight agree on the answer, so their profiled rows-out match.
	if root.RowsOut != tres.Profile.Root.RowsOut {
		t.Fatalf("loose rows-out %d != tight rows-out %d", root.RowsOut, tres.Profile.Root.RowsOut)
	}
}

func TestExplainAnalyzeProgressive(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	defer db.Close()

	res, err := db.QueryProgressive("SELECT id, rating FROM Reviews WHERE rating = 2",
		ProgressiveOptions{MaxEpochs: 50, EpochBudget: 0, Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || res.Profile.Root == nil {
		t.Fatal("progressive run returned no profile")
	}
	root := res.Profile.Root
	if root.Name != "ProgressiveQuery" {
		t.Fatalf("progressive root = %q, want ProgressiveQuery", root.Name)
	}
	if root.RowsOut != int64(res.Len()) {
		t.Fatalf("progressive root rows-out = %d, result has %d", root.RowsOut, res.Len())
	}
	names := make(map[string]bool)
	for _, c := range root.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"Setup", "Plan", "Enrich", "Refresh"} {
		if !names[want] {
			t.Errorf("progressive profile missing phase %s; got %v", want, names)
		}
	}
	if root.Wall <= 0 {
		t.Fatalf("progressive root wall = %v", root.Wall)
	}

	// Without Profile the result carries none.
	res2, err := db.QueryProgressive("SELECT id, rating FROM Reviews WHERE rating = 2",
		ProgressiveOptions{MaxEpochs: 50, EpochBudget: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile != nil {
		t.Fatal("progressive profile returned without opts.Profile")
	}
}
