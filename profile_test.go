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

	// A plain statement is not profiled: no profile comes back.
	q := "SELECT id, store FROM Reviews WHERE day < 10"
	rows, err := sess.Run(context.Background(), PlainDesign, q, QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Profile != nil {
		t.Fatalf("profile returned for a plain statement: %+v", rows.Profile)
	}

	explained, err := sess.Run(context.Background(), PlainDesign, "EXPLAIN ANALYZE "+q, QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	prof := explained.Profile
	if prof == nil || prof.Root == nil {
		t.Fatal("no profile for EXPLAIN ANALYZE")
	}
	if prof.Design != "plain" {
		t.Fatalf("profile design = %q, want plain", prof.Design)
	}
	if cols := explained.Columns(); len(cols) != 1 || cols[0] != "plan" {
		t.Fatalf("EXPLAIN ANALYZE columns = %v, want [plan]", cols)
	}
	// The profiled run answers what the unprofiled one did.
	if prof.Root.RowsOut != int64(rows.Len()) {
		t.Fatalf("root rows-out = %d, want %d", prof.Root.RowsOut, rows.Len())
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

	q := "EXPLAIN ANALYZE SELECT id, rating FROM Reviews WHERE rating = 2"
	lres, err := sess.Run(context.Background(), LooseDesign, q, QueryObs{})
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
	if root.RowsOut == 0 {
		t.Fatal("loose profile answered no rows")
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
	// The probe is a plan: its filter, mark test included, scanned the whole
	// 200-row relation under LooseProbe.
	if probe := root.Children[0]; probe.Name != "LooseProbe" || len(probe.Children) != 1 ||
		probe.Children[0].Name != "Filter" || probe.Children[0].RowsIn != 200 ||
		!strings.Contains(probe.Children[0].Detail, "AnyUnenriched(Reviews.rating)") {
		t.Fatalf("loose probe plan not profiled:\n%s", lres.Profile)
	}
	// A join's probe reduces by a semi-join over the fixed join condition
	// (on a fresh database: the query above enriched every rating).
	cold, _, _ := buildReviewDB(t)
	defer cold.Close()
	jres, err := cold.Run(context.Background(), LooseDesign, "EXPLAIN ANALYZE SELECT R1.id FROM Reviews R1, Reviews R2 "+
		"WHERE R1.store = R2.store AND R2.day < 3 AND R1.rating = 2", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if probe := jres.Profile.Root.Children[0]; len(probe.Children) != 1 || probe.Children[0].Name != "HashSemiJoin" ||
		len(probe.Children[0].Children) != 2 || probe.Children[0].Children[1].RowsIn != 200 {
		t.Fatalf("join probe plan not profiled as a semi-join:\n%s", jres.Profile)
	}

	// Tight runs the rewritten plan under the same profiler: the root is the
	// plan's top operator and UDF-wrapped predicates show up as Filters.
	tres, err := sess.Run(context.Background(), TightDesign, q, QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Profile == nil || tres.Profile.Root == nil {
		t.Fatal("tight query returned no profile")
	}
	if tres.Profile.Design != "tight" {
		t.Fatalf("tight profile design = %q", tres.Profile.Design)
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

	q := "SELECT id, rating FROM Reviews WHERE rating = 2"
	res, err := runProgressive(db.Run, "EXPLAIN ANALYZE "+q,
		ProgressiveOptions{MaxEpochs: 50, EpochBudget: 0, Seed: 7})
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
	if got := renderPlan(res.Rows); got != res.Profile.String() {
		t.Fatalf("progressive EXPLAIN ANALYZE rows are not the rendered profile:\n%s", got)
	}
	// The rows are the profile; the deltas still net to the run's answer.
	if answer, _ := res.DeltaSince(0); root.RowsOut != int64(answer.Len()) {
		t.Fatalf("progressive root rows-out = %d, answer has %d", root.RowsOut, answer.Len())
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

	// A plain statement carries no profile.
	res2, err := runProgressive(db.Run, q, ProgressiveOptions{MaxEpochs: 50, EpochBudget: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile != nil {
		t.Fatal("progressive profile returned for a plain statement")
	}

	// Plan-only EXPLAIN runs no epoch and enriches nothing.
	before := db.Stats().Enrichments
	plan, err := runProgressive(db.Run, "EXPLAIN "+q, ProgressiveOptions{MaxEpochs: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Epochs) != 0 || plan.Enrichments != 0 || db.Stats().Enrichments != before || plan.Profile != nil {
		t.Fatalf("progressive EXPLAIN executed: %d epochs, %d enrichments", len(plan.Epochs), plan.Enrichments)
	}
	if text := renderPlan(plan.Rows); !strings.Contains(text, "Scan Reviews") || !strings.Contains(text, "est_rows=") {
		t.Fatalf("progressive EXPLAIN plan:\n%s", text)
	}
}
