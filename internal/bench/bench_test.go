package bench

import (
	"enrichdb/internal/dataset"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny is a fast scale for shape-validation tests.
func tiny() Scale {
	return Scale{Name: "tiny", Tweets: 600, Images: 300, TopicDomain: 6, TimeRange: 10000, Seed: 1}
}

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tb.Title, row, col)
	}
	return tb.Rows[row][col]
}

func intCell(t *testing.T, tb *Table, row, col int) int64 {
	t.Helper()
	v, err := strconv.ParseInt(cell(t, tb, row, col), 10, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %q not an int: %v", row, col, tb.Title, err)
	}
	return v
}

func floatCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tb, row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %q not a float: %v", row, col, tb.Title, err)
	}
	return v
}

// TestExp1aShape validates Table 7's comparative shape.
func TestExp1aShape(t *testing.T) {
	tb, err := Exp1aNumEnrichments(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 9 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for qi := 0; qi < 9; qi++ {
		baseline := intCell(t, tb, qi, 1)
		loose := intCell(t, tb, qi, 2)
		tight := intCell(t, tb, qi, 3)
		if loose > baseline || tight > baseline {
			t.Errorf("Q%d: designs exceed baseline: b=%d l=%d t=%d", qi+1, baseline, loose, tight)
		}
		if tight > loose {
			t.Errorf("Q%d: tight (%d) > loose (%d)", qi+1, tight, loose)
		}
		if baseline <= 2*loose && qi != 3 && qi != 4 && qi != 5 {
			// Selective queries should save a lot vs the baseline (the
			// self-joins with broad camera predicates save less).
			t.Logf("Q%d: baseline %d vs loose %d — modest savings", qi+1, baseline, loose)
		}
	}
	// Q1 (row 0), Q7 (row 6), Q9 (row 8): single derived predicate or
	// fixed-only grouping — equality expected.
	for _, qi := range []int{0, 6, 8} {
		if intCell(t, tb, qi, 2) != intCell(t, tb, qi, 3) {
			t.Errorf("Q%d: expected loose == tight, got %s vs %s",
				qi+1, cell(t, tb, qi, 2), cell(t, tb, qi, 3))
		}
	}
	// Q2 (row 1): strict tight savings.
	if !(intCell(t, tb, 1, 3) < intCell(t, tb, 1, 2)) {
		t.Errorf("Q2: tight (%s) should strictly beat loose (%s)", cell(t, tb, 1, 3), cell(t, tb, 1, 2))
	}
}

// TestExp1bShape validates Table 8's trend: the tight/loose ratio shrinks
// with selectivity while loose stays flat.
func TestExp1bShape(t *testing.T) {
	tb, err := Exp1bSelectivity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	first := floatCell(t, tb, 0, 4)             // ratio at 1%
	last := floatCell(t, tb, len(tb.Rows)-1, 4) // ratio at 75%
	if first > last {
		t.Errorf("tight/loose ratio should grow with passing fraction: %.2f @1%% vs %.2f @75%%", first, last)
	}
	// Loose is flat: its counts differ by at most a few percent across
	// selectivities (same probe result regardless of the topic predicate's
	// threshold when the attribute is unenriched).
	l0 := intCell(t, tb, 0, 2)
	lN := intCell(t, tb, len(tb.Rows)-1, 2)
	if l0 != lN {
		t.Errorf("loose counts vary with selectivity: %d vs %d", l0, lN)
	}
}

// TestExp1cShape validates Figure 5 in enrichment executions, the paper's
// machine-independent cost: the cumulative count never decreases, stays
// below eager enrichment of the whole relation, and flattens as later
// queries reuse earlier queries' work. Durations stay in the logged table.
func TestExp1cShape(t *testing.T) {
	tb, points, err := Exp1cCumulative(tiny(), 10)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(points) != 10 {
		t.Fatalf("points: %d", len(points))
	}
	var cumulative int64
	for _, p := range points {
		if p.Enrichments < 0 {
			t.Errorf("cumulative executions decreased at query %d", p.Query)
		}
		cumulative += p.Enrichments
		if cumulative > p.EagerExecs {
			t.Errorf("query %d: cumulative executions (%d) exceeded eager (%d)", p.Query, cumulative, p.EagerExecs)
		}
	}
	if cumulative == 0 {
		t.Error("no query enriched anything")
	}
	// Every window is the same width, so a later query can only execute
	// fewer functions than a cold one of its size: compare first and last.
	first, last := points[0].Enrichments, points[len(points)-1].Enrichments
	if last > first*2 {
		t.Errorf("curve should flatten: first query executed %d, last %d", first, last)
	}
}

// TestExp1dRuns smoke-tests the latency table.
func TestExp1dRuns(t *testing.T) {
	tb, err := Exp1dLatency(tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 9 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for qi := range tb.Rows {
		if cell(t, tb, qi, 1) == "0s" && cell(t, tb, qi, 2) == "0s" {
			t.Errorf("Q%d: zero latency measured", qi+1)
		}
	}
}

// TestExp1eShape validates Table 11: the enrichment server dominates the
// loose design's time once functions are expensive, and network time is
// nonzero over the TCP transport.
func TestExp1eShape(t *testing.T) {
	s := tiny()
	s.ExtraCost = 50 * time.Microsecond // make ES the dominant component
	tb, err := Exp1eTimeSplit(s, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	for qi := range tb.Rows {
		net, err := time.ParseDuration(cell(t, tb, qi, 2))
		if err != nil {
			t.Fatalf("Q%d network: %v", qi+1, err)
		}
		if net <= 0 {
			t.Errorf("Q%d: no network time over TCP", qi+1)
		}
	}
}

// TestExp2Shape validates Figures 6 and 7: quality curves rise, and the
// tight design's PS is not clearly below the loose design's.
func TestExp2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	fig7, fig6, err := Exp2Progressiveness(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + fig7.String())
	t.Log("\n" + fig6.String())
	if len(fig7.Rows) != 8 { // 4 runs × 2 designs
		t.Fatalf("fig7 rows: %d", len(fig7.Rows))
	}
	for _, row := range fig7.Rows {
		series := strings.Fields(row[2])
		first, _ := strconv.ParseFloat(series[0], 64)
		last, _ := strconv.ParseFloat(series[len(series)-1], 64)
		if last < first {
			t.Errorf("%s/%s: quality declined overall (%v -> %v)", row[0], row[1], first, last)
		}
		if last < 0.9 {
			t.Errorf("%s/%s: normalized quality should approach 1, got %v", row[0], row[1], last)
		}
	}
	if len(fig6.Rows) != 9 {
		t.Fatalf("fig6 rows: %d", len(fig6.Rows))
	}
}

// TestExp3Shape validates Figure 8: SB(FO) not worse than SB(OO).
func TestExp3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	tb, err := Exp3PlanStrategies(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 12 { // 3 queries × (3 strategies + Benefit)
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Per query: PS(FO) and PS(Benefit) should not be clearly below PS(OO).
	for q := 0; q < 3; q++ {
		oo := floatCell(t, tb, q*4+0, 2)
		fo := floatCell(t, tb, q*4+2, 2)
		bn := floatCell(t, tb, q*4+3, 2)
		if fo < oo*0.75 {
			t.Errorf("%s: SB(FO)=%.3f clearly below SB(OO)=%.3f", cell(t, tb, q*4, 0), fo, oo)
		}
		if bn < oo*0.75 {
			t.Errorf("%s: Benefit=%.3f clearly below SB(OO)=%.3f", cell(t, tb, q*4, 0), bn, oo)
		}
	}
}

// TestExp4Shape validates the overhead experiment: everything measured, and
// IVM-vs-recompute note emitted.
func TestExp4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	tb, err := Exp4Overhead(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "IVM vs re-execution") {
			found = true
		}
	}
	if !found {
		t.Error("missing IVM-vs-recompute note")
	}
}

// TestExp1fWorkersShape validates the workers axis: both designs produce a
// row per worker count, enrichments are worker-count-independent (the
// equivalence guarantee), and the tight design's epoch wall-clock improves
// with workers.
func TestExp1fWorkersShape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	tb, err := Exp1fWorkers(tiny(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 4 { // 2 designs × 2 worker counts
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		if cell(t, tb, pair[0], 3) != cell(t, tb, pair[1], 3) {
			t.Errorf("%s enrichments vary with workers: %s vs %s",
				cell(t, tb, pair[0], 0), cell(t, tb, pair[0], 3), cell(t, tb, pair[1], 3))
		}
	}
	// Tight at workers=4 (last row) must beat its workers=1 baseline.
	var speedup float64
	if _, err := fmt.Sscanf(cell(t, tb, 3, 7), "%fx", &speedup); err != nil {
		t.Fatalf("bad speedup cell %q: %v", cell(t, tb, 3, 7), err)
	}
	if speedup <= 1.1 {
		t.Errorf("tight workers=4 speedup %.2fx; want > 1.1x", speedup)
	}
}

// TestExp4WorkersShape validates the Exp 4 workers axis: one row per worker
// count and strictly fewer overhead payments once workers coalesce.
func TestExp4WorkersShape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	tb, err := Exp4WorkersOverhead(tiny(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	if p1, p4 := intCell(t, tb, 0, 6), intCell(t, tb, 1, 6); p4 >= p1 {
		t.Errorf("payments did not drop with workers: %d -> %d", p1, p4)
	}
	if c4 := intCell(t, tb, 1, 7); c4 == 0 {
		t.Error("no coalesced read_udf calls at workers=4")
	}
}

// TestExp5Shape validates Table 10's monotonicity: higher cutoffs shrink
// state and do not reduce re-executions.
func TestExp5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("progressive sweep")
	}
	sizes, cut, err := Exp5Storage(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + sizes.String())
	t.Log("\n" + cut.String())
	if len(cut.Rows) != 4 {
		t.Fatalf("cutoff rows: %d", len(cut.Rows))
	}
	state0 := intCell(t, cut, 0, 1)
	stateN := intCell(t, cut, len(cut.Rows)-1, 1)
	if stateN >= state0 {
		t.Errorf("state size should shrink with cutoff: %d -> %d", state0, stateN)
	}
	re0 := intCell(t, cut, 0, 2)
	reN := intCell(t, cut, len(cut.Rows)-1, 2)
	if reN < re0 {
		t.Errorf("re-executions should not shrink with cutoff: %d -> %d", re0, reN)
	}
}

// TestBaselineEnrichments sanity-checks the complete-enrichment counts:
// every derived attribute of every referenced relation, once per function.
func TestBaselineEnrichments(t *testing.T) {
	s := tiny()
	env, err := NewEnv(s, map[[2]string][]dataset.ModelSpec{
		{"TweetData", "sentiment"}: {{Kind: "gnb"}},
		{"TweetData", "topic"}:     {{Kind: "gnb"}},
		{"MultiPie", "gender"}:     {{Kind: "gnb"}},
		{"MultiPie", "expression"}: {{Kind: "gnb"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := env.BaselineEnrichments(s.Queries()[2]) // Q3: TweetData only
	if err != nil {
		t.Fatal(err)
	}
	want := int64(s.Tweets * 2) // two derived attributes, one function each
	if got != want {
		t.Errorf("baseline = %d want %d", got, want)
	}
	// Q8 references TweetData twice and State once: still counted once.
	got8, err := env.BaselineEnrichments(s.Queries()[7])
	if err != nil {
		t.Fatal(err)
	}
	if got8 != want {
		t.Errorf("self-join baseline = %d want %d", got8, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tb.String()
	for _, want := range []string{"== demo ==", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
