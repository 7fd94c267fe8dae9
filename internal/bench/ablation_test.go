package bench

import (
	"testing"
	"time"
)

// TestAblationProbeShape: disabling any minimality strategy must not shrink
// the candidate set, and on Q7/Q8 semi-joins must demonstrably reduce it.
func TestAblationProbeShape(t *testing.T) {
	tb, err := AblationProbe(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for ri := range tb.Rows {
		full := intCell(t, tb, ri, 1)
		noSel := intCell(t, tb, ri, 2)
		noSJ := intCell(t, tb, ri, 3)
		if noSel < full || noSJ < full {
			t.Errorf("%s: disabling a strategy shrank the probe: full=%d noSel=%d noSJ=%d",
				cell(t, tb, ri, 0), full, noSel, noSJ)
		}
		if noSel == full {
			t.Errorf("%s: selections contributed nothing (full=%d)", cell(t, tb, ri, 0), full)
		}
	}
	// Q7 (row 1) and Q8 (row 2) must show semi-join savings.
	for _, ri := range []int{1, 2} {
		if intCell(t, tb, ri, 3) <= intCell(t, tb, ri, 1) {
			t.Errorf("%s: semi-joins contributed nothing", cell(t, tb, ri, 0))
		}
	}
	// Prior work: the 'no prior work' second-run probe must be non-empty
	// (everything it lists was saved by the state tables).
	for ri := range tb.Rows {
		if intCell(t, tb, ri, 4) == 0 {
			t.Errorf("%s: prior-work column empty", cell(t, tb, ri, 0))
		}
	}
}

// TestAblationOptimizerShape: each disabled optimizer behaviour must
// strictly increase the tight design's enrichments.
func TestAblationOptimizerShape(t *testing.T) {
	tb, err := AblationOptimizer(tiny())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for ri := range tb.Rows {
		on := intCell(t, tb, ri, 1)
		off := intCell(t, tb, ri, 2)
		if off <= on {
			t.Errorf("%s: disabling the behaviour did not cost enrichments (on=%d off=%d)",
				cell(t, tb, ri, 0), on, off)
		}
	}
}

// TestAblationBatchingShape: batching changes how often the server is
// invoked, not how much enrichment runs. Every mode executes each function
// once per object; the batch modes pay one invocation, per-row pays one per
// object. Durations are machine-dependent and stay in the logged table.
func TestAblationBatchingShape(t *testing.T) {
	tb, err := AblationBatching(tiny(), 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.String())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	objects := int64(tiny().Images)
	for ri, wantInvocations := range []int64{1, 1, objects} {
		if got := intCell(t, tb, ri, 3); got != wantInvocations {
			t.Errorf("%s: %d invocations, want %d", cell(t, tb, ri, 0), got, wantInvocations)
		}
		if got := intCell(t, tb, ri, 4); got != objects {
			t.Errorf("%s: %d executions, want one per object (%d)", cell(t, tb, ri, 0), got, objects)
		}
	}
}
