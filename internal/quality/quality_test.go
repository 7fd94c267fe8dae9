package quality

import (
	"math"
	"testing"

	"enrichdb/internal/expr"
	"enrichdb/internal/types"
)

func row(tids []int64, vals ...types.Value) *expr.Row {
	return &expr.Row{Vals: vals, TIDs: tids}
}

func TestSetF1Perfect(t *testing.T) {
	rows := []*expr.Row{row([]int64{1}), row([]int64{2}), row([]int64{3})}
	p, r, f1 := SetF1(rows, rows)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("perfect: p=%v r=%v f1=%v", p, r, f1)
	}
}

func TestSetF1PartialOverlap(t *testing.T) {
	got := []*expr.Row{row([]int64{1}), row([]int64{2}), row([]int64{4})}
	want := []*expr.Row{row([]int64{1}), row([]int64{2}), row([]int64{3}), row([]int64{5})}
	p, r, f1 := SetF1(got, want)
	if math.Abs(p-2.0/3) > 1e-9 || math.Abs(r-0.5) > 1e-9 {
		t.Errorf("p=%v r=%v", p, r)
	}
	wantF1 := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(f1-wantF1) > 1e-9 {
		t.Errorf("f1=%v want %v", f1, wantF1)
	}
}

func TestSetF1Empty(t *testing.T) {
	// Both sides empty: a vacuously perfect match — NOT the silent zero the
	// old code returned (which read as "totally wrong" for a query whose
	// true answer is legitimately empty).
	p, r, f1 := SetF1(nil, nil)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("both empty must be perfect: %v %v %v", p, r, f1)
	}
	// Empty answer against a non-empty truth: nothing found.
	p, r, f1 = SetF1(nil, []*expr.Row{row([]int64{1})})
	if p != 1 || r != 0 || f1 != 0 {
		t.Errorf("empty got: p=%v r=%v f1=%v", p, r, f1)
	}
	// Non-empty answer against an empty truth: pure false positives, which
	// must NOT score as perfect.
	p, r, f1 = SetF1([]*expr.Row{row([]int64{1})}, nil)
	if p != 0 || r != 1 || f1 != 0 {
		t.Errorf("empty want: p=%v r=%v f1=%v", p, r, f1)
	}
}

func TestSetF1Multiset(t *testing.T) {
	// A duplicate answer only matches one ground-truth occurrence.
	got := []*expr.Row{row([]int64{1}), row([]int64{1})}
	want := []*expr.Row{row([]int64{1})}
	p, r, _ := SetF1(got, want)
	if p != 0.5 || r != 1 {
		t.Errorf("multiset: p=%v r=%v", p, r)
	}
}

func TestSetF1FallsBackToValues(t *testing.T) {
	got := []*expr.Row{row(nil, types.NewInt(1), types.NewString("a"))}
	want := []*expr.Row{row(nil, types.NewInt(1), types.NewString("a"))}
	if _, _, f1 := SetF1(got, want); f1 != 1 {
		t.Errorf("value-keyed f1 = %v", f1)
	}
}

func TestGroupRMSE(t *testing.T) {
	got := []*expr.Row{
		row(nil, types.NewInt(0), types.NewInt(10)),
		row(nil, types.NewInt(1), types.NewInt(20)),
	}
	want := []*expr.Row{
		row(nil, types.NewInt(0), types.NewInt(13)),
		row(nil, types.NewInt(1), types.NewInt(16)),
	}
	// deviations 3 and 4 over 2 groups: sqrt((9+16)/2) = 3.5355
	g, ok := GroupRMSE(got, want)
	if !ok || math.Abs(g-math.Sqrt(12.5)) > 1e-9 {
		t.Errorf("rmse = %v ok=%v", g, ok)
	}
}

func TestGroupRMSEMissingGroups(t *testing.T) {
	got := []*expr.Row{row(nil, types.NewInt(0), types.NewInt(10))}
	want := []*expr.Row{
		row(nil, types.NewInt(0), types.NewInt(10)),
		row(nil, types.NewInt(1), types.NewInt(6)),
	}
	// group 1 missing from got: deviation 6 over 2 groups.
	g, ok := GroupRMSE(got, want)
	if !ok || math.Abs(g-math.Sqrt(18)) > 1e-9 {
		t.Errorf("rmse = %v ok=%v", g, ok)
	}
	// No groups at all: the RMSE is undefined, not a perfect 0 — the old
	// behaviour scored an empty ground truth as a perfect match.
	if g, ok := GroupRMSE(nil, nil); ok || g != 0 {
		t.Errorf("empty rmse must be undefined: %v ok=%v", g, ok)
	}
	// One-sided emptiness is still defined (missing groups deviate fully).
	if g, ok := GroupRMSE(nil, want); !ok || g == 0 {
		t.Errorf("empty got vs 2 groups: %v ok=%v", g, ok)
	}
}

func TestGroupRMSENullValue(t *testing.T) {
	got := []*expr.Row{row(nil, types.NewInt(0), types.Null)}
	want := []*expr.Row{row(nil, types.NewInt(0), types.NewInt(4))}
	if g, ok := GroupRMSE(got, want); !ok || g != 4 {
		t.Errorf("NULL treated as 0: rmse = %v ok=%v", g, ok)
	}
}

func TestProgressiveScore(t *testing.T) {
	// Quality jumps early: all improvement in epoch 1 at weight 1.
	early := ProgressiveScore([]float64{0, 0.9, 0.9, 0.9}, 0.05)
	// Same total improvement but late: weight 1-0.05*2 = 0.9.
	late := ProgressiveScore([]float64{0, 0, 0, 0.9}, 0.05)
	if early <= late {
		t.Errorf("early improvement must score higher: %v vs %v", early, late)
	}
	if math.Abs(early-0.9) > 1e-9 {
		t.Errorf("early = %v", early)
	}
	if math.Abs(late-0.9*0.9) > 1e-9 {
		t.Errorf("late = %v", late)
	}
}

func TestProgressiveScoreClampsWeights(t *testing.T) {
	q := make([]float64, 30)
	for i := range q {
		q[i] = float64(i) / 29
	}
	// With slope 0.05, weights reach zero at epoch 21; score must be finite
	// and non-negative.
	ps := ProgressiveScore(q, 0.05)
	if ps <= 0 || math.IsNaN(ps) {
		t.Errorf("ps = %v", ps)
	}
	if ProgressiveScore([]float64{0.5}, 0.05) != 0 {
		t.Error("single point has no improvements")
	}
	if ProgressiveScore(nil, 0.05) != 0 {
		t.Error("empty series")
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize([]float64{0.2, 0.4, 0.8})
	if n[2] != 1 || math.Abs(n[0]-0.25) > 1e-9 {
		t.Errorf("normalized: %v", n)
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero series: %v", z)
	}
}
