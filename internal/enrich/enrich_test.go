package enrich

import (
	"testing"
	"time"

	"enrichdb/internal/ml"
	"enrichdb/internal/types"
)

// fixedModel always returns the same distribution; enough for state tests.
type fixedModel struct {
	name  string
	probs []float64
}

func (f *fixedModel) Name() string                                  { return f.name }
func (f *fixedModel) Fit(X [][]float64, y []int, classes int) error { return nil }
func (f *fixedModel) PredictProba(x []float64) []float64            { return f.probs }
func (f *fixedModel) Classes() int                                  { return len(f.probs) }

var _ ml.Classifier = (*fixedModel)(nil)

func testFamily(t *testing.T, det Determinizer, dists ...[]float64) *Family {
	t.Helper()
	fns := make([]*Function, len(dists))
	for i, d := range dists {
		fns[i] = &Function{Name: "fixed", Model: &fixedModel{name: "fixed", probs: d}, Quality: 0.5}
	}
	fam, err := NewFamily("R", "d", len(dists[0]), det, fns...)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily("R", "d", 3, nil); err == nil {
		t.Error("empty family must fail")
	}
	if _, err := NewFamily("R", "d", 1, nil, &Function{Model: &fixedModel{probs: []float64{1}}}); err == nil {
		t.Error("domain < 2 must fail")
	}
	if _, err := NewFamily("R", "d", 2, nil, &Function{}); err == nil {
		t.Error("function without model must fail")
	}
	fam := testFamily(t, nil, []float64{0.5, 0.5}, []float64{0.9, 0.1})
	if fam.Functions[0].ID != 0 || fam.Functions[1].ID != 1 {
		t.Error("function IDs must be assigned in order")
	}
	if fam.FullBitmap() != 0b11 {
		t.Errorf("FullBitmap = %b", fam.FullBitmap())
	}
}

func TestManagerExecuteAndSkip(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, nil, []float64{0.2, 0.8}, []float64{0.6, 0.4})
	if err := m.Register(fam); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2}

	ran, err := m.Execute("R", 1, "d", 0, x)
	if err != nil || !ran {
		t.Fatalf("first execute: %v %v", ran, err)
	}
	ran, err = m.Execute("R", 1, "d", 0, x)
	if err != nil || ran {
		t.Fatalf("duplicate execute must be skipped: %v %v", ran, err)
	}
	c := m.Counters()
	if c.Enrichments != 1 || c.Skipped != 1 {
		t.Errorf("counters: %+v", c)
	}
	if m.FullyEnrichedAt("R", 1, "d", 0) {
		t.Error("not fully enriched with 1/2 functions")
	}
	if !m.Enriched("R", 1, "d", 0) || m.Enriched("R", 1, "d", 1) {
		t.Error("Enriched bitmap wrong")
	}
	m.Execute("R", 1, "d", 1, x)
	if !m.FullyEnrichedAt("R", 1, "d", 0) {
		t.Error("fully enriched after both functions")
	}
	if _, err := m.Execute("R", 1, "d", 5, x); err == nil {
		t.Error("unknown function id must fail")
	}
	if _, err := m.Execute("R", 1, "zz", 0, x); err == nil {
		t.Error("unknown attr must fail")
	}
}

func TestDeterminizeAvgProb(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.6, 0.4})
	m.Register(fam)
	x := []float64{0}

	v, err := m.Determine("R", 1, "d", x)
	if err != nil || !v.IsNull() {
		t.Fatalf("no functions executed: %v %v (want NULL)", v, err)
	}
	m.Execute("R", 1, "d", 0, x)
	v, _ = m.Determine("R", 1, "d", x)
	if v.Int() != 1 { // 0.8 beats 0.2
		t.Errorf("after f0: %v", v)
	}
	m.Execute("R", 1, "d", 1, x)
	v, _ = m.Determine("R", 1, "d", x)
	// avg = [0.4, 0.6] -> class 1.
	if v.Int() != 1 {
		t.Errorf("after both: %v", v)
	}
	if got := m.Value("R", 1, "d"); got.Int() != 1 {
		t.Errorf("stored value: %v", got)
	}
}

func TestDeterminizers(t *testing.T) {
	outputs := [][]float64{
		{0.6, 0.4, 0},
		{0.1, 0.8, 0.1},
		{0.05, 0.9, 0.05},
		nil, // not executed
	}
	if v := (AvgProb{}).Determine(outputs, 3); v.Int() != 1 {
		t.Errorf("AvgProb: %v", v)
	}
	if v := (MajorityVote{}).Determine(outputs, 3); v.Int() != 1 {
		t.Errorf("MajorityVote: %v", v)
	}
	// Heavy weight on function 0 flips the weighted vote.
	if v := (WeightedVote{Weights: []float64{10, 1, 1}}).Determine(outputs, 3); v.Int() != 0 {
		t.Errorf("WeightedVote: %v", v)
	}
	if v := (AvgProb{MinConf: 0.95}).Determine(outputs, 3); !v.IsNull() {
		t.Errorf("MinConf floor must yield NULL: %v", v)
	}
	var empty [][]float64 = make([][]float64, 3)
	if v := (AvgProb{}).Determine(empty, 3); !v.IsNull() {
		t.Error("no outputs must be NULL")
	}
	if v := (MajorityVote{}).Determine(empty, 3); !v.IsNull() {
		t.Error("no outputs must be NULL")
	}
	if v := (WeightedVote{}).Determine(empty, 3); !v.IsNull() {
		t.Error("no outputs must be NULL")
	}
}

func TestStateCutoffPruningAndReExecution(t *testing.T) {
	m := NewManager()
	// A peaked distribution (survives cutoff) and a flat one (pruned away).
	fam := testFamily(t, AvgProb{},
		[]float64{0.9, 0.05, 0.05},
		[]float64{0.4, 0.35, 0.25},
	)
	m.Register(fam)
	m.SetCutoff(0.5)
	x := []float64{0}

	m.Execute("R", 1, "d", 0, x) // stored: [0.9, -, -]
	m.Execute("R", 1, "d", 1, x) // stored: all pruned

	st := m.StateTable("R")
	s0 := st.Get(1, "d")
	if !s0.Outputs[0].Pruned || s0.Outputs[0].Probs[0] != 0.9 {
		t.Errorf("output 0 state: %+v", s0.Outputs[0])
	}
	if s0.Outputs[1].RetainedMass() != 0 {
		t.Errorf("output 1 should be fully pruned: %+v", s0.Outputs[1])
	}

	v, err := m.Determine("R", 1, "d", x)
	if err != nil || v.Int() != 0 {
		t.Fatalf("Determine: %v %v", v, err)
	}
	c := m.Counters()
	// Function 1's stored mass (0) < 0.5: it must have been re-executed.
	if c.ReExecutions != 1 {
		t.Errorf("ReExecutions = %d, want 1", c.ReExecutions)
	}

	// Cutoff shrinks the state size versus uncompressed.
	m2 := NewManager()
	fam2 := testFamily(t, AvgProb{},
		[]float64{0.9, 0.05, 0.05},
		[]float64{0.4, 0.35, 0.25},
	)
	m2.Register(fam2)
	m2.Execute("R", 1, "d", 0, x)
	m2.Execute("R", 1, "d", 1, x)
	if m.StateSizeBytes() >= m2.StateSizeBytes() {
		t.Errorf("cutoff state (%d) should be smaller than full (%d)",
			m.StateSizeBytes(), m2.StateSizeBytes())
	}
}

func TestResetTuple(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, nil, []float64{0.2, 0.8})
	m.Register(fam)
	m.Execute("R", 7, "d", 0, []float64{0})
	if !m.Enriched("R", 7, "d", 0) {
		t.Fatal("setup failed")
	}
	m.ResetTuple("R", 7)
	if m.Enriched("R", 7, "d", 0) {
		t.Error("state must be cleared after base-table update")
	}
	if got := m.Value("R", 7, "d"); !got.IsNull() {
		t.Errorf("value after reset: %v", got)
	}
}

func TestApplyOutput(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8})
	m.Register(fam)
	if err := m.ApplyOutput("R", 3, "d", 0, []float64{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if m.Counters().Enrichments != 1 {
		t.Error("remote output must count as an enrichment")
	}
	// Re-applying is skipped (state cache prevents re-enrichment).
	m.ApplyOutput("R", 3, "d", 0, []float64{0.5, 0.5})
	if m.Counters().Skipped != 1 {
		t.Error("duplicate apply must be skipped")
	}
	v, _ := m.Determine("R", 3, "d", []float64{0})
	if v.Int() != 1 {
		t.Errorf("determined: %v", v)
	}
	if err := m.ApplyOutput("NoRel", 3, "d", 0, []float64{1, 0}); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestRegisterErrors(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, nil, []float64{0.5, 0.5})
	if err := m.Register(fam); err != nil {
		t.Fatal(err)
	}
	fam2 := testFamily(t, nil, []float64{0.5, 0.5})
	if err := m.Register(fam2); err == nil {
		t.Error("duplicate register must fail")
	}
	if m.Family("R", "nope") != nil {
		t.Error("unknown family must be nil")
	}
	if m.StateTable("nope") != nil {
		t.Error("unknown state table must be nil")
	}
}

func TestFunctionCostTracking(t *testing.T) {
	f := &Function{Name: "slow", Model: &fixedModel{probs: []float64{1, 0}}, ExtraCost: 200 * time.Microsecond}
	if got := f.AvgCost(); got != time.Microsecond {
		t.Errorf("unexecuted default AvgCost = %v", got)
	}
	f.CostEst = 5 * time.Millisecond
	if got := f.AvgCost(); got != 5*time.Millisecond {
		t.Errorf("CostEst fallback = %v", got)
	}
	f.Run([]float64{0})
	count, total := f.Stats()
	if count != 1 || total < 200*time.Microsecond {
		t.Errorf("stats: %d %v", count, total)
	}
	if f.AvgCost() < 200*time.Microsecond {
		t.Errorf("measured AvgCost = %v", f.AvgCost())
	}
}

func TestByQualityPerCost(t *testing.T) {
	cheap := &Function{Name: "cheap", Model: &fixedModel{probs: []float64{1, 0}}, Quality: 0.6, CostEst: time.Microsecond}
	slow := &Function{Name: "slow", Model: &fixedModel{probs: []float64{1, 0}}, Quality: 0.9, CostEst: time.Second}
	fam, err := NewFamily("R", "d", 2, nil, cheap, slow)
	if err != nil {
		t.Fatal(err)
	}
	order := fam.ByQualityPerCost()
	// cheap: 0.6/1e3 ≫ slow: 0.9/1e9.
	if order[0] != 0 || order[1] != 1 {
		t.Errorf("SB(FO) order: %v", order)
	}
}

func TestStateTableGuards(t *testing.T) {
	st := newStateTable("R")
	fam := &Family{Relation: "R", Attr: "d", Domain: 2,
		Functions: []*Function{{Model: &fixedModel{probs: []float64{1, 0}}}}, Det: AvgProb{}}
	if err := st.addFamily(fam); err != nil {
		t.Fatal(err)
	}
	if err := st.addFamily(fam); err == nil {
		t.Error("duplicate addFamily must fail")
	}
	if _, err := st.SetOutput(1, "nope", 0, []float64{1, 0}); err == nil {
		t.Error("unknown attr must fail")
	}
	if _, err := st.SetOutput(1, "d", 9, []float64{1, 0}); err == nil {
		t.Error("bad function id must fail")
	}
	if err := st.SetValue(1, "nope", types.NewInt(0)); err == nil {
		t.Error("unknown attr must fail")
	}
	if st.Get(1, "d") != nil {
		t.Error("untouched state must be nil")
	}
	if stored, err := st.SetOutput(1, "d", 0, []float64{1, 0}); err != nil || !stored {
		t.Fatalf("first SetOutput: stored=%v err=%v", stored, err)
	}
	if stored, err := st.SetOutput(1, "d", 0, []float64{0, 1}); err != nil || stored {
		t.Fatalf("duplicate SetOutput must report stored=false: stored=%v err=%v", stored, err)
	}
	if err := st.addFamily(&Family{Relation: "R", Attr: "e", Domain: 2,
		Functions: []*Function{{Model: &fixedModel{probs: []float64{1, 0}}}}}); err == nil {
		t.Error("addFamily after state exists must fail")
	}
	if st.TupleCount() != 1 {
		t.Errorf("TupleCount = %d", st.TupleCount())
	}
	if got := st.Attrs(); len(got) != 1 || got[0] != "d" {
		t.Errorf("Attrs = %v", got)
	}
}

func TestStateExportImport(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.7, 0.3})
	m.Register(fam)
	m.SetCutoff(0.5)
	x := []float64{0}
	m.Execute("R", 1, "d", 0, x)
	m.Execute("R", 1, "d", 1, x)
	m.Execute("R", 2, "d", 0, x)
	m.Determine("R", 1, "d", x)

	records := m.StateTable("R").Export()
	if len(records) != 2 {
		t.Fatalf("exported %d records", len(records))
	}

	// Import into a fresh manager with the same family.
	m2 := NewManager()
	fam2 := testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.7, 0.3})
	m2.Register(fam2)
	if err := m2.StateTable("R").Import(records); err != nil {
		t.Fatal(err)
	}
	if !m2.FullyEnrichedAt("R", 1, "d", 0) {
		t.Error("tuple 1 must be fully enriched after import")
	}
	if m2.FullyEnrichedAt("R", 2, "d", 0) {
		t.Error("tuple 2 is only half enriched")
	}
	if !m2.Enriched("R", 2, "d", 0) || m2.Enriched("R", 2, "d", 1) {
		t.Error("tuple 2 bitmap wrong after import")
	}
	// Determined value survives.
	if v := m2.Value("R", 1, "d"); v.IsNull() {
		t.Error("determined value lost")
	}
	// Pruned outputs survive as pruned.
	s := m2.StateTable("R").Get(1, "d")
	if s.Outputs[0] == nil || !s.Outputs[0].Pruned {
		t.Errorf("cutoff pruning lost in round trip: %+v", s.Outputs[0])
	}
	// Executions are still skipped after import.
	ran, err := m2.Execute("R", 1, "d", 0, x)
	if err != nil || ran {
		t.Errorf("imported state must prevent re-execution: %v %v", ran, err)
	}
}

func TestStateImportErrors(t *testing.T) {
	m := NewManager()
	m.Register(testFamily(t, AvgProb{}, []float64{0.5, 0.5}))
	st := m.StateTable("R")
	if err := st.Import([]StateRecord{{TID: 1, Attr: "nope"}}); err == nil {
		t.Error("unknown attribute must fail")
	}
	if err := st.Import([]StateRecord{{TID: 1, Attr: "d", Outputs: []OutputRecord{{FnID: 7, Probs: []float64{1, 0}}}}}); err == nil {
		t.Error("out-of-range function id must fail")
	}
}

func TestResetCounters(t *testing.T) {
	m := NewManager()
	m.Register(testFamily(t, nil, []float64{0.5, 0.5}))
	m.Execute("R", 1, "d", 0, []float64{0})
	m.ResetCounters()
	if c := m.Counters(); c.Enrichments != 0 || c.Skipped != 0 {
		t.Errorf("counters after reset: %+v", c)
	}
}
