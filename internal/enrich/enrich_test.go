package enrich

import (
	"testing"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/ml"
	"enrichdb/internal/storage"
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

// testSchema is R(id, x, d), the relation the test families enrich: d is
// derived from the vector column x over a domain of the given size.
func testSchema(domain int) *catalog.Schema {
	return catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindVector},
		{Name: "d", Kind: types.KindInt, Derived: true, FeatureCol: "x", Domain: domain},
	})
}

// testRelation is a base table of testSchema holding tuples 1..n at
// generation 0, with x = [id].
func testRelation(t *testing.T, domain, n int) *storage.Table {
	t.Helper()
	return fill(t, storage.NewTable(testSchema(domain)), n)
}

// fill inserts tuples 1..n with x = [id] and d NULL.
func fill(t *testing.T, tbl *storage.Table, n int) *storage.Table {
	t.Helper()
	for id := int64(1); id <= int64(n); id++ {
		if _, err := tbl.Insert(&types.Tuple{ID: id, Vals: []types.Value{
			types.NewInt(id), types.NewVector([]float64{float64(id)}), types.Null,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// record returns the exported state of (tid, attr), or nil when it has none.
func record(st *StateTable, tid int64, attr string) *StateRecord {
	for _, rec := range st.Export() {
		if rec.TID == tid && rec.Attr == attr {
			return &rec
		}
	}
	return nil
}

// writeBack runs Manager.WriteBack on tuple tid's current image of tbl.
func writeBack(t *testing.T, m *Manager, tbl *storage.Table, tid int64) types.Value {
	t.Helper()
	slot := []WriteBackSlot{{Tuple: tbl.Get(tid), Attr: "d"}}
	if err := m.WriteBack(tbl, slot); err != nil {
		t.Fatal(err)
	}
	return slot[0].Value
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

	_, run, err := m.Execute("R", 1, "d", 0, x, 0)
	if err != nil || run <= 0 {
		t.Fatalf("first execute: %v %v", run, err)
	}
	_, run, err = m.Execute("R", 1, "d", 0, x, 0)
	if err != nil || run != 0 {
		t.Fatalf("duplicate execute must be skipped: %v %v", run, err)
	}
	c := m.Counters()
	if c.Enrichments != 1 || c.Skipped != 1 {
		t.Errorf("counters: %+v", c)
	}
	if m.FullyEnriched("R", 1, "d", 0) {
		t.Error("not fully enriched with 1/2 functions")
	}
	if !m.Enriched("R", 1, "d", 0, 0) || m.Enriched("R", 1, "d", 1, 0) {
		t.Error("Enriched bitmap wrong")
	}
	m.Execute("R", 1, "d", 1, x, 0)
	if !m.FullyEnriched("R", 1, "d", 0) {
		t.Error("fully enriched after both functions")
	}
	if m.Enriched("R", 1, "d", 0, 1) || m.FullyEnriched("R", 1, "d", 1) {
		t.Error("state of generation 0 must not count for generation 1")
	}
	if _, _, err := m.Execute("R", 1, "d", 5, x, 0); err == nil {
		t.Error("unknown function id must fail")
	}
	if _, _, err := m.Execute("R", 1, "zz", 0, x, 0); err == nil {
		t.Error("unknown attr must fail")
	}
}

func TestDeterminizeAvgProb(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.6, 0.4})
	m.Register(fam)
	tbl := testRelation(t, 2, 1)
	x := []float64{0}
	bit := tbl.Schema().MarkBit("d")

	if v := writeBack(t, m, tbl, 1); !v.IsNull() {
		t.Fatalf("no functions executed: %v (want NULL)", v)
	}
	m.Execute("R", 1, "d", 0, x, 0)
	if v := writeBack(t, m, tbl, 1); v.Int() != 1 { // 0.8 beats 0.2
		t.Errorf("after f0: %v", v)
	}
	if tu := tbl.Get(1); tu.Vals[2].Int() != 1 || tu.Enriched&bit != 0 {
		t.Errorf("after f0 the image holds %v, mark %b: want the value, unmarked", tu.Vals[2], tu.Enriched)
	}
	m.Execute("R", 1, "d", 1, x, 0)
	// avg = [0.4, 0.6] -> class 1.
	if v := writeBack(t, m, tbl, 1); v.Int() != 1 {
		t.Errorf("after both: %v", v)
	}
	if tbl.Get(1).Enriched&bit == 0 {
		t.Error("a write-back of the complete family must mark the image")
	}
	if got := m.Value("R", 1, "d", 0); got.Int() != 1 {
		t.Errorf("stored value: %v", got)
	}
	if got := m.Value("R", 1, "d", 1); !got.IsNull() {
		t.Errorf("stored value read for another image: %v", got)
	}
}

// TestWriteBackOtherImage: when a commit reset the state under the caller's
// image, WriteBack re-runs the family transiently on the image's own feature
// vector and stores nothing; the live table, now at the newer image, is left
// alone, and a snapshot view still holding the image gets the value,
// unmarked.
func TestWriteBackOtherImage(t *testing.T) {
	m := NewManager()
	m.Register(testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.6, 0.4}))
	db := storage.NewDB()
	tbl, err := db.CreateTable(testSchema(2))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, tbl, 1)
	for fn := 0; fn < 2; fn++ {
		m.Execute("R", 1, "d", fn, []float64{1}, 0)
	}
	snap := db.Snapshot()
	view, err := snap.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	m.ResetTuple("R", 1, 1)
	if _, err := tbl.CommitFixed(1, "x", types.NewVector([]float64{2})); err != nil {
		t.Fatal(err)
	}
	before := m.Counters()
	slot := []WriteBackSlot{{Tuple: view.Get(1), Attr: "d"}}
	err = m.WriteBack(view, slot)
	if v := slot[0].Value; err != nil || v.Int() != 1 {
		t.Fatalf("WriteBack = %v, %v; want 1", v, err)
	}
	if got := m.Counters().ReExecutions - before.ReExecutions; got != 2 {
		t.Errorf("re-executions = %d, want the whole family (2)", got)
	}
	if record(m.StateTable("R"), 1, "d") != nil {
		t.Error("a transient determinization must store nothing")
	}
	if tu := view.Get(1); tu.Vals[2].Int() != 1 || tu.Enriched != 0 {
		t.Errorf("view image: %v, mark %b; want the value, unmarked", tu.Vals[2], tu.Enriched)
	}
	if tu := tbl.Get(1); !tu.Vals[2].IsNull() || tu.Enriched != 0 {
		t.Errorf("live image at the newer generation was written: %v, mark %b", tu.Vals[2], tu.Enriched)
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

	m.Execute("R", 1, "d", 0, x, 0) // stored: [0.9, -, -]
	m.Execute("R", 1, "d", 1, x, 0) // stored: all pruned

	st := m.StateTable("R")
	s0 := record(st, 1, "d")
	if !s0.Outputs[0].Pruned || s0.Outputs[0].Probs[0] != 0.9 {
		t.Errorf("output 0 state: %+v", s0.Outputs[0])
	}
	for _, p := range s0.Outputs[1].Probs {
		if p >= 0 {
			t.Errorf("output 1 should be fully pruned: %+v", s0.Outputs[1])
		}
	}

	if v := writeBack(t, m, testRelation(t, 3, 1), 1); v.Int() != 0 {
		t.Fatalf("WriteBack: %v", v)
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
	m2.Execute("R", 1, "d", 0, x, 0)
	m2.Execute("R", 1, "d", 1, x, 0)
	if m.StateSizeBytes() >= m2.StateSizeBytes() {
		t.Errorf("cutoff state (%d) should be smaller than full (%d)",
			m.StateSizeBytes(), m2.StateSizeBytes())
	}
}

func TestResetTuple(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, nil, []float64{0.2, 0.8})
	m.Register(fam)
	m.Execute("R", 7, "d", 0, []float64{0}, 0)
	if !m.Enriched("R", 7, "d", 0, 0) {
		t.Fatal("setup failed")
	}
	m.ResetTuple("R", 7, 1)
	if m.Enriched("R", 7, "d", 0, 0) || m.Enriched("R", 7, "d", 0, 1) {
		t.Error("state must be cleared after base-table update")
	}
	if got := m.Value("R", 7, "d", 1); !got.IsNull() {
		t.Errorf("value after reset: %v", got)
	}
	// An execution still computed from the superseded image is dropped.
	if _, run, err := m.Execute("R", 7, "d", 0, []float64{0}, 0); err != nil || run <= 0 {
		t.Fatalf("stale execute: run=%v err=%v", run, err)
	}
	if c := m.Counters(); c.StaleDrops != 1 || m.Enriched("R", 7, "d", 0, 1) {
		t.Errorf("stale output stored: stale_drops=%d", c.StaleDrops)
	}
}

func TestApplyOutput(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8})
	m.Register(fam)
	if err := m.ApplyOutput("R", []FnOutput{{TID: 3, Attr: "d", FnID: 0, Probs: []float64{0.1, 0.9}}}); err != nil {
		t.Fatal(err)
	}
	if m.Counters().Enrichments != 1 {
		t.Error("remote output must count as an enrichment")
	}
	// Re-applying is an idempotent no-op: the first output stays, and no
	// execution was avoided, so nothing counts.
	m.ApplyOutput("R", []FnOutput{{TID: 3, Attr: "d", FnID: 0, Probs: []float64{0.5, 0.5}}})
	if c := m.Counters(); c.Enrichments != 1 || c.Skipped != 0 {
		t.Errorf("duplicate apply counted: %+v", c)
	}
	if v := writeBack(t, m, testRelation(t, 2, 3), 3); v.Int() != 1 {
		t.Errorf("determined: %v", v)
	}
	if err := m.ApplyOutput("NoRel", []FnOutput{{TID: 3, Attr: "d", FnID: 0, Probs: []float64{1, 0}}}); err == nil {
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
	if _, _, err := st.setOutputs([]FnOutput{{TID: 1, Attr: "nope", Probs: []float64{1, 0}}}); err == nil {
		t.Error("unknown attr must fail")
	}
	if _, _, err := st.setOutputs([]FnOutput{{TID: 1, Attr: "d", FnID: 9, Probs: []float64{1, 0}}}); err == nil {
		t.Error("bad function id must fail")
	}
	if err := st.setValues([]WriteBackSlot{{Tuple: &types.Tuple{ID: 1}, Attr: "nope", Value: types.NewInt(0)}},
		[]slotState{{current: true, write: true}}); err == nil {
		t.Error("unknown attr must fail")
	}
	if record(st, 1, "d") != nil {
		t.Error("untouched state must be nil")
	}
	if stored, _, err := st.setOutputs([]FnOutput{{TID: 1, Attr: "d", Probs: []float64{1, 0}}}); err != nil || stored != 1 {
		t.Fatalf("first setOutput: stored=%v err=%v", stored, err)
	}
	if stored, _, err := st.setOutputs([]FnOutput{{TID: 1, Attr: "d", Probs: []float64{0, 1}}}); err != nil || stored != 0 {
		t.Fatalf("duplicate setOutput must report stored=false: stored=%v err=%v", stored, err)
	}
	if stored, stale, err := st.setOutputs([]FnOutput{{TID: 1, Attr: "d", Probs: []float64{0, 1}, Gen: 1}}); err != nil || stored != 0 || stale != 1 {
		t.Fatalf("setOutput for another generation must report stale: stored=%v stale=%v err=%v", stored, stale, err)
	}
	if err := st.addFamily(&Family{Relation: "R", Attr: "e", Domain: 2,
		Functions: []*Function{{Model: &fixedModel{probs: []float64{1, 0}}}}}); err == nil {
		t.Error("addFamily after state exists must fail")
	}
	if st.TupleCount() != 1 {
		t.Errorf("TupleCount = %d", st.TupleCount())
	}
	if len(st.attrs) != 1 || st.attrs[0] != "d" {
		t.Errorf("attrs = %v", st.attrs)
	}
}

func TestStateExportImport(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8}, []float64{0.7, 0.3})
	m.Register(fam)
	m.SetCutoff(0.5)
	x := []float64{0}
	m.Execute("R", 1, "d", 0, x, 0)
	m.Execute("R", 1, "d", 1, x, 0)
	m.Execute("R", 2, "d", 0, x, 0)
	writeBack(t, m, testRelation(t, 2, 1), 1)

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
	if !m2.FullyEnriched("R", 1, "d", 0) {
		t.Error("tuple 1 must be fully enriched after import")
	}
	if m2.FullyEnriched("R", 2, "d", 0) {
		t.Error("tuple 2 is only half enriched")
	}
	if !m2.Enriched("R", 2, "d", 0, 0) || m2.Enriched("R", 2, "d", 1, 0) {
		t.Error("tuple 2 bitmap wrong after import")
	}
	// Determined value survives.
	if v := m2.Value("R", 1, "d", 0); v.IsNull() {
		t.Error("determined value lost")
	}
	// Pruned outputs survive as pruned.
	s := record(m2.StateTable("R"), 1, "d")
	if s.Outputs[0].FnID != 0 || !s.Outputs[0].Pruned {
		t.Errorf("cutoff pruning lost in round trip: %+v", s.Outputs[0])
	}
	// Executions are still skipped after import.
	_, run, err := m2.Execute("R", 1, "d", 0, x, 0)
	if err != nil || run != 0 {
		t.Errorf("imported state must prevent re-execution: %v %v", run, err)
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
