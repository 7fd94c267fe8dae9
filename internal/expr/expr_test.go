package expr

import (
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

func testSchema(t *testing.T) *RowSchema {
	t.Helper()
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindString},
		{Name: "f", Kind: types.KindVector},
		{Name: "d", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 3},
	})
	return SchemaForTable("R", s)
}

func row(rs *RowSchema, vals ...types.Value) *Row {
	return &Row{Schema: rs, Vals: vals, TIDs: []int64{1}}
}

func TestColResolveAndEval(t *testing.T) {
	rs := testSchema(t)
	c := NewCol("R", "a")
	if err := c.Resolve(rs); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	v, err := c.Eval(nil, r)
	if err != nil || v.Int() != 7 {
		t.Errorf("Eval = %v, %v", v, err)
	}
	if !c.Derived == false && c.Index != 1 {
		t.Errorf("binding: idx=%d derived=%v", c.Index, c.Derived)
	}
	d := NewCol("", "d")
	if err := d.Resolve(rs); err != nil {
		t.Fatalf("Resolve d: %v", err)
	}
	if !d.Derived {
		t.Error("d must resolve as derived")
	}
}

func TestUnresolvedColFails(t *testing.T) {
	rs := testSchema(t)
	if err := NewCol("R", "zz").Resolve(rs); err == nil {
		t.Error("unknown column must fail to resolve")
	}
	if err := NewCol("S", "a").Resolve(rs); err == nil {
		t.Error("unknown alias must fail to resolve")
	}
	c := NewCol("R", "a")
	if _, err := c.Eval(nil, row(rs, types.NewInt(1))); err == nil {
		t.Error("eval before resolve must fail")
	}
}

func TestCmpThreeValued(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)

	eq := NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(7)))
	MustResolve(eq, rs)
	tv, err := EvalPred(nil, eq, r)
	if err != nil || tv != True {
		t.Errorf("a=7: %v, %v", tv, err)
	}

	// Comparison with NULL derived attribute is Unknown.
	dn := NewCmp(EQ, NewCol("R", "d"), NewConst(types.NewInt(1)))
	MustResolve(dn, rs)
	tv, err = EvalPred(nil, dn, r)
	if err != nil || tv != Unknown {
		t.Errorf("d=1 with NULL d: %v, %v want Unknown", tv, err)
	}
}

func TestKleeneLogic(t *testing.T) {
	cases := []struct {
		a, b    TV
		and, or TV
	}{
		{True, True, True, True},
		{True, False, False, True},
		{True, Unknown, Unknown, True},
		{False, Unknown, False, Unknown},
		{Unknown, Unknown, Unknown, Unknown},
		{False, False, False, False},
	}
	for _, c := range cases {
		if got := And3(c.a, c.b); got != c.and {
			t.Errorf("And3(%d,%d)=%d want %d", c.a, c.b, got, c.and)
		}
		if got := And3(c.b, c.a); got != c.and {
			t.Errorf("And3 must be symmetric")
		}
		if got := Or3(c.a, c.b); got != c.or {
			t.Errorf("Or3(%d,%d)=%d want %d", c.a, c.b, got, c.or)
		}
	}
	if Not3(Unknown) != Unknown || Not3(True) != False || Not3(False) != True {
		t.Error("Not3 broken")
	}
}

func TestAndShortCircuit(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	// A failing fixed condition must prevent evaluation of the UDF call that
	// follows — the mechanism behind the tight design's enrichment savings.
	rt := &countingRuntime{}
	ctx := &EvalCtx{Runtime: rt}
	pred := NewAnd(
		NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(999))), // false
		NewCmp(EQ, NewUDFCall(UDFReadUDF, "R", "d"), NewConst(types.NewInt(1))),
	)
	MustResolve(pred, rs)
	tv, err := EvalPred(ctx, pred, r)
	if err != nil || tv != False {
		t.Fatalf("pred: %v %v", tv, err)
	}
	if rt.reads != 0 {
		t.Errorf("read_udf called %d times despite short circuit", rt.reads)
	}
	if ctx.UDFInvocations != 0 {
		t.Errorf("UDFInvocations = %d want 0", ctx.UDFInvocations)
	}
}

func TestIsNull(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	isn := &IsNull{Kid: NewCol("R", "d")}
	MustResolve(isn, rs)
	tv, _ := EvalPred(nil, isn, r)
	if tv != True {
		t.Error("d IS NULL must be True")
	}
	notn := &IsNull{Kid: NewCol("R", "a"), Negate: true}
	MustResolve(notn, rs)
	tv, _ = EvalPred(nil, notn, r)
	if tv != True {
		t.Error("a IS NOT NULL must be True")
	}
}

type countingRuntime struct {
	checks, gets, reads int
	checkResult         bool
	value               types.Value
}

func (c *countingRuntime) CheckState(rel string, tid int64, attr string) (bool, error) {
	c.checks++
	return c.checkResult, nil
}
func (c *countingRuntime) GetValue(rel string, tid int64, attr string) (types.Value, error) {
	c.gets++
	return c.value, nil
}
func (c *countingRuntime) ReadUDF(rel string, tid int64, attr string) (types.Value, error) {
	c.reads++
	return c.value, nil
}

func TestUDFCallDispatch(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	rt := &countingRuntime{checkResult: true, value: types.NewInt(2)}
	ctx := &EvalCtx{Runtime: rt}

	cs := NewUDFCall(UDFCheckState, "R", "d")
	MustResolve(cs, rs)
	if tv, err := EvalPred(ctx, cs, r); err != nil || tv != True {
		t.Errorf("CheckState = %v %v", tv, err)
	}
	if _, err := cs.Eval(ctx, r); err == nil {
		t.Error("CheckState has no value")
	}
	gv := NewUDFCall(UDFGetValue, "R", "d")
	MustResolve(gv, rs)
	v, err := gv.Eval(ctx, r)
	if err != nil || v.Int() != 2 {
		t.Errorf("GetValue = %v %v", v, err)
	}
	ru := NewUDFCall(UDFReadUDF, "R", "d")
	MustResolve(ru, rs)
	if _, err := ru.Eval(ctx, r); err != nil {
		t.Errorf("ReadUDF: %v", err)
	}
	if rt.checks != 1 || rt.gets != 1 || rt.reads != 1 {
		t.Errorf("dispatch counts: %+v", rt)
	}
	if ctx.UDFInvocations != 3 {
		t.Errorf("UDFInvocations = %d want 3", ctx.UDFInvocations)
	}
}

func TestUDFWithoutRuntimeFails(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	u := NewUDFCall(UDFGetValue, "R", "d")
	MustResolve(u, rs)
	if _, err := u.Eval(&EvalCtx{}, r); err == nil {
		t.Error("UDF without runtime must error")
	}
	u2 := NewUDFCall(UDFGetValue, "R", "d")
	if _, err := u2.Eval(&EvalCtx{Runtime: &countingRuntime{}}, r); err == nil {
		t.Error("unresolved UDF must error")
	}
}

func TestCloneIndependence(t *testing.T) {
	pred := NewAnd(
		NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1))),
		NewOr(
			NewCmp(LT, NewCol("R", "d"), NewConst(types.NewInt(5))),
			&IsNull{Kid: NewCol("R", "d")},
		),
	)
	cl := pred.Clone()
	if cl.String() != pred.String() {
		t.Errorf("clone renders differently: %s vs %s", cl, pred)
	}
	// Resolving the clone must not bind the original.
	rs := testSchema(t)
	MustResolve(cl, rs)
	var unbound *Col
	pred.Walk(func(e Expr) {
		if c, ok := e.(*Col); ok {
			unbound = c
		}
	})
	if unbound.Index != -1 {
		t.Error("resolving the clone mutated the original")
	}
}

func TestRowSchemaConcat(t *testing.T) {
	rs1 := testSchema(t)
	s2 := catalog.MustSchema("S", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	})
	rs2 := SchemaForTable("S", s2)
	j := Concat(rs1, rs2)
	if len(j.Slots) != 2 || len(j.Cols) != len(rs1.Cols)+2 {
		t.Fatalf("Concat shape: %d slots %d cols", len(j.Slots), len(j.Cols))
	}
	if j.Slots[1].ColStart != len(rs1.Cols) {
		t.Errorf("second slot ColStart = %d", j.Slots[1].ColStart)
	}
	ci, err := j.Lookup("S", "c")
	if err != nil || ci != len(rs1.Cols)+1 {
		t.Errorf("Lookup(S.c) = %d, %v", ci, err)
	}
	// Unqualified "id" is ambiguous across the two slots.
	if _, err := j.Lookup("", "id"); err == nil {
		t.Error("ambiguous lookup must fail")
	}
	if got := j.SlotByAlias("S"); got != 1 {
		t.Errorf("SlotByAlias(S) = %d", got)
	}
	if got := j.SlotByAlias("nope"); got != -1 {
		t.Errorf("SlotByAlias(nope) = %d", got)
	}
}

func TestJoinRows(t *testing.T) {
	rs1 := testSchema(t)
	s2 := catalog.MustSchema("S", []catalog.Column{{Name: "c", Kind: types.KindInt}})
	rs2 := SchemaForTable("S", s2)
	j := Concat(rs1, rs2)
	r1 := &Row{Schema: rs1, Vals: []types.Value{types.NewInt(1), types.NewInt(2), types.NewString("x"), types.Null, types.Null}, TIDs: []int64{10}}
	r2 := &Row{Schema: rs2, Vals: []types.Value{types.NewInt(9)}, TIDs: []int64{20}}
	jr := JoinRows(j, r1, r2)
	if len(jr.Vals) != 6 || jr.Vals[5].Int() != 9 {
		t.Errorf("joined vals: %v", jr.Vals)
	}
	if len(jr.TIDs) != 2 || jr.TIDs[0] != 10 || jr.TIDs[1] != 20 {
		t.Errorf("joined TIDs: %v", jr.TIDs)
	}
}
