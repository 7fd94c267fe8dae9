package expr

import (
	"strings"
	"testing"

	"enrichdb/internal/types"
)

// TestPredicateNodesAnswerTruth: the logical nodes answer EvalPred's truth
// value, and a predicate has no value to compare.
func TestPredicateNodesAnswerTruth(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	a7 := func(op CmpOp, k int64) Expr { return NewCmp(op, NewCol("R", "a"), NewConst(types.NewInt(k))) }
	for _, c := range []struct {
		e    Expr
		want TV
	}{
		{NewAnd(a7(EQ, 7), NewCmp(NE, NewCol("R", "b"), NewConst(types.NewString("y")))), True},
		{NewOr(a7(EQ, 0), a7(EQ, 7)), True},
		{&Not{Kid: a7(EQ, 0)}, True},
		{&IsNull{Kid: NewCol("R", "d")}, True},
		{&IsNull{Kid: NewCol("R", "d"), Negate: true}, False},
		{NewCmp(EQ, NewCol("R", "d"), NewConst(types.NewInt(1))), Unknown},
		{TruePred{}, True},
	} {
		MustResolve(c.e, rs)
		if tv, err := EvalPred(nil, c.e, r); err != nil || tv != c.want {
			t.Errorf("EvalPred(%s) = %v, %v; want %v", c.e, tv, err, c.want)
		}
	}
	// A predicate compared as a value is an error, not a BOOL.
	nested := NewCmp(EQ, a7(EQ, 7), NewConst(types.NewInt(1)))
	MustResolve(nested, rs)
	if _, err := EvalPred(nil, nested, r); err == nil || !strings.Contains(err.Error(), "has no value") {
		t.Errorf("predicate as a comparison operand = %v, want a no-value error", err)
	}

	tp := TruePred{}
	if tp.Clone().String() != "TRUE" {
		t.Error("TruePred rendering")
	}
	visited := false
	tp.Walk(func(Expr) { visited = true })
	if !visited {
		t.Error("TruePred.Walk")
	}
	if err := tp.Resolve(rs); err != nil {
		t.Errorf("TruePred.Resolve: %v", err)
	}
}

func TestIncomparableCmpErrors(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	// string vs int: incomparable non-NULL values error.
	c := NewCmp(LT, NewCol("R", "b"), NewConst(types.NewInt(1)))
	MustResolve(c, rs)
	if _, err := EvalPred(nil, c, r); err == nil {
		t.Error("string < int must error")
	}
	// The error propagates through enclosing And/Or/Not.
	wrapped := NewAnd(TruePred{}, c.Clone())
	MustResolve(wrapped, rs)
	if _, err := EvalPred(nil, wrapped, r); err == nil {
		t.Error("error must propagate through And")
	}
	wrappedOr := NewOr(NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(0))), c.Clone())
	MustResolve(wrappedOr, rs)
	if _, err := EvalPred(nil, wrappedOr, r); err == nil {
		t.Error("error must propagate through Or")
	}
	wrappedNot := &Not{Kid: c.Clone()}
	MustResolve(wrappedNot, rs)
	if _, err := EvalPred(nil, wrappedNot, r); err == nil {
		t.Error("error must propagate through Not")
	}
}

func TestRenderingCoverage(t *testing.T) {
	e := NewOr(
		NewAnd(
			NewCmp(GE, NewCol("", "a"), NewConst(types.NewInt(15))),
			&IsNull{Kid: NewCol("T", "d"), Negate: true},
		),
		&Not{Kid: NewUDFCall(UDFGetValue, "T", "d")},
	)
	s := e.String()
	for _, want := range []string{">=", "IS NOT NULL", "NOT", "GetValue(T, T.d)", "OR", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
	ops := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("op %d renders %q", op, op.String())
		}
	}
	if CmpOp(99).String() != "?" {
		t.Error("unknown op rendering")
	}
	if UDFKind(9).String() != "udf?" {
		t.Error("unknown UDF kind rendering")
	}
	if UDFCheckState.String() != "CheckState" || UDFReadUDF.String() != "read_udf" {
		t.Error("UDF kind names")
	}
}

func TestCmpOpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{EQ: NE, NE: EQ, LT: GE, GE: LT, LE: GT, GT: LE}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Errorf("%s negates to %s", op, op.Negate())
		}
	}
	if CmpOp(99).Negate() != CmpOp(99) {
		t.Error("unknown op negation must be identity")
	}
}

func TestResolveErrorPaths(t *testing.T) {
	rs := testSchema(t)
	bad := NewCmp(EQ, NewCol("R", "a"), NewCol("R", "zz"))
	if err := bad.Resolve(rs); err == nil {
		t.Error("bad right side must fail")
	}
	badAnd := NewAnd(NewCol("R", "zz"), TruePred{})
	if err := badAnd.Resolve(rs); err == nil {
		t.Error("bad conjunct must fail")
	}
	badUDF := NewUDFCall(UDFReadUDF, "NoAlias", "d")
	if err := badUDF.Resolve(rs); err == nil {
		t.Error("unknown alias must fail")
	}
	// Unresolved UDF eval fails.
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	if _, err := NewUDFCall(UDFReadUDF, "R", "d").Eval(&EvalCtx{Runtime: &countingRuntime{}}, r); err == nil {
		t.Error("unresolved UDF eval must fail")
	}
	if _, err := EvalPred(&EvalCtx{Runtime: &countingRuntime{}}, NewUDFCall(UDFCheckState, "R", "d"), r); err == nil {
		t.Error("unresolved CheckState must fail")
	}
	// MustResolve panics.
	defer func() {
		if recover() == nil {
			t.Error("MustResolve must panic")
		}
	}()
	MustResolve(NewCol("R", "zz"), rs)
}

func TestRowClone(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	c := r.Clone()
	c.Vals[1] = types.NewInt(99)
	c.TIDs[0] = 5
	if r.Vals[1].Int() != 7 || r.TIDs[0] != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestNonBooleanPredicateErrors(t *testing.T) {
	rs := testSchema(t)
	r := row(rs, types.NewInt(1), types.NewInt(7), types.NewString("x"), types.Null, types.Null)
	// A bare column of INT kind used as a predicate must error.
	c := NewCol("R", "a")
	MustResolve(c, rs)
	if _, err := EvalPred(nil, c, r); err == nil {
		t.Error("INT predicate must error")
	}
	// So must a bare NULL column: a column is never a predicate, whatever
	// it holds.
	d := NewCol("R", "d")
	MustResolve(d, rs)
	if _, err := EvalPred(nil, d, r); err == nil {
		t.Error("NULL column predicate must error")
	}
	// A value-returning UDF is not a predicate either, and is not called.
	rt := &countingRuntime{value: types.NewInt(1)}
	gv := NewUDFCall(UDFGetValue, "R", "d")
	MustResolve(gv, rs)
	if _, err := EvalPred(&EvalCtx{Runtime: rt}, gv, r); err == nil || rt.gets != 0 {
		t.Errorf("GetValue predicate = %v after %d calls, want an error and none", err, rt.gets)
	}
}
