package expr

import (
	"math/rand"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

func TestToCNFSimple(t *testing.T) {
	// (a=1 OR b=2) is already CNF.
	e := NewOr(
		NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1))),
		NewCmp(EQ, NewCol("R", "b"), NewConst(types.NewInt(2))),
	)
	cnf := ToCNF(e)
	if _, ok := cnf.(*Or); !ok {
		t.Errorf("CNF of a disjunction of atoms should stay a disjunction: %s", cnf)
	}
}

func TestToCNFDistributes(t *testing.T) {
	// (a=1 AND b=2) OR c=3  =>  (a=1 OR c=3) AND (b=2 OR c=3)
	e := NewOr(
		NewAnd(
			NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1))),
			NewCmp(EQ, NewCol("R", "b"), NewConst(types.NewInt(2))),
		),
		NewCmp(EQ, NewCol("R", "c"), NewConst(types.NewInt(3))),
	)
	cnf := ToCNF(e)
	and, ok := cnf.(*And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("expected 2-conjunct CNF, got %s", cnf)
	}
	for _, k := range and.Kids {
		if _, ok := k.(*Or); !ok {
			t.Errorf("conjunct %s should be a disjunction", k)
		}
	}
}

func TestToCNFPushesNot(t *testing.T) {
	// NOT (a=1 OR b<2) => a<>1 AND b>=2
	e := &Not{Kid: NewOr(
		NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1))),
		NewCmp(LT, NewCol("R", "b"), NewConst(types.NewInt(2))),
	)}
	cnf := ToCNF(e)
	and, ok := cnf.(*And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("expected conjunction, got %s", cnf)
	}
	c0 := and.Kids[0].(*Cmp)
	c1 := and.Kids[1].(*Cmp)
	if c0.Op != NE || c1.Op != GE {
		t.Errorf("negated ops: %s, %s", c0.Op, c1.Op)
	}
}

func TestToCNFNotIsNull(t *testing.T) {
	e := &Not{Kid: &IsNull{Kid: NewCol("R", "a")}}
	cnf := ToCNF(e)
	isn, ok := cnf.(*IsNull)
	if !ok || !isn.Negate {
		t.Errorf("NOT IS NULL should become IS NOT NULL, got %s", cnf)
	}
	e2 := &Not{Kid: &IsNull{Kid: NewCol("R", "a"), Negate: true}}
	isn2, ok := ToCNF(e2).(*IsNull)
	if !ok || isn2.Negate {
		t.Errorf("NOT IS NOT NULL should become IS NULL, got %s", ToCNF(e2))
	}
}

func TestDoubleNegation(t *testing.T) {
	atom := NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1)))
	e := &Not{Kid: &Not{Kid: atom}}
	cnf := ToCNF(e)
	c, ok := cnf.(*Cmp)
	if !ok || c.Op != EQ {
		t.Errorf("double negation must cancel, got %s", cnf)
	}
}

// randExpr builds a random boolean expression over columns a,b,c.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		col := NewCol("R", string(rune('a'+r.Intn(3))))
		if r.Intn(6) == 0 {
			return &IsNull{Kid: col, Negate: r.Intn(2) == 0}
		}
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		return NewCmp(ops[r.Intn(len(ops))], col, NewConst(types.NewInt(int64(r.Intn(4)))))
	}
	switch r.Intn(3) {
	case 0:
		return NewAnd(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return NewOr(randExpr(r, depth-1), randExpr(r, depth-1))
	default:
		return &Not{Kid: randExpr(r, depth-1)}
	}
}

// TestCNFEquivalenceProperty checks q ≡ ToCNF(q) on random expressions and
// random rows, including NULLs (three-valued logic must be preserved).
func TestCNFEquivalenceProperty(t *testing.T) {
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	})
	rs := SchemaForTable("R", s)
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		e := randExpr(r, 3)
		cnf := ToCNF(e)
		orig := e.Clone()
		MustResolve(orig, rs)
		MustResolve(cnf, rs)
		for i := 0; i < 8; i++ {
			vals := make([]types.Value, 3)
			for vi := range vals {
				if r.Intn(5) == 0 {
					vals[vi] = types.Null
				} else {
					vals[vi] = types.NewInt(int64(r.Intn(4)))
				}
			}
			row := &Row{Schema: rs, Vals: vals, TIDs: []int64{1}}
			want, err1 := EvalPred(nil, orig, row)
			got, err2 := EvalPred(nil, cnf, row)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval error: %v / %v on %s", err1, err2, e)
			}
			if want != got {
				t.Fatalf("CNF changed semantics:\n  orig %s = %d\n  cnf  %s = %d\n  row %v",
					orig, want, cnf, got, vals)
			}
		}
	}
}

func TestConjuncts(t *testing.T) {
	a := NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1)))
	b := NewCmp(EQ, NewCol("R", "b"), NewConst(types.NewInt(2)))
	if got := Conjuncts(NewAnd(a, b)); len(got) != 2 {
		t.Errorf("Conjuncts(AND) = %d", len(got))
	}
	if got := Conjuncts(a); len(got) != 1 {
		t.Errorf("Conjuncts(atom) = %d", len(got))
	}
	if got := Conjuncts(TruePred{}); got != nil {
		t.Errorf("Conjuncts(TRUE) = %v", got)
	}
}

func TestClassifyConjunct(t *testing.T) {
	cl := ClassifierFunc(func(alias, col string) (bool, error) {
		return col == "d", nil
	})
	fixed := NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1)))
	derived, refs, err := ClassifyConjunct(fixed, cl)
	if err != nil || derived || len(refs) != 0 {
		t.Errorf("fixed conjunct misclassified: %v %v %v", derived, refs, err)
	}
	der := NewOr(
		NewCmp(EQ, NewCol("R", "d"), NewConst(types.NewInt(1))),
		NewCmp(EQ, NewCol("R", "a"), NewConst(types.NewInt(1))),
	)
	derived, refs, err = ClassifyConjunct(der, cl)
	if err != nil || !derived || len(refs) != 1 || refs[0].Attr != "d" {
		t.Errorf("derived conjunct misclassified: %v %v %v", derived, refs, err)
	}
	udf := NewCmp(EQ, NewUDFCall(UDFReadUDF, "R", "d"), NewConst(types.NewInt(1)))
	derived, refs, _ = ClassifyConjunct(udf, cl)
	if !derived || len(refs) != 1 {
		t.Errorf("UDF conjunct must be derived: %v %v", derived, refs)
	}
}

func TestEquiJoinCols(t *testing.T) {
	good := NewCmp(EQ, NewCol("R1", "x"), NewCol("R2", "y"))
	l, r, ok := EquiJoinCols(good)
	if !ok || l.Alias != "R1" || r.Alias != "R2" {
		t.Errorf("EquiJoinCols(good) = %v %v %v", l, r, ok)
	}
	cases := []Expr{
		NewCmp(LT, NewCol("R1", "x"), NewCol("R2", "y")),         // not EQ
		NewCmp(EQ, NewCol("R1", "x"), NewConst(types.NewInt(1))), // const side
		NewCmp(EQ, NewCol("R1", "x"), NewCol("R1", "y")),         // same alias
		NewOr(good, good.Clone()),                                // not a Cmp
	}
	for i, e := range cases {
		if _, _, ok := EquiJoinCols(e); ok {
			t.Errorf("case %d: %s must not be an equi-join", i, e)
		}
	}
}

func TestAliases(t *testing.T) {
	e := NewAnd(
		NewCmp(EQ, NewCol("T1", "x"), NewCol("T2", "y")),
		NewCmp(EQ, NewUDFCall(UDFReadUDF, "T3", "d"), NewConst(types.NewInt(1))),
	)
	got := Aliases(e)
	if len(got) != 3 || got[0] != "T1" || got[1] != "T2" || got[2] != "T3" {
		t.Errorf("Aliases = %v", got)
	}
}
