package expr

import (
	"fmt"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// markSchema is R(id, x, f, d1, d2) with two marked derived columns.
func markSchema(t *testing.T) (*catalog.Schema, *RowSchema, uint64, uint64) {
	t.Helper()
	s := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindInt},
		{Name: "f", Kind: types.KindVector},
		{Name: "d1", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
		{Name: "d2", Kind: types.KindInt, Derived: true, FeatureCol: "f", Domain: 2},
	})
	return s, SchemaForTable("R", s), s.MarkBit("d1"), s.MarkBit("d2")
}

// markTuple is one R image.
func markTuple(id int64, mark uint64, x, d1, d2 types.Value) *types.Tuple {
	return &types.Tuple{ID: id, Enriched: mark, Vals: []types.Value{types.NewInt(id), x, types.Null, d1, d2}}
}

// markChunks are the chunk shapes the marks' AND must answer exactly as
// the tuples do: every lane marked, every lane unmarked, every mark and value
// combination, and one whose lanes the first guarded conjunct leaves all
// False while some are pending (marked lanes whose d1 fails, unmarked lanes
// whose stored d1 fails but whose read_udf value, the odd id's 1, passes).
func markChunks(m1, m2 uint64) map[string][]*types.Tuple {
	vals := []types.Value{types.Null, types.NewInt(0), types.NewInt(1)}
	zero, one := types.NewInt(0), types.NewInt(1)
	chunks := map[string][]*types.Tuple{}
	id := int64(0)
	next := func() int64 { id++; return id }
	for _, mark := range []uint64{m1 | m2, 0} {
		name := fmt.Sprintf("mark=%b", mark)
		for _, x := range vals {
			for _, v := range vals {
				chunks[name] = append(chunks[name], markTuple(next(), mark, x, v, v))
			}
		}
	}
	for _, mark := range []uint64{0, m1, m2, m1 | m2} {
		for _, x := range vals {
			for _, v1 := range vals {
				for _, v2 := range vals {
					chunks["mixed"] = append(chunks["mixed"], markTuple(next(), mark, x, v1, v2))
				}
			}
		}
	}
	if id%2 == 1 {
		next() // the pending lanes take the odd ids
	}
	for i := 0; i < 8; i++ {
		chunks["dead-after-guard"] = append(chunks["dead-after-guard"],
			markTuple(next(), 0, zero, zero, one),     // pending; ω reads 1 (an odd id)
			markTuple(next(), m1|m2, zero, zero, one)) // decided False by d1 = 1
	}
	return chunks
}

// guardedPred is x <> 1 AND guarded(d1 = 1) AND guarded(d2 = 1).
func guardedPred() Expr {
	return NewAnd(
		NewCmp(NE, NewCol("R", "x"), NewConst(types.NewInt(1))),
		NewGuarded([]DerivedRef{{"R", "d1"}}, NewCmp(EQ, NewCol("R", "d1"), NewConst(types.NewInt(1))), omega("d1")),
		NewGuarded([]DerivedRef{{"R", "d2"}}, NewCmp(EQ, NewCol("R", "d2"), NewConst(types.NewInt(1))), omega("d2")),
	)
}

// evalChunk runs vp over chunk c as the engine's scan does and answers each
// lane's vector verdict (a pending lane passes when its prefix bit is set
// and Pending holds), the pending lanes, the UDF calls each lane made and
// whether a mark test decided the chunk from its AND.
func evalChunk(t *testing.T, vp *VecPred, rs *RowSchema, c *Chunk, imgs images, s *catalog.Schema) (pass, pend []bool, calls []int, decided bool) {
	t.Helper()
	var b Batch
	b.Reset(rs, c)
	n := len(c.Tuples)
	tb, nf, pb := Bitmap(nil).Reset(n), Bitmap(nil).Reset(n), Bitmap(nil).Reset(n)
	tb.SetAll(n)
	nf.SetAll(n)
	if vp.Pending == nil {
		pb = nil
	}
	vp.Eval(&b, tb, nf, pb)
	pass, pend, calls = make([]bool, n), make([]bool, n), make([]int, n)
	for i, tu := range c.Tuples {
		pass[i] = tb.Get(i)
		if pb != nil && pb.Get(i) {
			rt := &markRuntime{imgs: imgs, s: s}
			tv, err := EvalPred(&EvalCtx{Runtime: rt}, vp.Pending, RowFromTuple(rs, tu))
			if err != nil {
				t.Fatal(err)
			}
			pass[i], pend[i], calls[i] = pass[i] && tv == True, true, rt.calls
		}
	}
	return pass, pend, calls, b.MarksDecided
}

// checkGuarded compares pred, compiled to vp, over c with the row path lane
// by lane: verdicts, pending lanes (the not-False lanes before the first
// guard whose image misses a guarded mark) and UDF calls, which only
// pending lanes make, exactly the row path's.
func checkGuarded(t *testing.T, name string, pred Expr, vp *VecPred, rs *RowSchema, c *Chunk, imgs images, s *catalog.Schema, guard uint64) bool {
	t.Helper()
	pass, pend, calls, decided := evalChunk(t, vp, rs, c, imgs, s)
	all := true
	for i, tu := range c.Tuples {
		rt := &markRuntime{imgs: imgs, s: s}
		want, err := EvalPred(&EvalCtx{Runtime: rt}, pred, RowFromTuple(rs, tu))
		if err != nil {
			t.Fatal(err)
		}
		x := tu.Vals[1]
		wantPend := (x.IsNull() || x.Int() != 1) && tu.Enriched&guard != guard
		wantCalls := 0
		if wantPend {
			wantCalls = rt.calls
		}
		if pass[i] != (want == True) || pend[i] != wantPend || calls[i] != wantCalls {
			t.Errorf("%s lane %d (mark %b, x %v, d1 %v, d2 %v): vector %v pending %v with %d calls; row %v pending %v with %d calls",
				name, i, tu.Enriched, x, tu.Vals[3], tu.Vals[4], pass[i], pend[i], calls[i], want, wantPend, wantCalls)
		}
		all = all && tu.Enriched&guard == guard
	}
	if wantDecided := all && len(c.Tuples) > 0; decided != wantDecided {
		t.Errorf("%s: decided from the marks' AND %v, want %v", name, decided, wantDecided)
	}
	return decided
}

// TestChunkMarksMatchRowPath: a chunk's marks' AND answers every mark
// test exactly as its tuples' images do. Over every chunk shape, read twice
// (the AND built, then published), the guarded predicate's verdicts,
// pending lanes and UDF calls are the row path's, and the mark test's verdicts are its row evaluation's. A nil
// lane reads as unmarked. Only a chunk whose every lane carries the mask is
// decided from the AND.
func TestChunkMarksMatchRowPath(t *testing.T) {
	s, rs, m1, m2 := markSchema(t)
	pred := guardedPred()
	MustResolve(pred, rs)
	vp := CompileVecPred(pred, rs)
	if vp == nil || vp.NumKernels() != 3 || vp.Pending == nil {
		t.Fatalf("%s did not compile to three kernels with a pending suffix", pred)
	}
	for name, tuples := range markChunks(m1, m2) {
		imgs := images{}
		for _, tu := range tuples {
			imgs[tu.ID] = tu
		}
		vc := NewChunk(tuples, len(rs.Cols))
		for _, read := range []string{"built", "published"} {
			checkGuarded(t, name+"/"+read, pred, vp, rs, vc, imgs, s, m1|m2)
		}
	}

	// The mark test itself, both polarities, over chunks with a tombstone.
	var tuples []*types.Tuple
	imgs := images{}
	for i, mark := range []uint64{m1 | m2, m1, 0, m2, m1 | m2} {
		tu := markTuple(int64(i+1), mark, types.Null, types.Null, types.Null)
		tuples, imgs[tu.ID] = append(tuples, tu), tu
	}
	full := []*types.Tuple{tuples[0], tuples[4]}
	for _, lanes := range [][]*types.Tuple{tuples, full, append(full[:1:1], nil, full[1])} {
		for _, attrs := range [][]string{{"d1"}, {"d2"}, {"d1", "d2"}} {
			for _, negate := range []bool{false, true} {
				e := NewEnriched(imgs, "R", attrs, negate)
				MustResolve(e, rs)
				vp := CompileVecPred(e, rs)
				pass, _, _, decided := evalChunk(t, vp, rs, NewChunk(lanes, len(rs.Cols)), imgs, s)
				all := true
				for i, tu := range lanes {
					want := e.holds(tu) != negate // a nil lane holds no mark
					if tu != nil {
						tv, err := EvalPred(nil, e, RowFromTuple(rs, tu))
						if err != nil {
							t.Fatal(err)
						}
						want = tv == True
					}
					if pass[i] != want {
						t.Errorf("%s over %d lanes, lane %d: %v, want %v", e, len(lanes), i, pass[i], want)
					}
					all = all && e.holds(tu)
				}
				if decided != all {
					t.Errorf("%s over %d lanes decided from the AND %v, want %v", e, len(lanes), decided, all)
				}
			}
		}
	}
}

// TestChunkMarksDroppedOnWrite: a write between two scans of one chunk
// (Clone, then Set, as a write-back does) leaves no stale marks' AND: the
// copy's next scan reads the written images' marks, whichever way a mark
// moved, and a fully marked chunk stops being decided from its old AND.
func TestChunkMarksDroppedOnWrite(t *testing.T) {
	s, rs, m1, m2 := markSchema(t)
	pred := guardedPred()
	MustResolve(pred, rs)
	vp := CompileVecPred(pred, rs)
	zero, one := types.NewInt(0), types.NewInt(1)
	var tuples []*types.Tuple
	imgs := images{}
	for id := int64(1); id <= 12; id++ {
		tu := markTuple(id, m1|m2, zero, one, one)
		tuples, imgs[id] = append(tuples, tu), tu
	}
	c := NewChunk(tuples, len(rs.Cols))
	if !checkGuarded(t, "before the write", pred, vp, rs, c, imgs, s, m1|m2) {
		t.Fatal("a fully marked chunk was not decided from its AND")
	}
	// Lane 3 loses its d1 mark and its value fails the stored comparison
	// (ω's read_udf answers the odd id's 1); lane 4 gains nothing.
	nc := c.Clone()
	nu := markTuple(3, m2, zero, zero, one)
	nc.Set(2, nu, s.ColIndex("d1"))
	imgs[3] = nu
	if checkGuarded(t, "after the write", pred, vp, rs, nc, imgs, s, m1|m2) {
		t.Error("the written copy was decided from the old AND")
	}
	// The mark moves back: the copy is fully marked again.
	back := markTuple(3, m1|m2, zero, one, one)
	nc.Set(2, back, s.ColIndex("d1"))
	imgs[3] = back
	if !checkGuarded(t, "after the write back", pred, vp, rs, nc, imgs, s, m1|m2) {
		t.Error("the rewritten copy was not decided from its AND")
	}
	// Append drops the AND too.
	nc.Append(markTuple(13, 0, zero, one, one))
	imgs[13] = nc.Tuples[12]
	checkGuarded(t, "after an append", pred, vp, rs, nc, imgs, s, m1|m2)
}
