package expr

import (
	"strings"

	"enrichdb/internal/types"
)

// This file compiles predicate conjuncts to vector kernels that evaluate a
// whole Batch per call instead of one interface dispatch per row.
//
// Compilation covers the maximal PREFIX of the And conjunct list — stopping
// at the first conjunct it cannot handle — so evaluation order, error sites
// and UDF side effects are exactly those of the row path: And3 short-circuits
// only on False, Unknown keeps evaluating, and the residual (the uncompiled
// suffix) still runs row-at-a-time on every not-False lane.
//
// Lane semantics per conjunct: fold its three-valued result tv into two
// bitmaps — t (lane is True so far: cleared unless tv==True) and nf (lane is
// not-False so far: cleared when tv==False). A lane passes the whole
// predicate iff t stays set through the kernels and the residual evaluates
// True; a lane skips residual evaluation iff nf was cleared (the row path's
// False short-circuit).

// VecPred is a compiled predicate: zero or more column kernels plus an
// optional row-at-a-time residual.
type VecPred struct {
	kernels []vecKernel
	// Residual is the uncompiled conjunct suffix (nil when the predicate
	// compiled fully). It must be evaluated with EvalPred on every lane
	// whose nf bit survives the kernels.
	Residual Expr
}

// NumKernels reports how many conjuncts compiled to kernels (introspection
// and tests).
func (vp *VecPred) NumKernels() int { return len(vp.kernels) }

// Eval applies every kernel to the batch, folding results into t (all
// conjuncts so far True) and nf (no conjunct so far False). Both bitmaps must
// arrive with the first Len lanes set. It returns false when a referenced
// column's values deviate from the declared kind — the caller must discard
// the bitmaps and evaluate the batch row-at-a-time.
func (vp *VecPred) Eval(b *Batch, t, nf Bitmap) bool {
	for _, k := range vp.kernels {
		if !k.apply(b, t, nf) {
			return false
		}
	}
	return true
}

// CompileVecPred compiles pred against a single-slot (base scan) schema.
// It returns nil when no leading conjunct is vectorizable (the row path is
// then strictly better: same work, no batch setup).
func CompileVecPred(pred Expr, rs *RowSchema) *VecPred {
	if rs == nil || len(rs.Slots) != 1 {
		return nil // Batch addresses Tuples[lane].Vals[ci] directly
	}
	conj := Conjuncts(pred)
	var kernels []vecKernel
	i := 0
	for ; i < len(conj); i++ {
		if _, ok := conj[i].(TruePred); ok {
			continue // contributes True on every lane; no kernel needed
		}
		k := compileConjunct(conj[i], rs)
		if k == nil {
			break
		}
		kernels = append(kernels, k)
	}
	if len(kernels) == 0 && i < len(conj) {
		return nil
	}
	vp := &VecPred{kernels: kernels}
	if i < len(conj) {
		rest := conj[i:]
		if len(rest) == 1 {
			vp.Residual = rest[0]
		} else {
			vp.Residual = &And{Kids: rest}
		}
	}
	return vp
}

// vecKernel evaluates one conjunct over a batch. apply returns false on a
// column fill bail (declared-kind mismatch).
type vecKernel interface {
	apply(b *Batch, t, nf Bitmap) bool
}

func compileConjunct(e Expr, rs *RowSchema) vecKernel {
	switch n := e.(type) {
	case *IsNull:
		col, ok := n.Kid.(*Col)
		if !ok || !col.bound {
			return nil
		}
		return kIsNull{ci: col.Index, negate: n.Negate}
	case *Cmp:
		return compileCmp(n, rs)
	case *Enriched:
		if !n.bound {
			return nil
		}
		return kEnriched{n}
	}
	return nil
}

// swapOp mirrors an operator across swapped operands: const OP col becomes
// col swapOp(OP) const.
func swapOp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// opHolds translates a Compare-style ordering into the operator's boolean.
func opHolds(op CmpOp, cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	default: // GE
		return cmp >= 0
	}
}

// cmpFloat orders two float64 exactly as Value.Compare does: NaN compares
// "equal" to everything (neither < nor >), so kernels must not use direct
// operator fast paths on floats.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compileCmp(c *Cmp, rs *RowSchema) vecKernel {
	if lc, ok := c.L.(*Col); ok {
		switch r := c.R.(type) {
		case *Const:
			return compileColConst(lc, c.Op, r.Val, rs)
		case *Col:
			return compileColCol(lc, r, c.Op, rs)
		}
		return nil
	}
	if lk, ok := c.L.(*Const); ok {
		if rc, ok2 := c.R.(*Col); ok2 {
			return compileColConst(rc, swapOp(c.Op), lk.Val, rs)
		}
	}
	return nil
}

func integralKind(k types.Kind) bool { return k == types.KindInt || k == types.KindBool }
func numericKind(k types.Kind) bool  { return integralKind(k) || k == types.KindFloat }

func compileColConst(col *Col, op CmpOp, cv types.Value, rs *RowSchema) vecKernel {
	if !col.bound {
		return nil
	}
	kind := rs.Cols[col.Index].Kind
	if cv.IsNull() {
		// Comparison with a NULL literal is Unknown on every lane.
		return kUnknown{}
	}
	switch {
	case integralKind(kind) && integralKind(cv.Kind()):
		return kCmpIntConst{ci: col.Index, op: op, rhs: cv.Int()}
	case numericKind(kind) && numericKind(cv.Kind()):
		// Either side FLOAT: Compare widens to float64.
		return kCmpFloatConst{ci: col.Index, op: op, rhs: cv.Float(), colIntegral: integralKind(kind)}
	case kind == types.KindString && cv.Kind() == types.KindString:
		return kCmpStrConst{ci: col.Index, op: op, rhs: cv.Str()}
	}
	// Mismatched kinds are an eval error on non-NULL lanes in the row path;
	// leave the conjunct uncompiled so the error surfaces identically.
	return nil
}

func compileColCol(l, r *Col, op CmpOp, rs *RowSchema) vecKernel {
	if !l.bound || !r.bound {
		return nil
	}
	lk, rk := rs.Cols[l.Index].Kind, rs.Cols[r.Index].Kind
	switch {
	case integralKind(lk) && integralKind(rk):
		return kCmpColCol{li: l.Index, ri: r.Index, op: op, mode: ccInt}
	case numericKind(lk) && numericKind(rk):
		return kCmpColCol{li: l.Index, ri: r.Index, op: op, mode: ccFloat}
	case lk == types.KindString && rk == types.KindString:
		return kCmpColCol{li: l.Index, ri: r.Index, op: op, mode: ccStr}
	}
	return nil
}

// ---- kernels ----

// kUnknown: every lane Unknown (comparison against a NULL literal).
type kUnknown struct{}

func (kUnknown) apply(_ *Batch, t, _ Bitmap) bool {
	for i := range t {
		t[i] = 0
	}
	return true
}

// kIsNull: IS [NOT] NULL on a column — never Unknown.
type kIsNull struct {
	ci     int
	negate bool
}

func (k kIsNull) apply(b *Batch, t, nf Bitmap) bool {
	cv, ok := b.Col(k.ci)
	if !ok {
		return false
	}
	for i := 0; i < b.Len(); i++ {
		if cv.Nulls.Get(i) != !k.negate {
			t.Clear(i)
			nf.Clear(i)
		}
	}
	return true
}

// kEnriched: the enrichment-mark test read off the lanes' tuple images — no
// column fill, never Unknown; on warm data AnyUnenriched clears every lane.
type kEnriched struct{ e *Enriched }

func (k kEnriched) apply(b *Batch, t, nf Bitmap) bool {
	for i, tu := range b.Tuples {
		if k.e.holds(tu) == k.e.Negate {
			t.Clear(i)
			nf.Clear(i)
		}
	}
	return true
}

// kCmpIntConst: INT/BOOL column vs integral constant, compared in int64
// space (no float rounding on large ids). The hot per-operator loops skip
// the NULL check entirely when the column has no NULL lanes.
type kCmpIntConst struct {
	ci  int
	op  CmpOp
	rhs int64
}

func (k kCmpIntConst) apply(b *Batch, t, nf Bitmap) bool {
	cv, ok := b.Col(k.ci)
	if !ok {
		return false
	}
	xs := cv.I
	if anySet(cv.Nulls) {
		for i, x := range xs {
			if cv.Nulls.Get(i) {
				t.Clear(i) // Unknown: not True, still not-False
				continue
			}
			if !opHolds(k.op, cmpInt(x, k.rhs)) {
				t.Clear(i)
				nf.Clear(i)
			}
		}
		return true
	}
	rhs := k.rhs
	switch k.op {
	case EQ:
		for i, x := range xs {
			if x != rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	case NE:
		for i, x := range xs {
			if x == rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	case LT:
		for i, x := range xs {
			if x >= rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	case LE:
		for i, x := range xs {
			if x > rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	case GT:
		for i, x := range xs {
			if x <= rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	default: // GE
		for i, x := range xs {
			if x < rhs {
				t.Clear(i)
				nf.Clear(i)
			}
		}
	}
	return true
}

// kCmpFloatConst: numeric column vs constant compared in float64 space
// (NaN-exact per cmpFloat). colIntegral widens INT/BOOL lanes.
type kCmpFloatConst struct {
	ci          int
	op          CmpOp
	rhs         float64
	colIntegral bool
}

func (k kCmpFloatConst) apply(b *Batch, t, nf Bitmap) bool {
	cv, ok := b.Col(k.ci)
	if !ok {
		return false
	}
	nulls := anySet(cv.Nulls)
	for i := 0; i < b.Len(); i++ {
		if nulls && cv.Nulls.Get(i) {
			t.Clear(i)
			continue
		}
		var x float64
		if k.colIntegral {
			x = float64(cv.I[i])
		} else {
			x = cv.F[i]
		}
		if !opHolds(k.op, cmpFloat(x, k.rhs)) {
			t.Clear(i)
			nf.Clear(i)
		}
	}
	return true
}

// kCmpStrConst: STRING column vs string constant.
type kCmpStrConst struct {
	ci  int
	op  CmpOp
	rhs string
}

func (k kCmpStrConst) apply(b *Batch, t, nf Bitmap) bool {
	cv, ok := b.Col(k.ci)
	if !ok {
		return false
	}
	nulls := anySet(cv.Nulls)
	for i, s := range cv.S {
		if nulls && cv.Nulls.Get(i) {
			t.Clear(i)
			continue
		}
		if !opHolds(k.op, strings.Compare(s, k.rhs)) {
			t.Clear(i)
			nf.Clear(i)
		}
	}
	return true
}

type ccMode uint8

const (
	ccInt ccMode = iota
	ccFloat
	ccStr
)

// kCmpColCol: column-vs-column comparison within one batch.
type kCmpColCol struct {
	li, ri int
	op     CmpOp
	mode   ccMode
}

func (k kCmpColCol) apply(b *Batch, t, nf Bitmap) bool {
	lv, ok := b.Col(k.li)
	if !ok {
		return false
	}
	rv, ok := b.Col(k.ri)
	if !ok {
		return false
	}
	lNulls, rNulls := anySet(lv.Nulls), anySet(rv.Nulls)
	for i := 0; i < b.Len(); i++ {
		if (lNulls && lv.Nulls.Get(i)) || (rNulls && rv.Nulls.Get(i)) {
			t.Clear(i)
			continue
		}
		var cmp int
		switch k.mode {
		case ccInt:
			cmp = cmpInt(lv.I[i], rv.I[i])
		case ccFloat:
			cmp = cmpFloat(laneFloat(lv, i), laneFloat(rv, i))
		default:
			cmp = strings.Compare(lv.S[i], rv.S[i])
		}
		if !opHolds(k.op, cmp) {
			t.Clear(i)
			nf.Clear(i)
		}
	}
	return true
}

// laneFloat widens one lane to float64 regardless of the column's storage.
func laneFloat(cv *ColVec, i int) float64 {
	if cv.Kind == types.KindFloat {
		return cv.F[i]
	}
	return float64(cv.I[i])
}

// anySet reports whether any lane bit is set (word-wise, no per-lane cost).
func anySet(b Bitmap) bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}
