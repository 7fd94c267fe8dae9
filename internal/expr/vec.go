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
// The one exception is the tight design's guarded conjunct (Guarded): it
// compiles when its C over the stored columns does, but the kernel decides
// only the lanes whose tuple image marks the guard's refs, where ω(C) is C.
// Every other lane that is still not-False when it reaches the FIRST guarded
// conjunct is pending: it is decided row-at-a-time by the conjunct suffix
// from that guarded conjunct on (Pending), so its UDF calls, side-effect
// order, errors and enrichments are exactly the row path's.
//
// Lane semantics per conjunct: fold its three-valued result tv into two
// bitmaps — t (lane is True so far: cleared unless tv==True) and nf (lane is
// not-False so far: cleared when tv==False). A lane that is not pending
// passes the whole predicate iff t stays set through the kernels and the
// residual evaluates True; it skips residual evaluation iff nf was cleared
// (the row path's False short-circuit). A pending lane's t bit is the verdict
// of the conjuncts before the first guarded one; it passes iff that bit is
// set and Pending evaluates True. Its nf bit means nothing.

// VecPred is a compiled predicate: zero or more column kernels plus an
// optional row-at-a-time residual.
type VecPred struct {
	kernels []vecKernel
	// Residual is the uncompiled conjunct suffix (nil when the predicate
	// compiled fully). It must be evaluated with EvalPred on every lane
	// whose nf bit survives the kernels.
	Residual Expr
	// Pending is the conjunct suffix from the first compiled guarded
	// conjunct on (nil without one). It decides the pending lanes Eval
	// reports, in place of the kernels from that conjunct on and the
	// residual.
	Pending Expr
	// guardAt is the kernel index of the first guarded conjunct (-1 without
	// one); guardMask is the union of the compiled guards' mark bits.
	guardAt   int
	guardMask uint64
}

// NumKernels reports how many conjuncts compiled to kernels (introspection
// and tests).
func (vp *VecPred) NumKernels() int { return len(vp.kernels) }

// Eval applies every kernel to the batch, folding results into t (all
// conjuncts so far True) and nf (no conjunct so far False), and sets pend
// for the pending lanes. t and nf must arrive with the first Len lanes set,
// pend cleared (it may be nil when Pending is). Whether a conjunct runs as
// a kernel was decided when the predicate compiled, from the columns'
// declared kinds, which every stored cell has: Eval never gives a batch
// back to the row path.
//
// Once no lane is not-False, no later kernel runs: it could clear nothing
// (t ⊆ nf), and pending lanes come only from nf.
func (vp *VecPred) Eval(b *Batch, t, nf, pend Bitmap) {
	var prefix [BatchSize / 64]uint64 // t as the first guarded conjunct finds it
	for i, k := range vp.kernels {
		if !nf.Any() {
			break
		}
		if i == vp.guardAt {
			// The lanes the row path carries into the first guarded
			// conjunct whose image misses a guarded mark bit are pending.
			copy(prefix[:], t)
			vp.pending(b, nf, pend)
		}
		k.apply(b, t, nf)
	}
	// A pending lane keeps the prefix's verdict: Pending decides the rest.
	for w := range pend {
		t[w] = t[w]&^pend[w] | prefix[w]&pend[w]
	}
}

// pending sets pend for the not-False lanes whose image misses a guarded
// mark bit. When the chunk's marks' AND covers guardMask no lane is pending
// and none is read.
func (vp *VecPred) pending(b *Batch, nf, pend Bitmap) {
	if b.chunk.marksCover(vp.guardMask) {
		b.MarksDecided = true
		return
	}
	for lane, tu := range b.Tuples {
		if nf.Get(lane) && tu.Enriched&vp.guardMask != vp.guardMask {
			pend.Set(lane)
		}
	}
}

// CompileVecPred compiles pred against a single-slot (base scan) schema.
// It returns nil when no leading conjunct is vectorizable (the row path is
// then strictly better: same work, no batch setup).
func CompileVecPred(pred Expr, rs *RowSchema) *VecPred {
	if rs == nil || len(rs.Slots) != 1 {
		return nil // Batch addresses Tuples[lane].Vals[ci] directly
	}
	conj := Conjuncts(pred)
	vp := &VecPred{guardAt: -1}
	i := 0
	for ; i < len(conj); i++ {
		if _, ok := conj[i].(TruePred); ok {
			continue // contributes True on every lane; no kernel needed
		}
		k := compileConjunct(conj[i], rs)
		if k == nil {
			break
		}
		if g, ok := k.(kGuarded); ok {
			if vp.guardAt < 0 {
				vp.guardAt, vp.Pending = len(vp.kernels), conjunction(conj[i:])
			}
			vp.guardMask |= g.mask
		}
		vp.kernels = append(vp.kernels, k)
	}
	if len(vp.kernels) == 0 && i < len(conj) {
		return nil
	}
	if i < len(conj) {
		vp.Residual = conjunction(conj[i:])
	}
	return vp
}

// conjunction is the And of a non-empty conjunct list (the conjunct itself
// when there is one).
func conjunction(conj []Expr) Expr {
	if len(conj) == 1 {
		return conj[0]
	}
	return &And{Kids: conj}
}

// vecKernel evaluates one conjunct over a batch.
type vecKernel interface {
	apply(b *Batch, t, nf Bitmap)
}

func compileConjunct(e Expr, rs *RowSchema) vecKernel {
	switch n := e.(type) {
	case *IsNull:
		// A VECTOR column has no kernel vector: its test stays on the
		// residual.
		col, ok := n.Kid.(*Col)
		if !ok || !col.bound || rs.Cols[col.Index].Kind == types.KindVector {
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
	case *Guarded:
		if !n.markable {
			return nil
		}
		if k := compileConjunct(n.Stored, rs); k != nil {
			return kGuarded{vecKernel: k, mask: n.mask}
		}
	}
	return nil
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

// compileCmp compiles column OP constant for an INT column against an INT
// constant and a STRING column against a string constant, the
// shapes the paper's queries and their rewrites produce. Every other
// comparison ends the compiled prefix and runs on the residual row path.
func compileCmp(c *Cmp, rs *RowSchema) vecKernel {
	col, ok := c.L.(*Col)
	if !ok || !col.bound {
		return nil
	}
	k, ok := c.R.(*Const)
	if !ok {
		return nil
	}
	cv, kind := k.Val, rs.Cols[col.Index].Kind
	switch {
	case kind == types.KindInt && cv.Kind() == types.KindInt:
		return kCmpIntConst{ci: col.Index, op: c.Op, rhs: cv.Int()}
	case kind == types.KindString && cv.Kind() == types.KindString:
		return kCmpStrConst{ci: col.Index, op: c.Op, rhs: cv.Str()}
	}
	return nil
}

// ---- kernels ----

// kIsNull: IS [NOT] NULL on a column — never Unknown.
type kIsNull struct {
	ci     int
	negate bool
}

func (k kIsNull) apply(b *Batch, t, nf Bitmap) {
	cv := b.Col(k.ci)
	for i := 0; i < b.Len(); i++ {
		if cv.Nulls.Get(i) != !k.negate {
			t.Clear(i)
			nf.Clear(i)
		}
	}
}

// kEnriched: the enrichment-mark test — no column fill, never Unknown. When
// the chunk's marks' AND covers the mask it decides the whole chunk without
// reading a lane: on warm data AnyUnenriched then clears every lane.
// Otherwise it reads the lanes' tuple images.
type kEnriched struct{ e *Enriched }

func (k kEnriched) apply(b *Batch, t, nf Bitmap) {
	e := k.e
	// A nil lane holds no mark: with a non-zero mask the AND never covers it.
	if e.markable && e.mask != 0 && b.chunk.marksCover(e.mask) {
		b.MarksDecided = true
		if e.Negate {
			clear(t)
			clear(nf)
		}
		return
	}
	for i, tu := range b.Tuples {
		if e.holds(tu) == e.Negate {
			t.Clear(i)
			nf.Clear(i)
		}
	}
}

// kGuarded: a guarded conjunct's C over the stored columns. It runs on every
// lane, but only decides the lanes whose image carries mask; VecPred.Eval
// routes the others to Pending.
type kGuarded struct {
	vecKernel
	mask uint64
}

// kCmpIntConst: INT column vs INT constant. The hot per-operator loops skip
// the NULL check entirely when the column has no NULL lanes.
type kCmpIntConst struct {
	ci  int
	op  CmpOp
	rhs int64
}

func (k kCmpIntConst) apply(b *Batch, t, nf Bitmap) {
	cv := b.Col(k.ci)
	xs := cv.I
	if cv.Nulls.Any() {
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
		return
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
}

// kCmpStrConst: STRING column vs string constant.
type kCmpStrConst struct {
	ci  int
	op  CmpOp
	rhs string
}

func (k kCmpStrConst) apply(b *Batch, t, nf Bitmap) {
	cv := b.Col(k.ci)
	nulls := cv.Nulls.Any()
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
}
