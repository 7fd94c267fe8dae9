package expr

import (
	"fmt"
	"strings"

	"enrichdb/internal/types"
)

// TV is a three-valued logic truth value (SQL semantics: comparisons with
// NULL are Unknown, AND/OR/NOT follow Kleene logic).
type TV int8

// Truth values.
const (
	False   TV = -1
	Unknown TV = 0
	True    TV = 1
)

// And3 combines two truth values under Kleene AND.
func And3(a, b TV) TV {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	return Unknown
}

// Or3 combines two truth values under Kleene OR.
func Or3(a, b TV) TV {
	if a == True || b == True {
		return True
	}
	if a == False && b == False {
		return False
	}
	return Unknown
}

// Not3 negates a truth value.
func Not3(a TV) TV { return -a }

// truth maps a two-valued answer to True or False.
func truth(b bool) TV {
	if b {
		return True
	}
	return False
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator (used when pushing NOT inward
// during CNF conversion).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		return op
	}
}

// EvalCtx carries the runtime services expressions may need: the enrichment
// runtime backing the tight design's UDFs, and counters. A nil Runtime is
// valid for pure relational expressions.
type EvalCtx struct {
	Runtime EnrichRuntime
	// UDFInvocations counts every UDF call evaluated through this context;
	// the paper's Exp 4 measures this invocation overhead.
	UDFInvocations int64
	// PatchRows lets GetValue/read_udf calls write the value they return
	// into the evaluated row's derived column, so operators above the filter
	// (projection, grouping) observe enrichment performed during this query.
	// Stored tuples are copy-on-write and rows normally alias tuple values,
	// so the engine's scans materialize rows that own their value slices
	// while it is set.
	PatchRows bool
}

// EnrichRuntime is the service interface behind the tight design's UDFs
// (§2.2, §3.3.3). The progressive executor provides an implementation that
// consults the state tables and the epoch's PlanTable.
type EnrichRuntime interface {
	// CheckState reports whether, for the current plan, tuple tid of rel has
	// already had the planned enrichment function(s) executed for attr.
	CheckState(rel string, tid int64, attr string) (bool, error)
	// GetValue returns the latest determined value of a derived attribute.
	GetValue(rel string, tid int64, attr string) (types.Value, error)
	// ReadUDF executes the enrichment function(s) the PlanTable assigns to
	// (rel, tid, attr), updates the state, and returns the determined value.
	ReadUDF(rel string, tid int64, attr string) (types.Value, error)
}

// Expr is an expression node evaluated against executor rows: a scalar (a
// column, a literal or a value-returning UDF call), whose value evalValue
// computes, or a predicate, whose three-valued truth EvalPred answers.
// Truth is never a types.Value.
type Expr interface {
	// Resolve binds column references against the row schema. It must be
	// called once before evaluation.
	Resolve(rs *RowSchema) error
	// Clone returns a deep copy with unresolved bindings preserved.
	Clone() Expr
	// Walk visits the node and all children.
	Walk(fn func(Expr))
	// String renders the expression in SQL-ish syntax.
	String() string
}

// EvalPred evaluates a boolean expression under three-valued logic.
func EvalPred(ctx *EvalCtx, e Expr, row *Row) (TV, error) {
	switch n := e.(type) {
	case *And:
		out := True
		for _, c := range n.Kids {
			tv, err := EvalPred(ctx, c, row)
			if err != nil {
				return Unknown, err
			}
			out = And3(out, tv)
			if out == False {
				return False, nil // short-circuit: later conjuncts never evaluated
			}
		}
		return out, nil
	case *Or:
		out := False
		for _, c := range n.Kids {
			tv, err := EvalPred(ctx, c, row)
			if err != nil {
				return Unknown, err
			}
			out = Or3(out, tv)
			if out == True {
				return True, nil
			}
		}
		return out, nil
	case *Not:
		tv, err := EvalPred(ctx, n.Kid, row)
		if err != nil {
			return Unknown, err
		}
		return Not3(tv), nil
	case *IsNull:
		v, err := evalValue(ctx, n.Kid, row)
		if err != nil {
			return Unknown, err
		}
		return truth(v.IsNull() != n.Negate), nil
	case *Cmp:
		return n.eval3(ctx, row)
	case *Guarded:
		return EvalPred(ctx, n.Omega, row)
	case *Enriched:
		return n.eval3(row)
	case *UDFCall:
		if n.Kind == UDFCheckState {
			return n.checkState(ctx, row)
		}
	case TruePred:
		return True, nil
	}
	return Unknown, fmt.Errorf("expr: non-boolean predicate %s", e)
}

// evalValue computes a scalar's value. A predicate has none: EvalPred
// answers its truth.
func evalValue(ctx *EvalCtx, e Expr, row *Row) (types.Value, error) {
	switch n := e.(type) {
	case *Col:
		return n.Eval(ctx, row)
	case *Const:
		return n.Val, nil
	case *UDFCall:
		return n.Eval(ctx, row)
	}
	return types.Null, fmt.Errorf("expr: predicate %s has no value", e)
}

// Col is a (possibly qualified) column reference.
type Col struct {
	Alias string // table alias; empty means unqualified
	Name  string

	// Bound state, set by Resolve.
	Index   int
	Slot    int
	Derived bool
	bound   bool
}

// NewCol returns an unresolved column reference.
func NewCol(alias, name string) *Col { return &Col{Alias: alias, Name: name, Index: -1} }

// Eval returns the column's value from the row.
func (c *Col) Eval(_ *EvalCtx, row *Row) (types.Value, error) {
	if !c.bound {
		return types.Null, fmt.Errorf("expr: unresolved column %s", c)
	}
	return row.Vals[c.Index], nil
}

// Resolve binds the reference against the row schema.
func (c *Col) Resolve(rs *RowSchema) error {
	i, err := rs.Lookup(c.Alias, c.Name)
	if err != nil {
		return err
	}
	c.Index = i
	c.Slot = rs.Cols[i].Slot
	c.Derived = rs.Cols[i].Derived
	c.bound = true
	return nil
}

// Clone copies the reference, dropping bound state.
func (c *Col) Clone() Expr { return &Col{Alias: c.Alias, Name: c.Name, Index: -1} }

// Walk visits the node.
func (c *Col) Walk(fn func(Expr)) { fn(c) }

// String renders the reference.
func (c *Col) String() string {
	if c.Alias == "" {
		return c.Name
	}
	return c.Alias + "." + c.Name
}

// Const is a literal value.
type Const struct{ Val types.Value }

// NewConst returns a literal expression.
func NewConst(v types.Value) *Const { return &Const{Val: v} }

// Resolve is a no-op for literals.
func (c *Const) Resolve(*RowSchema) error { return nil }

// Clone copies the literal.
func (c *Const) Clone() Expr { return &Const{Val: c.Val} }

// Walk visits the node.
func (c *Const) Walk(fn func(Expr)) { fn(c) }

// String renders the literal.
func (c *Const) String() string { return c.Val.String() }

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns a comparison expression.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func (c *Cmp) eval3(ctx *EvalCtx, row *Row) (TV, error) {
	lv, err := evalValue(ctx, c.L, row)
	if err != nil {
		return Unknown, err
	}
	rv, err := evalValue(ctx, c.R, row)
	if err != nil {
		return Unknown, err
	}
	if lv.IsNull() || rv.IsNull() {
		return Unknown, nil
	}
	cmp, ok := lv.Compare(rv)
	if !ok {
		return Unknown, fmt.Errorf("expr: incomparable values %s %s %s", lv, c.Op, rv)
	}
	var res bool
	switch c.Op {
	case EQ:
		res = cmp == 0
	case NE:
		res = cmp != 0
	case LT:
		res = cmp < 0
	case LE:
		res = cmp <= 0
	case GT:
		res = cmp > 0
	case GE:
		res = cmp >= 0
	}
	return truth(res), nil
}

// Resolve binds both sides.
func (c *Cmp) Resolve(rs *RowSchema) error {
	if err := c.L.Resolve(rs); err != nil {
		return err
	}
	return c.R.Resolve(rs)
}

// Clone deep-copies the comparison.
func (c *Cmp) Clone() Expr { return &Cmp{Op: c.Op, L: c.L.Clone(), R: c.R.Clone()} }

// Walk visits the node and both sides.
func (c *Cmp) Walk(fn func(Expr)) { fn(c); c.L.Walk(fn); c.R.Walk(fn) }

// String renders the comparison.
func (c *Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is an n-ary conjunction.
type And struct{ Kids []Expr }

// NewAnd builds a conjunction, flattening nested Ands.
func NewAnd(kids ...Expr) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if a, ok := k.(*And); ok {
			flat = append(flat, a.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &And{Kids: flat}
}

// Resolve binds every conjunct.
func (a *And) Resolve(rs *RowSchema) error { return resolveAll(rs, a.Kids) }

// Clone deep-copies the conjunction.
func (a *And) Clone() Expr { return &And{Kids: cloneAll(a.Kids)} }

// Walk visits the node and all conjuncts.
func (a *And) Walk(fn func(Expr)) { fn(a); walkAll(fn, a.Kids) }

// String renders the conjunction.
func (a *And) String() string { return joinKids(a.Kids, " AND ") }

// Or is an n-ary disjunction.
type Or struct{ Kids []Expr }

// NewOr builds a disjunction, flattening nested Ors.
func NewOr(kids ...Expr) Expr {
	flat := make([]Expr, 0, len(kids))
	for _, k := range kids {
		if o, ok := k.(*Or); ok {
			flat = append(flat, o.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Or{Kids: flat}
}

// Resolve binds every disjunct.
func (o *Or) Resolve(rs *RowSchema) error { return resolveAll(rs, o.Kids) }

// Clone deep-copies the disjunction.
func (o *Or) Clone() Expr { return &Or{Kids: cloneAll(o.Kids)} }

// Walk visits the node and all disjuncts.
func (o *Or) Walk(fn func(Expr)) { fn(o); walkAll(fn, o.Kids) }

// String renders the disjunction.
func (o *Or) String() string { return "(" + joinKids(o.Kids, " OR ") + ")" }

// Not is logical negation.
type Not struct{ Kid Expr }

// Resolve binds the operand.
func (n *Not) Resolve(rs *RowSchema) error { return n.Kid.Resolve(rs) }

// Clone deep-copies the negation.
func (n *Not) Clone() Expr { return &Not{Kid: n.Kid.Clone()} }

// Walk visits the node and operand.
func (n *Not) Walk(fn func(Expr)) { fn(n); n.Kid.Walk(fn) }

// String renders the negation.
func (n *Not) String() string { return "NOT (" + n.Kid.String() + ")" }

// IsNull tests for NULL (or, with Negate, NOT NULL); never Unknown. The
// loose design's probe-query rewrite (§2.1 Step 1) injects these tests.
type IsNull struct {
	Kid    Expr
	Negate bool
}

// Resolve binds the operand.
func (n *IsNull) Resolve(rs *RowSchema) error { return n.Kid.Resolve(rs) }

// Clone deep-copies the test.
func (n *IsNull) Clone() Expr { return &IsNull{Kid: n.Kid.Clone(), Negate: n.Negate} }

// Walk visits the node and operand.
func (n *IsNull) Walk(fn func(Expr)) { fn(n); n.Kid.Walk(fn) }

// String renders the test.
func (n *IsNull) String() string {
	if n.Negate {
		return n.Kid.String() + " IS NOT NULL"
	}
	return n.Kid.String() + " IS NULL"
}

// TupleGetter resolves a tuple id to the stored image a scan reads
// (storage.Relation satisfies it).
type TupleGetter interface{ Get(id int64) *types.Tuple }

// Enriched tests the enrichment mark (types.Tuple.Enriched) of the image
// behind table slot Alias: True when every one of Attrs is marked determined
// by its complete function family. Negated, it is the loose probe's
// AnyUnenriched(attrs) — §2.1's bitmap test (Figure 3). Never Unknown. The
// vector kernel reads the mark off the batch's tuples; the row path reads
// the same image through Images, the relation the slot scans.
type Enriched struct {
	Images TupleGetter
	Alias  string
	Attrs  []string
	Negate bool

	slot     int
	mask     uint64
	markable bool // every attribute has a mark bit
	bound    bool
}

// NewEnriched returns an unresolved mark test.
func NewEnriched(images TupleGetter, alias string, attrs []string, negate bool) *Enriched {
	return &Enriched{Images: images, Alias: alias, Attrs: attrs, Negate: negate}
}

// holds reports whether the image marks every attribute.
func (e *Enriched) holds(tu *types.Tuple) bool {
	return tu != nil && e.markable && tu.Enriched&e.mask == e.mask
}

// eval3 reads the slot's image mark: True or False, never Unknown.
func (e *Enriched) eval3(row *Row) (TV, error) {
	if !e.bound {
		return Unknown, fmt.Errorf("expr: unresolved mark test %s", e)
	}
	return truth(e.holds(e.Images.Get(row.TIDs[e.slot])) != e.Negate), nil
}

// Resolve binds the slot and the attributes' mark bits.
func (e *Enriched) Resolve(rs *RowSchema) error {
	if e.slot = rs.SlotByAlias(e.Alias); e.slot < 0 {
		return fmt.Errorf("expr: mark test references unknown alias %q", e.Alias)
	}
	e.mask, e.markable, e.bound = 0, true, true
	for _, a := range e.Attrs {
		bit := rs.Slots[e.slot].Schema.MarkBit(a)
		e.mask, e.markable = e.mask|bit, e.markable && bit != 0
	}
	return nil
}

// Clone copies the test, dropping bound state.
func (e *Enriched) Clone() Expr { return NewEnriched(e.Images, e.Alias, e.Attrs, e.Negate) }

// Walk visits the node.
func (e *Enriched) Walk(fn func(Expr)) { fn(e) }

// String renders the test, e.g. AnyUnenriched(t.sentiment, t.topic).
func (e *Enriched) String() string {
	name, cols := "Enriched", make([]string, len(e.Attrs))
	if e.Negate {
		name = "AnyUnenriched"
	}
	for i, a := range e.Attrs {
		cols[i] = e.Alias + "." + a
	}
	return name + "(" + strings.Join(cols, ", ") + ")"
}

// Guarded is the tight rewrite of one derived conjunct C with a marked case.
// When the tuple image of C's slot marks every one of Refs, ω(C) reduces to C
// over the stored columns: CheckState answers true and GetValue the stored
// value. Row evaluation is the paper's ω exactly (Omega); the vector kernel
// decides marked lanes with Stored's kernel and leaves every other lane
// pending for ω (CompileVecPred). Walk and String cover both branches, so UDF
// detection, UDF pull-up, the nested-loop rule and EXPLAIN see ω's calls.
type Guarded struct {
	Refs   []DerivedRef
	Stored Expr // C over the stored columns
	Omega  Expr // ω(C)

	mask     uint64 // the refs' mark bits
	markable bool   // the refs share one slot and each has a mark bit
}

// NewGuarded returns an unresolved guarded conjunct.
func NewGuarded(refs []DerivedRef, stored, omega Expr) *Guarded {
	return &Guarded{Refs: refs, Stored: stored, Omega: omega}
}

// Resolve binds both branches and the refs' mark bits.
func (g *Guarded) Resolve(rs *RowSchema) error {
	if err := g.Omega.Resolve(rs); err != nil {
		return err
	}
	if err := g.Stored.Resolve(rs); err != nil {
		return err
	}
	g.mask, g.markable = 0, len(g.Refs) > 0
	for _, r := range g.Refs {
		si := rs.SlotByAlias(r.Alias)
		if si < 0 || r.Alias != g.Refs[0].Alias || rs.Slots[si].Schema == nil {
			g.markable = false
			break
		}
		bit := rs.Slots[si].Schema.MarkBit(r.Attr)
		g.mask, g.markable = g.mask|bit, g.markable && bit != 0
	}
	return nil
}

// Clone deep-copies both branches, dropping bound state.
func (g *Guarded) Clone() Expr { return NewGuarded(g.Refs, g.Stored.Clone(), g.Omega.Clone()) }

// Walk visits the node, then C, then ω.
func (g *Guarded) Walk(fn func(Expr)) { fn(g); g.Stored.Walk(fn); g.Omega.Walk(fn) }

// String renders the marked case and ω, e.g.
// CASE WHEN Enriched(t.sentiment) THEN t.sentiment = 0 ELSE (…) END.
func (g *Guarded) String() string {
	cols := make([]string, len(g.Refs))
	for i, r := range g.Refs {
		cols[i] = r.Alias + "." + r.Attr
	}
	return "CASE WHEN Enriched(" + strings.Join(cols, ", ") + ") THEN " + g.Stored.String() +
		" ELSE " + g.Omega.String() + " END"
}

// TruePred is the always-true predicate (an empty WHERE clause).
type TruePred struct{}

// Resolve is a no-op.
func (TruePred) Resolve(*RowSchema) error { return nil }

// Clone returns the predicate itself (it is stateless).
func (t TruePred) Clone() Expr { return t }

// Walk visits the node.
func (t TruePred) Walk(fn func(Expr)) { fn(t) }

// String renders the predicate.
func (TruePred) String() string { return "TRUE" }

// UDFKind identifies one of the tight design's built-in UDFs.
type UDFKind uint8

// The three UDFs of §3.3.3.
const (
	UDFCheckState UDFKind = iota
	UDFGetValue
	UDFReadUDF
)

// String returns the paper's name for the UDF.
func (k UDFKind) String() string {
	switch k {
	case UDFCheckState:
		return "CheckState"
	case UDFGetValue:
		return "GetValue"
	case UDFReadUDF:
		return "read_udf"
	default:
		return "udf?"
	}
}

// UDFCall invokes one of the tight design's UDFs on a derived attribute of a
// specific table slot. The tuple id argument of the paper's UDF signature is
// pulled from the row at evaluation time.
type UDFCall struct {
	Kind  UDFKind
	Alias string // table alias whose tuple the UDF applies to
	Attr  string // derived attribute name

	slot     int
	valIdx   int // index of alias.Attr in the row's values; -1 if absent
	relation string
	bound    bool
}

// NewUDFCall returns an unresolved UDF invocation.
func NewUDFCall(kind UDFKind, alias, attr string) *UDFCall {
	return &UDFCall{Kind: kind, Alias: alias, Attr: attr}
}

// start checks the call is bound and has a runtime, counts it, and returns
// its tuple id.
func (u *UDFCall) start(ctx *EvalCtx, row *Row) (int64, error) {
	if !u.bound {
		return 0, fmt.Errorf("expr: unresolved UDF call %s", u)
	}
	if ctx == nil || ctx.Runtime == nil {
		return 0, fmt.Errorf("expr: UDF %s evaluated without enrichment runtime", u)
	}
	ctx.UDFInvocations++
	return row.TIDs[u.slot], nil
}

// checkState answers CheckState: True when the runtime reports the planned
// functions executed, else False; never Unknown.
func (u *UDFCall) checkState(ctx *EvalCtx, row *Row) (TV, error) {
	tid, err := u.start(ctx, row)
	if err != nil {
		return Unknown, err
	}
	ok, err := ctx.Runtime.CheckState(u.relation, tid, u.Attr)
	if err != nil {
		return Unknown, err
	}
	return truth(ok), nil
}

// Eval dispatches GetValue and read_udf to the enrichment runtime.
// CheckState answers a truth value, which EvalPred evaluates.
func (u *UDFCall) Eval(ctx *EvalCtx, row *Row) (types.Value, error) {
	if u.Kind != UDFGetValue && u.Kind != UDFReadUDF {
		return types.Null, fmt.Errorf("expr: %s has no value", u)
	}
	tid, err := u.start(ctx, row)
	if err != nil {
		return types.Null, err
	}
	var v types.Value
	if u.Kind == UDFGetValue {
		v, err = ctx.Runtime.GetValue(u.relation, tid, u.Attr)
	} else {
		v, err = ctx.Runtime.ReadUDF(u.relation, tid, u.Attr)
	}
	u.patch(ctx, row, v, err)
	return v, err
}

// patch writes a freshly determined derived value into the row itself (see
// EvalCtx.PatchRows). Tuples are immutable, so without this the row would
// keep showing the pre-enrichment value it was materialized with.
func (u *UDFCall) patch(ctx *EvalCtx, row *Row, v types.Value, err error) {
	if err != nil || !ctx.PatchRows || u.valIdx < 0 || v.IsNull() {
		return
	}
	row.Vals[u.valIdx] = v
}

// Resolve binds the call to its table slot.
func (u *UDFCall) Resolve(rs *RowSchema) error {
	si := rs.SlotByAlias(u.Alias)
	if si < 0 {
		return fmt.Errorf("expr: UDF %s references unknown alias %q", u.Kind, u.Alias)
	}
	u.slot = si
	u.relation = rs.Slots[si].Relation
	u.valIdx = -1
	if vi, err := rs.Lookup(u.Alias, u.Attr); err == nil {
		u.valIdx = vi
	}
	u.bound = true
	return nil
}

// Clone copies the call, dropping bound state.
func (u *UDFCall) Clone() Expr { return &UDFCall{Kind: u.Kind, Alias: u.Alias, Attr: u.Attr} }

// Walk visits the node.
func (u *UDFCall) Walk(fn func(Expr)) { fn(u) }

// String renders the call in the paper's notation.
func (u *UDFCall) String() string {
	return fmt.Sprintf("%s(%s, %s.%s)", u.Kind, u.Alias, u.Alias, u.Attr)
}

func resolveAll(rs *RowSchema, kids []Expr) error {
	for _, k := range kids {
		if err := k.Resolve(rs); err != nil {
			return err
		}
	}
	return nil
}

func cloneAll(kids []Expr) []Expr {
	out := make([]Expr, len(kids))
	for i, k := range kids {
		out[i] = k.Clone()
	}
	return out
}

func walkAll(fn func(Expr), kids []Expr) {
	for _, k := range kids {
		k.Walk(fn)
	}
}

func joinKids(kids []Expr, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return strings.Join(parts, sep)
}
