package engine

import (
	"fmt"
	"strings"
	"time"
)

// This file implements the EXPLAIN ANALYZE operator profiler. The contract
// is zero-alloc-and-off by default: ExecCtx.Prof nil (the default) makes
// every instrumented Execute wrapper take a single pointer-nil branch and
// call straight through — no closures, no deferred work, no detail-string
// formatting (asserted by TestProfilerOffZeroAlloc and the bench guard in
// internal/bench). With a Profiler attached, each plan node records wall
// time, rows in/out (observed selectivity), batches built, row-path
// fallback lanes and arena row allocations into an OpProfile tree.
//
// All per-node figures are inclusive of the node's children — the standard
// EXPLAIN ANALYZE convention; a renderer that wants self-time subtracts the
// children. Rows-in is attributed even on the fused vector/parallel paths
// (where Filter and Project never call their child's Execute): when a node
// exits with no profiled children, rows-in falls back to the Stats
// RowsScanned delta across the node, which every scan-bearing path bumps by
// exactly the snapshot length.

// OpProfile is one operator's runtime profile, a node of the EXPLAIN
// ANALYZE tree.
type OpProfile struct {
	Name   string // operator name, matches Explain (Scan, Filter, HashJoin, ...)
	Detail string // operator argument rendering (predicate, table, keys)

	RowsIn       int64 // rows consumed (observed input cardinality)
	RowsOut      int64 // rows produced
	Batches      int64 // column batches built (vector path), incl. children
	FallbackRows int64 // lanes evaluated row-at-a-time (residual), incl. children
	AllocRows    int64 // arena row allocations, incl. children
	Wall         time.Duration
	Err          string // non-empty when the operator returned an error

	Children []*OpProfile

	start    time.Time
	scanned0 int64
	batches0 int64
	fallbk0  int64
	alloc0   int64
}

// Selectivity is RowsOut/RowsIn — the observed per-operator selectivity the
// adaptive planner consumes. Zero-rows-in operators (an empty input, or a
// fused path whose rows-in fallback found nothing) report 0 rather than a
// 0/0 NaN, and a negative rows-in — a broken counter delta — is treated the
// same way, so no non-finite or out-of-range ratio can leak into profiles
// or the stats store. The result is always a finite value in [0, 1].
func (n *OpProfile) Selectivity() float64 {
	if n.RowsIn <= 0 || n.RowsOut <= 0 {
		return 0
	}
	sel := float64(n.RowsOut) / float64(n.RowsIn)
	if sel > 1 {
		// Rows-in under-attribution (a generator-style operator emitting
		// more than it consumed) is not a selectivity; clamp.
		return 1
	}
	return sel
}

// Profiler collects an OpProfile tree during one plan execution. It is not
// goroutine-safe: the shards of a shard.Scatter run on forked contexts
// without a profiler and account into the parent node's inclusive figures.
type Profiler struct {
	stack []*OpProfile
	roots []*OpProfile
}

// NewProfiler returns an empty profiler; attach it to ExecCtx.Prof.
func NewProfiler() *Profiler { return &Profiler{} }

// Root returns the first top-level operator profile (nil before any node
// finished). Multi-root profiles — drivers that execute several plans under
// one profiler without a Phase wrapper — expose the rest via Roots.
func (p *Profiler) Root() *OpProfile {
	if p == nil || len(p.roots) == 0 {
		return nil
	}
	return p.roots[0]
}

// Roots returns all top-level nodes in completion order.
func (p *Profiler) Roots() []*OpProfile {
	if p == nil {
		return nil
	}
	return p.roots
}

// attach links a new node under the current stack top (or as a root).
func (p *Profiler) attach(n *OpProfile) {
	if len(p.stack) > 0 {
		top := p.stack[len(p.stack)-1]
		top.Children = append(top.Children, n)
	} else {
		p.roots = append(p.roots, n)
	}
	p.stack = append(p.stack, n)
}

// pop removes n from the stack (tolerating mismatches from error unwinds).
func (p *Profiler) pop(n *OpProfile) {
	for i := len(p.stack) - 1; i >= 0; i-- {
		if p.stack[i] == n {
			p.stack = p.stack[:i]
			return
		}
	}
}

// Phase opens a driver-level pseudo-operator (LooseProbe, TightQuery,
// epoch phases): plan nodes executed before the matching End nest under it.
// Nil-safe — a nil profiler returns a nil node and End ignores it.
func (p *Profiler) Phase(name, detail string) *OpProfile {
	if p == nil {
		return nil
	}
	n := &OpProfile{Name: name, Detail: detail, start: time.Now()}
	p.attach(n)
	return n
}

// End closes a Phase node, recording wall time and explicit cardinalities
// (pass 0 to leave rows-in to the children-sum rule).
func (p *Profiler) End(n *OpProfile, rowsIn, rowsOut int64) {
	if p == nil || n == nil {
		return
	}
	n.Wall = time.Since(n.start)
	if rowsIn != 0 {
		n.RowsIn = rowsIn
	}
	n.RowsOut = rowsOut
	if n.RowsIn == 0 {
		for _, c := range n.Children {
			n.RowsIn += c.RowsOut
		}
	}
	p.pop(n)
}

// profEnter opens an operator node. Callers must have checked ctx.Prof !=
// nil first — the wrapper pattern keeps the disabled path free of both the
// call and the detail-string construction.
func (ctx *ExecCtx) profEnter(name, detail string) *OpProfile {
	n := &OpProfile{Name: name, Detail: detail, start: time.Now()}
	if ctx.Stats != nil {
		n.scanned0 = ctx.Stats.RowsScanned
		n.batches0 = ctx.Stats.BatchesBuilt
		n.fallbk0 = ctx.Stats.BatchFallbackRows
	}
	if ctx.Arena != nil {
		rows, _ := ctx.Arena.Counters()
		n.alloc0 = rows
	}
	ctx.Prof.attach(n)
	return n
}

// profExit closes an operator node. Rows-in resolution order: explicit
// (leaf wrappers set it), then sum of profiled children's rows-out, then
// the RowsScanned delta (fused scan paths that bypassed child Execute).
func (ctx *ExecCtx) profExit(n *OpProfile, rowsOut int, err error) {
	n.Wall = time.Since(n.start)
	n.RowsOut = int64(rowsOut)
	if err != nil {
		n.Err = err.Error()
	}
	if ctx.Stats != nil {
		n.Batches = ctx.Stats.BatchesBuilt - n.batches0
		n.FallbackRows = ctx.Stats.BatchFallbackRows - n.fallbk0
	}
	if ctx.Arena != nil {
		rows, _ := ctx.Arena.Counters()
		n.AllocRows = rows - n.alloc0
	}
	if n.RowsIn == 0 {
		if len(n.Children) > 0 {
			for _, c := range n.Children {
				n.RowsIn += c.RowsOut
			}
		} else if ctx.Stats != nil {
			n.RowsIn = ctx.Stats.RowsScanned - n.scanned0
		}
	}
	ctx.Prof.pop(n)
}

// FormatProfile renders an OpProfile tree, one operator per line, indented
// by depth — the EXPLAIN ANALYZE output. Cardinalities are exact and
// deterministic; wall times are whatever the run measured.
func FormatProfile(root *OpProfile) string {
	var b strings.Builder
	formatProfileNode(&b, root, "")
	return b.String()
}

func formatProfileNode(b *strings.Builder, n *OpProfile, indent string) {
	if n == nil {
		return
	}
	b.WriteString(indent)
	b.WriteString(n.Name)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	fmt.Fprintf(b, "  (in=%d out=%d", n.RowsIn, n.RowsOut)
	if n.RowsIn > 0 {
		fmt.Fprintf(b, " sel=%.1f%%", 100*n.Selectivity())
	}
	fmt.Fprintf(b, ") wall=%s", n.Wall.Round(time.Microsecond))
	if n.Batches > 0 {
		fmt.Fprintf(b, " batches=%d", n.Batches)
	}
	if n.FallbackRows > 0 {
		fmt.Fprintf(b, " fallback_rows=%d", n.FallbackRows)
	}
	if n.AllocRows > 0 {
		fmt.Fprintf(b, " alloc_rows=%d", n.AllocRows)
	}
	if n.Err != "" {
		fmt.Fprintf(b, " error=%q", n.Err)
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		formatProfileNode(b, c, indent+"  ")
	}
}
