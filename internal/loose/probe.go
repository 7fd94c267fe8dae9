// Package loose implements the paper's loosely coupled design (§2.1): probe
// queries identify the minimal set of tuples that must be enriched to answer
// a query, the tuples are enriched in batch at an enrichment server (in
// process or over TCP), the enriched values are written back, and the query
// then executes normally in the DBMS.
package loose

import (
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
)

// ProbeResult is the probe-query output for one FROM-clause occurrence: the
// tuples that require enrichment and the derived attributes the query needs.
// These rows populate the PlanSpaceTable (§3.3.1).
type ProbeResult struct {
	Alias    string
	Relation string
	Attrs    []string
	TIDs     []int64
}

// ProbeOptions toggles the three minimality strategies of §2.1, each one a
// part of the probe plan's shape; the ablation benchmarks disable them one
// at a time to quantify each one's contribution. The zero value enables
// everything.
type ProbeOptions struct {
	// NoSelections drops the selection filter (fixed conditions and the
	// derived-condition rewrite): every tuple of the relation becomes a
	// candidate.
	NoSelections bool
	// NoPriorWork puts TRUE in place of the enrichment-mark tests: fully
	// enriched tuples are not filtered out.
	NoPriorWork bool
	// NoSemiJoins drops the semi-join nodes over fixed join conditions
	// (Steps 2–3).
	NoSemiJoins bool
}

// GenerateProbes builds and runs one probe plan (Steps 0–4 of §2.1) for every
// alias of the query that references derived attributes, on the engine and
// over the given source:
//
//	Step 0 happened in engine.Analyze (query tree, CNF, fixed/derived split).
//	Step 1: Scan → Filter by the alias's fixed selection conditions and by
//	        each derived condition C rewritten to C ∨ AnyUnenriched(refs),
//	        which exploits prior enrichment work.
//	Step 2: build the join graph over fixed join conditions only.
//	Step 3: for each target alias, a semi-join node per edge of a spanning
//	        tree rooted at the alias, each child reduced recursively.
//	Step 4: the target's filter also holds AnyUnenriched(attrs), keeping
//	        only tuples with at least one attribute not yet determined by
//	        its complete function family. It is the filter's first
//	        conjunct, ahead of Step 1's fixed conjuncts, so on enriched data
//	        the mark test decides each chunk before any fixed kernel runs.
//	        The probe predicate runs no UDF and the mark test never errors,
//	        so the order changes which rows the probe selects in no case.
//	        It can drop a probe-time error: a fixed conjunct that errors
//	        (an INT column against a STRING literal) is no longer evaluated
//	        on a marked row, as the plain design's short-circuit skips it
//	        (TestProbeTestsMarksFirst).
//
// Prior work is read from the tuple images' enrichment marks
// (types.Tuple.Enriched), in a vector kernel that decides a chunk whose
// lanes all carry the marks from the chunk's marks' AND; mgr is not
// consulted — an unmarked tuple whose functions all ran is probed, and
// BuildRequests marks it without running anything.
func GenerateProbes(a *engine.Analysis, db storage.Source, mgr *enrich.Manager, ctx *engine.ExecCtx) ([]ProbeResult, error) {
	return GenerateProbesOpt(a, db, mgr, ctx, ProbeOptions{})
}

// GenerateProbesOpt is GenerateProbes with strategy toggles.
func GenerateProbesOpt(a *engine.Analysis, db storage.Source, _ *enrich.Manager, ctx *engine.ExecCtx, opts ProbeOptions) ([]ProbeResult, error) {
	if ctx == nil {
		ctx = engine.NewExecCtx()
	}
	pb := probeBuilder{a: a, db: db, opts: opts}
	if !opts.NoSemiJoins {
		pb.graph = buildJoinGraph(a)
	}
	var results []ProbeResult
	for _, tm := range a.Tables {
		attrs := a.DerivedAttrsOf(tm.Alias)
		if len(attrs) == 0 {
			continue
		}
		plan, err := pb.plan(tm, attrs, map[string]bool{tm.Alias: true})
		if err != nil {
			return nil, err
		}
		rows, err := plan.Execute(ctx)
		if err != nil {
			return nil, err
		}
		tids := make([]int64, len(rows))
		for i, r := range rows {
			tids[i] = r.TIDs[0]
		}
		results = append(results, ProbeResult{Alias: tm.Alias, Relation: tm.Relation, Attrs: attrs, TIDs: tids})
	}
	return results, nil
}

// probeBuilder assembles the probe plans of one query.
type probeBuilder struct {
	a     *engine.Analysis
	db    storage.Source
	opts  ProbeOptions
	graph joinGraph
}

// plan builds the probe plan of one alias: Step 1's filtered scan (with Step
// 4's mark test when attrs, the alias's needed attributes, is non-nil), then
// Step 3's semi-join with each not yet visited neighbour's own reduction.
func (pb *probeBuilder) plan(tm engine.TableMeta, attrs []string, visited map[string]bool) (engine.Plan, error) {
	tbl, err := pb.db.Table(tm.Relation)
	if err != nil {
		return nil, err
	}
	var plan engine.Plan = engine.NewScan(tbl, tm.Alias)
	if pred := pb.filter(tm, tbl, attrs); pred != nil {
		if err := pred.Resolve(plan.Schema()); err != nil {
			return nil, err
		}
		plan = engine.NewFilter(plan, pred)
	}
	for _, e := range pb.graph[tm.Alias] {
		if visited[e.other] {
			continue
		}
		visited[e.other] = true
		child, err := pb.plan(*pb.a.Table(e.other), nil, visited)
		if err != nil {
			return nil, err
		}
		if plan, err = engine.NewSemiJoin(plan, child, e.conds); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// filter is the alias's probe predicate, nil when nothing filters: the mark
// test first, then the fixed conjuncts, then the rewritten derived
// conjuncts.
// A derived condition C over attributes A₁..Aₙ passes a tuple when C holds
// on the current values or some Aᵢ is unmarked — the paper's
// (⋁ Aᵢ IS NULL) ∨ C rewrite, generalized to the progressive bitmap test.
func (pb *probeBuilder) filter(tm engine.TableMeta, tbl storage.Relation, attrs []string) expr.Expr {
	var fixed, derived []expr.Expr
	for _, c := range pb.a.Sel[tm.Alias] {
		switch {
		case pb.opts.NoSelections:
		case !c.Derived:
			fixed = append(fixed, c.E.Clone())
		case !pb.opts.NoPriorWork:
			var refs []string
			for _, r := range c.DerivedRefs {
				if r.Alias == tm.Alias {
					refs = append(refs, r.Attr)
				}
			}
			derived = append(derived, expr.NewOr(c.E.Clone(), expr.NewEnriched(tbl, tm.Alias, refs, true)))
		}
	}
	var kids []expr.Expr
	if attrs != nil && !pb.opts.NoPriorWork {
		kids = append(kids, expr.NewEnriched(tbl, tm.Alias, attrs, true))
	}
	if kids = append(append(kids, fixed...), derived...); len(kids) == 0 {
		return nil
	}
	return expr.NewAnd(kids...)
}

// joinGraph is Step 2's structure: an adjacency list of fixed join
// conditions between aliases.
type joinGraph map[string][]graphEdge

type graphEdge struct {
	other string
	conds []expr.Expr // fixed join conjuncts (unresolved clones)
}

// buildJoinGraph collects fixed join conditions between alias pairs; derived
// join conditions are removed as in the paper. Conditions spanning three or
// more aliases cannot drive a pairwise semi-join and are skipped.
func buildJoinGraph(a *engine.Analysis) joinGraph {
	g := make(joinGraph)
	for _, jc := range a.Joins {
		if jc.Derived || len(jc.Aliases) != 2 {
			continue
		}
		x, y := jc.Aliases[0], jc.Aliases[1]
		g.addEdge(x, y, jc.E)
		g.addEdge(y, x, jc.E)
	}
	return g
}

func (g joinGraph) addEdge(from, to string, cond expr.Expr) {
	for i := range g[from] {
		if g[from][i].other == to {
			g[from][i].conds = append(g[from][i].conds, cond)
			return
		}
	}
	g[from] = append(g[from], graphEdge{other: to, conds: []expr.Expr{cond}})
}
