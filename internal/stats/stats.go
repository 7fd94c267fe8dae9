// Package stats is the adaptive optimizer's runtime statistics store: an
// EWMA-decayed accumulator of per-predicate selectivities, per-enrichment-
// function costs and answer impacts, and per-operator cardinalities. The
// engine (one pass rate per filter execution, join cardinalities) and the
// progressive executor feed it online from observed execution; cost-based
// join ordering, the progressive Adaptive strategy and the plan-only EXPLAIN
// annotator read estimates back out. Exponential decay (alpha-weighted)
// keeps the estimates tracking drifting data instead of averaging over the
// whole history.
//
// The store is safe for concurrent use; every observation is guarded
// against NaN/Inf and nonsensical counts, so a pathological measurement
// (zero-rows-in operators, clock anomalies) can never poison an estimate.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// DefaultAlpha is the EWMA weight of a new observation. 0.3 follows new
// evidence quickly (a selectivity drift is fully absorbed within a handful
// of batches) while still smoothing single-batch noise.
const DefaultAlpha = 0.3

// ewma is a decayed scalar; the zero value is "no observation yet".
type ewma struct {
	v   float64
	set bool
}

func (e *ewma) observe(alpha, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if !e.set {
		e.v, e.set = x, true
		return
	}
	e.v += alpha * (x - e.v)
}

// FnKey identifies one enrichment function within a family.
type FnKey struct {
	Relation string
	Attr     string
	FnID     int
}

type predStat struct {
	sel   ewma // passes / evals
	evals int64
}

type fnStat struct {
	costNs ewma // per-run cost
	impact ewma // answer deltas per executed function
	runs   int64
}

type opStat struct {
	rowsIn  ewma
	rowsOut ewma
	obs     int64
}

// Store accumulates runtime statistics. The zero value is not usable; call
// NewStore.
type Store struct {
	mu    sync.Mutex
	preds map[string]*predStat
	fns   map[FnKey]*fnStat
	ops   map[string]*opStat
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		preds: make(map[string]*predStat),
		fns:   make(map[FnKey]*fnStat),
		ops:   make(map[string]*opStat),
	}
}

// ObservePredicate folds one execution of a predicate in: evals rows
// evaluated, passes of them satisfied it. Executions with no evaluations are
// ignored (a zero-rows-in operator observes nothing rather than a 0/0
// selectivity), and passes is clamped into [0, evals].
func (s *Store) ObservePredicate(key string, evals, passes int64) {
	if s == nil || evals <= 0 {
		return
	}
	if passes < 0 {
		passes = 0
	}
	if passes > evals {
		passes = evals
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.preds[key]
	if st == nil {
		st = &predStat{}
		s.preds[key] = st
	}
	st.evals += evals
	st.sel.observe(DefaultAlpha, float64(passes)/float64(evals))
}

// PredicateSelectivity returns the decayed pass rate of a predicate.
func (s *Store) PredicateSelectivity(key string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.preds[key]; st != nil && st.sel.set {
		return st.sel.v, true
	}
	return 0, false
}

// ObserveFnCost folds in runs executions of a function at avgNs each.
func (s *Store) ObserveFnCost(rel, attr string, fn int, avgNs float64, runs int64) {
	if s == nil || runs <= 0 || avgNs < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.fnStat(rel, attr, fn)
	st.runs += runs
	st.costNs.observe(DefaultAlpha, avgNs)
}

// ObserveFnImpact folds in one epoch's answer impact of a function: answer
// rows changed per execution attributed to it. Negative impacts are clamped
// to zero.
func (s *Store) ObserveFnImpact(rel, attr string, fn int, impact float64) {
	if s == nil || math.IsNaN(impact) || math.IsInf(impact, 0) {
		return
	}
	if impact < 0 {
		impact = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fnStat(rel, attr, fn).impact.observe(DefaultAlpha, impact)
}

func (s *Store) fnStat(rel, attr string, fn int) *fnStat {
	k := FnKey{rel, attr, fn}
	st := s.fns[k]
	if st == nil {
		st = &fnStat{}
		s.fns[k] = st
	}
	return st
}

// FnCostNs returns the decayed per-run cost of a function.
func (s *Store) FnCostNs(rel, attr string, fn int) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.fns[FnKey{rel, attr, fn}]; st != nil && st.costNs.set {
		return st.costNs.v, true
	}
	return 0, false
}

// FnImpact returns the decayed answer impact of a function.
func (s *Store) FnImpact(rel, attr string, fn int) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.fns[FnKey{rel, attr, fn}]; st != nil && st.impact.set {
		return st.impact.v, true
	}
	return 0, false
}

// ObserveOp folds in one operator execution's observed cardinalities.
// Negative counts are dropped (they indicate an accounting bug upstream,
// never a real cardinality).
func (s *Store) ObserveOp(key string, rowsIn, rowsOut int64) {
	if s == nil || rowsIn < 0 || rowsOut < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ops[key]
	if st == nil {
		st = &opStat{}
		s.ops[key] = st
	}
	st.obs++
	st.rowsIn.observe(DefaultAlpha, float64(rowsIn))
	st.rowsOut.observe(DefaultAlpha, float64(rowsOut))
}

// OpCardinality returns the decayed observed in/out cardinalities of an
// operator.
func (s *Store) OpCardinality(key string) (in, out float64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.ops[key]; st != nil && st.rowsOut.set {
		return st.rowsIn.v, st.rowsOut.v, true
	}
	return 0, 0, false
}

// String renders the store deterministically (sorted keys) for debugging
// and tests.
func (s *Store) String() string {
	if s == nil {
		return "stats: nil"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sb strings.Builder
	pkeys := make([]string, 0, len(s.preds))
	for k := range s.preds {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	for _, k := range pkeys {
		st := s.preds[k]
		fmt.Fprintf(&sb, "pred %q sel=%.3f evals=%d\n", k, st.sel.v, st.evals)
	}
	fkeys := make([]FnKey, 0, len(s.fns))
	for k := range s.fns {
		fkeys = append(fkeys, k)
	}
	sort.Slice(fkeys, func(i, j int) bool {
		a, b := fkeys[i], fkeys[j]
		if a.Relation != b.Relation {
			return a.Relation < b.Relation
		}
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		return a.FnID < b.FnID
	})
	for _, k := range fkeys {
		st := s.fns[k]
		fmt.Fprintf(&sb, "fn %s.%s/%d cost=%.0fns impact=%.3f runs=%d\n",
			k.Relation, k.Attr, k.FnID, st.costNs.v, st.impact.v, st.runs)
	}
	okeys := make([]string, 0, len(s.ops))
	for k := range s.ops {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)
	for _, k := range okeys {
		st := s.ops[k]
		fmt.Fprintf(&sb, "op %q in=%.0f out=%.0f obs=%d\n", k, st.rowsIn.v, st.rowsOut.v, st.obs)
	}
	return sb.String()
}
