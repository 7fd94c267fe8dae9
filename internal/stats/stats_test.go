package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestPredicateEWMA(t *testing.T) {
	s := NewStore()
	if _, ok := s.PredicateSelectivity("p"); ok {
		t.Fatal("empty store reported a selectivity")
	}
	s.ObservePredicate("p", 100, 50)
	sel, ok := s.PredicateSelectivity("p")
	if !ok || sel != 0.5 {
		t.Fatalf("first observation should set the estimate exactly: got %v ok=%v", sel, ok)
	}
	// A drifted batch moves the estimate toward the new rate by alpha.
	s.ObservePredicate("p", 100, 100)
	sel, _ = s.PredicateSelectivity("p")
	want := 0.5 + DefaultAlpha*(1.0-0.5)
	if math.Abs(sel-want) > 1e-12 {
		t.Fatalf("EWMA update: got %v want %v", sel, want)
	}
	if got := s.preds["p"].evals; got != 200 {
		t.Fatalf("evals: got %d want 200", got)
	}
}

func TestGuards(t *testing.T) {
	s := NewStore()
	// Zero-rows-in batches must not create a 0/0 estimate.
	s.ObservePredicate("p", 0, 0)
	if _, ok := s.PredicateSelectivity("p"); ok {
		t.Fatal("zero-eval batch created an estimate")
	}
	// NaN/Inf impacts are dropped, not folded in.
	s.ObserveFnImpact("r", "a", 0, math.Inf(1))
	if _, ok := s.FnImpact("r", "a", 0); ok {
		t.Fatal("Inf impact leaked into the store")
	}
	// Out-of-range passes are clamped, never a selectivity > 1 or < 0.
	s.ObservePredicate("q", 10, 20)
	if sel, _ := s.PredicateSelectivity("q"); sel != 1 {
		t.Fatalf("passes clamp: got %v", sel)
	}
	s.ObservePredicate("q2", 10, -5)
	if sel, _ := s.PredicateSelectivity("q2"); sel != 0 {
		t.Fatalf("negative passes clamp: got %v", sel)
	}
	// Negative cardinalities are accounting bugs; dropped.
	s.ObserveOp("op", -1, 5)
	if _, _, ok := s.OpCardinality("op"); ok {
		t.Fatal("negative rows-in leaked into the store")
	}
	// Nil store: every method is a no-op.
	var nilStore *Store
	nilStore.ObservePredicate("p", 1, 1)
	if _, ok := nilStore.PredicateSelectivity("p"); ok {
		t.Fatal("nil store returned an estimate")
	}
}

func TestFnAndOpStats(t *testing.T) {
	s := NewStore()
	s.ObserveFnCost("tweets", "topic", 1, 5000, 10)
	if c, ok := s.FnCostNs("tweets", "topic", 1); !ok || c != 5000 {
		t.Fatalf("fn cost: got %v ok=%v", c, ok)
	}
	s.ObserveFnImpact("tweets", "topic", 1, -3) // clamped to 0
	if imp, ok := s.FnImpact("tweets", "topic", 1); !ok || imp != 0 {
		t.Fatalf("impact clamp: got %v ok=%v", imp, ok)
	}
	s.ObserveOp("join:t.id = i.tid", 100, 40)
	in, out, ok := s.OpCardinality("join:t.id = i.tid")
	if !ok || in != 100 || out != 40 {
		t.Fatalf("op cardinality: got %v/%v ok=%v", in, out, ok)
	}
}

func TestConcurrentObservers(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.ObservePredicate("p", 10, int64(i%11))
				s.ObserveFnCost("r", "a", w, float64(i), 1)
				s.ObserveOp("scan", int64(i), int64(i/2))
			}
		}(w)
	}
	wg.Wait()
	if sel, ok := s.PredicateSelectivity("p"); !ok || sel < 0 || sel > 1 {
		t.Fatalf("selectivity out of range after concurrent writes: %v ok=%v", sel, ok)
	}
}

// A full predicate or operator map starts over when a new key arrives: it
// never holds more than MaxKeys keys, and the newest key is always kept.
func TestKeyMapsStayBounded(t *testing.T) {
	s := NewStore()
	for i := 0; i < MaxKeys+10; i++ {
		k := fmt.Sprintf("a = %d", i)
		s.ObservePredicate(k, 10, 5)
		s.ObserveOp("join:"+k, 10, 5)
		if len(s.preds) > MaxKeys || len(s.ops) > MaxKeys {
			t.Fatalf("after %d keys: %d predicates, %d operators, cap %d", i+1, len(s.preds), len(s.ops), MaxKeys)
		}
		if _, ok := s.PredicateSelectivity(k); !ok {
			t.Fatalf("newest predicate %q dropped", k)
		}
		if _, _, ok := s.OpCardinality("join:" + k); !ok {
			t.Fatalf("newest operator %q dropped", k)
		}
	}
	// Observing a known key never clears the map.
	n := len(s.preds)
	s.ObservePredicate(fmt.Sprintf("a = %d", MaxKeys+9), 10, 5)
	if len(s.preds) != n {
		t.Fatalf("re-observing a known key changed the map size %d -> %d", n, len(s.preds))
	}
}
