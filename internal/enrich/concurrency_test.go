package enrich

import (
	"sync"
	"testing"
)

// TestConcurrentExecute hammers the manager from many goroutines over
// overlapping (tuple, attr, function) triplets: the bitmap must guarantee
// each triplet executes exactly once, and counters must balance.
func TestConcurrentExecute(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.3, 0.7}, []float64{0.6, 0.4})
	if err := m.Register(fam); err != nil {
		t.Fatal(err)
	}

	const (
		tuples  = 50
		workers = 8
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	executed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for tid := int64(1); tid <= tuples; tid++ {
				for fn := 0; fn < 2; fn++ {
					_, ran, err := m.Execute("R", tid, "d", fn, []float64{float64(tid)}, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if ran {
						mu.Lock()
						executed++
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	c := m.Counters()
	if c.Enrichments != tuples*2 {
		t.Errorf("enrichments = %d want %d", c.Enrichments, tuples*2)
	}
	if int64(executed) != c.Enrichments {
		t.Errorf("ran-true count %d != enrichments %d", executed, c.Enrichments)
	}
	if c.Skipped != int64(workers*tuples*2)-c.Enrichments {
		t.Errorf("skipped = %d want %d", c.Skipped, int64(workers*tuples*2)-c.Enrichments)
	}
	for tid := int64(1); tid <= tuples; tid++ {
		if !m.FullyEnriched("R", tid, "d", 0) {
			t.Fatalf("tuple %d not fully enriched", tid)
		}
	}
}

// TestConcurrentDetermine runs concurrent determinizations alongside
// executions; no races, and final values must be consistent.
func TestConcurrentDetermine(t *testing.T) {
	m := NewManager()
	fam := testFamily(t, AvgProb{}, []float64{0.2, 0.8})
	if err := m.Register(fam); err != nil {
		t.Fatal(err)
	}
	tbl := testRelation(t, 2, 30)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tid := int64(1); tid <= 30; tid++ {
				tu := tbl.Get(tid)
				if _, _, err := m.Execute("R", tid, "d", 0, tu.Vals[1].Vector(), 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.WriteBack(tbl, tu, "d"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	bit := tbl.Schema().MarkBit("d")
	for tid := int64(1); tid <= 30; tid++ {
		if v := m.Value("R", tid, "d", 0); v.IsNull() || v.Int() != 1 {
			t.Fatalf("tuple %d value = %v", tid, v)
		}
		if tu := tbl.Get(tid); tu.Vals[2].Int() != 1 || tu.Enriched&bit == 0 {
			t.Fatalf("tuple %d image = %v, mark %b", tid, tu.Vals[2], tu.Enriched)
		}
	}
}
