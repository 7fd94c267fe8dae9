package bench

import (
	"fmt"
	"math/rand"
	"time"

	"enrichdb/internal/catalog"
	"enrichdb/internal/enrich"
	"enrichdb/internal/ml"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// IngestionRate reproduces the paper's introduction claim that enriching at
// arrival limits ingestion (they report "10s of events per second" with
// heavyweight models): it measures sustainable insert throughput with lazy
// (no enrichment) vs eager (full family at insert) ingestion, for several
// per-object model costs. Expected shape: lazy throughput is flat and high;
// eager throughput collapses proportionally to function cost. Each cell is
// the best of ingestRuns runs, lazy and eager interleaved, so a scheduler
// stall on a busy machine (other processes, parallel test packages) costs
// one run, not the cell.
func IngestionRate(events int, costs []time.Duration) (*Table, error) {
	const ingestRuns = 5
	t := &Table{
		Title:  "Ingestion rate — lazy (query-time enrichment) vs eager (enrich at arrival)",
		Header: []string{"model cost/object", "lazy events/s", "eager events/s", "slowdown"},
	}
	for _, cost := range costs {
		var lazy, eager float64
		for range ingestRuns {
			l, err := measureIngest(events, cost, false)
			if err != nil {
				return nil, err
			}
			e, err := measureIngest(events, cost, true)
			if err != nil {
				return nil, err
			}
			lazy, eager = max(lazy, l), max(eager, e)
		}
		slowdown := 0.0
		if eager > 0 {
			slowdown = lazy / eager
		}
		t.Rows = append(t.Rows, []string{
			cost.String(),
			fmt.Sprintf("%.0f", lazy),
			fmt.Sprintf("%.0f", eager),
			fmt.Sprintf("%.0fx", slowdown),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: eager ingestion throughput collapses with model cost; lazy ingestion is model-cost-independent")
	return t, nil
}

// measureIngest builds a fresh single-relation store and times inserting
// `events` tuples, optionally enriching each with a model of the given cost.
func measureIngest(events int, cost time.Duration, eager bool) (float64, error) {
	db := storage.NewDB()
	schema := catalog.MustSchema("Events", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "feat", Kind: types.KindVector},
		{Name: "label", Kind: types.KindInt, Derived: true, FeatureCol: "feat", Domain: 2},
	})
	tbl, err := db.CreateTable(schema)
	if err != nil {
		return 0, err
	}

	mgr := enrich.NewManager()
	model := ml.NewGNB()
	if err := model.Fit([][]float64{{-1}, {1}, {-2}, {2}}, []int{0, 1, 0, 1}, 2); err != nil {
		return 0, err
	}
	fam, err := enrich.NewFamily("Events", "label", 2, nil, &enrich.Function{
		Name: "gnb", Model: model, Quality: 1, ExtraCost: cost,
	})
	if err != nil {
		return 0, err
	}
	if err := mgr.Register(fam); err != nil {
		return 0, err
	}

	r := rand.New(rand.NewSource(3))
	features := make([][]float64, events)
	for i := range features {
		features[i] = []float64{r.NormFloat64()}
	}

	start := time.Now()
	for i := 0; i < events; i++ {
		tid := int64(i + 1)
		if _, err := tbl.Insert(&types.Tuple{ID: tid, Vals: []types.Value{
			types.NewInt(tid), types.NewVector(features[i]), types.Null,
		}}); err != nil {
			return 0, err
		}
		if eager {
			if _, _, err := mgr.Execute("Events", tid, "label", 0, features[i], 0); err != nil {
				return 0, err
			}
			if err := mgr.WriteBack(tbl, []enrich.WriteBackSlot{{Tuple: tbl.Get(tid), Attr: "label"}}); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(events) / elapsed.Seconds(), nil
}
