package bench

import (
	"fmt"

	"enrichdb/internal/dataset"
	"enrichdb/internal/enrich"
	"enrichdb/internal/ml"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// DeterminizerComparison quantifies the determinization function choice the
// paper treats as a black box (§3.1): with the full Table 5 family executed
// on every tuple, how accurate is the fused value under averaging, majority
// vote, and quality-weighted vote, against each function alone. Expected
// shape: ensembles meet or beat the average single function; weighting by
// quality helps when family members differ widely.
func DeterminizerComparison(s Scale) (*Table, error) {
	env, err := NewEnv(s, dataset.PaperFamilySpecs())
	if err != nil {
		return nil, err
	}
	const rel, attr = "TweetData", "sentiment"
	fam := env.Mgr.Family(rel, attr)
	tbl := env.Data.DB.MustTable(rel)
	schema := tbl.Schema()
	fi := schema.ColIndex("feature")

	// Execute the whole family on every tuple once.
	outputs := make(map[int64][][]float64, tbl.Len())
	for _, tu := range storage.Tuples(tbl) {
		x := tu.Vals[fi].Vector()
		outs := make([][]float64, len(fam.Functions))
		for _, fn := range fam.Functions {
			outs[fn.ID] = fn.Model.PredictProba(x)
		}
		outputs[tu.ID] = outs
	}

	accuracyOf := func(det enrich.Determinizer) float64 {
		correct := 0
		for tid, outs := range outputs {
			truth, _ := env.Data.Truth.Label(rel, attr, tid)
			v := det.Determine(outs, fam.Domain)
			if !v.IsNull() && v.Int() == int64(truth) {
				correct++
			}
		}
		return float64(correct) / float64(len(outputs))
	}

	weights := make([]float64, len(fam.Functions))
	for i, fn := range fam.Functions {
		weights[i] = fn.Quality
	}

	t := &Table{
		Title:  "Extension — determinization function comparison (TweetData.sentiment, full family)",
		Header: []string{"determinizer", "accuracy"},
	}
	t.Rows = append(t.Rows,
		[]string{"AvgProb", fmt.Sprintf("%.3f", accuracyOf(enrich.AvgProb{}))},
		[]string{"MajorityVote", fmt.Sprintf("%.3f", accuracyOf(enrich.MajorityVote{}))},
		[]string{"WeightedVote(quality)", fmt.Sprintf("%.3f", accuracyOf(enrich.WeightedVote{Weights: weights}))},
	)
	for _, fn := range fam.Functions {
		id := fn.ID
		solo := soloDet{id: id}
		t.Rows = append(t.Rows, []string{
			"single: " + fn.Name, fmt.Sprintf("%.3f", accuracyOf(solo)),
		})
	}
	t.Notes = append(t.Notes,
		"the paper treats DET() as a black box; ensembles should meet or beat the average single function")
	return t, nil
}

// soloDet determinizes from one function's output only.
type soloDet struct{ id int }

// Determine implements enrich.Determinizer.
func (s soloDet) Determine(outputs [][]float64, domain int) types.Value {
	if s.id >= len(outputs) || outputs[s.id] == nil {
		return types.Null
	}
	return types.NewInt(int64(ml.Argmax(outputs[s.id])))
}
