package storage

import (
	"math/rand"
	"testing"

	"enrichdb/internal/catalog"
	"enrichdb/internal/types"
)

// TestTableModelProperty runs random operation sequences against the table
// and a simple map-based oracle, checking that contents, scan order, length
// and index lookups always agree.
func TestTableModelProperty(t *testing.T) {
	schema := catalog.MustSchema("R", []catalog.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
	})

	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		tbl := NewTable(schema)

		type mrow struct {
			id, a int64
		}
		model := make(map[int64]int64) // id -> a
		var order []int64

		for step := 0; step < 300; step++ {
			switch r.Intn(5) {
			case 0: // insert
				id := int64(r.Intn(100) + 1)
				a := int64(r.Intn(10))
				_, err := tbl.Insert(&types.Tuple{ID: id, Vals: []types.Value{
					types.NewInt(id), types.NewInt(a),
				}})
				if _, exists := model[id]; exists {
					if err == nil {
						t.Fatalf("trial %d step %d: duplicate insert succeeded", trial, step)
					}
				} else if err != nil {
					t.Fatalf("trial %d step %d: insert failed: %v", trial, step, err)
				} else {
					model[id] = a
					order = append(order, id)
				}
			case 1: // update
				id := int64(r.Intn(100) + 1)
				a := int64(r.Intn(10))
				_, err := tbl.CommitFixed(id, "a", types.NewInt(a))
				if _, exists := model[id]; exists {
					if err != nil {
						t.Fatalf("trial %d step %d: update failed: %v", trial, step, err)
					}
					model[id] = a
				} else if err == nil {
					t.Fatalf("trial %d step %d: update of missing tuple succeeded", trial, step)
				}
			case 2: // delete
				id := int64(r.Intn(100) + 1)
				got := tbl.Delete(id)
				if _, exists := model[id]; exists {
					if got == nil {
						t.Fatalf("trial %d step %d: delete of existing tuple returned nil", trial, step)
					}
					delete(model, id)
					for i, oid := range order {
						if oid == id {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				} else if got != nil {
					t.Fatalf("trial %d step %d: delete of missing tuple returned a tuple", trial, step)
				}
			case 3: // point read: Get agrees with the model
				id := int64(r.Intn(100) + 1)
				tu := tbl.Get(id)
				a, exists := model[id]
				if exists != (tu != nil) {
					t.Fatalf("trial %d step %d: Get(%d) = %v, model exists=%v", trial, step, id, tu, exists)
				}
				if tu != nil && tu.Vals[1].Int() != a {
					t.Fatalf("trial %d step %d: Get(%d) a=%d, model %d", trial, step, id, tu.Vals[1].Int(), a)
				}
			case 4: // snapshot order: Tuples must mirror insertion order
				snap := Tuples(tbl)
				if len(snap) != len(order) {
					t.Fatalf("trial %d step %d: snapshot len %d, model %d",
						trial, step, len(snap), len(order))
				}
				for i, id := range order {
					if snap[i].ID != id {
						t.Fatalf("trial %d step %d: snapshot order[%d] = %d, want %d",
							trial, step, i, snap[i].ID, id)
					}
				}
			}

			if tbl.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len %d vs model %d", trial, step, tbl.Len(), len(model))
			}
		}

		// Final full comparison including scan order.
		var scanned []mrow
		for _, tu := range Tuples(tbl) {
			scanned = append(scanned, mrow{tu.ID, tu.Vals[1].Int()})
		}
		if len(scanned) != len(order) {
			t.Fatalf("trial %d: scanned %d, model %d", trial, len(scanned), len(order))
		}
		for i, row := range scanned {
			if row.id != order[i] {
				t.Fatalf("trial %d: scan order[%d] = %d want %d", trial, i, row.id, order[i])
			}
			if row.a != model[row.id] {
				t.Fatalf("trial %d: tuple %d a=%d want %d", trial, row.id, row.a, model[row.id])
			}
		}
	}
}
