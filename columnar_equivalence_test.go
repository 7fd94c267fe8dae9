package enrichdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"enrichdb/internal/engine"
	"enrichdb/internal/loose"
	"enrichdb/internal/storage"
)

// The columnar result path (Project.vecExecute's gather, the shard merge of
// columns, Rows' row view) against the row path it replaced: every answer
// must carry the same values and TIDs in the same order as the same query
// executed row at a time (engine.ExecCtx.NoVector) over the merged store.

const colRows = 2600 // three chunks unsharded

// colRelation creates and fills T: NULLs in a, b, s and f, a VECTOR column
// v (no kernel vector, so projecting it must fall back to rows), the INT
// column m NULL in row 1500, where a STRING is refused, and every 23rd row
// deleted.
func colRelation(t *testing.T, db *DB) {
	t.Helper()
	err := db.CreateRelation("T", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "a", Kind: KindInt},
		{Name: "b", Kind: KindInt},
		{Name: "s", Kind: KindString},
		{Name: "f", Kind: KindString},
		{Name: "v", Kind: KindVector},
		{Name: "m", Kind: KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	nullIf := func(null bool, v Value) Value {
		if null {
			return Null
		}
		return v
	}
	for i := int64(1); i <= colRows; i++ {
		m := Int(i % 29)
		if i == 1500 {
			if _, err := db.Insert("T", i, Int(i), Null, Null, Null, Null, Null, String("m")); err == nil {
				t.Fatal("a STRING in the INT column m was stored")
			}
			m = Null
		}
		_, err := db.Insert("T", i,
			Int(i),
			nullIf(i%11 == 0, Int(i%37)),
			nullIf(i%13 == 0, Int(i%53)),
			nullIf(i%17 == 0, String(fmt.Sprintf("s%d", i%5))),
			nullIf(i%19 == 0, String(fmt.Sprintf("f%d", i%3))),
			Vector([]float64{float64(i)}),
			m)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(23); i <= colRows; i += 23 {
		if err := db.Delete("T", i); err != nil {
			t.Fatal(err)
		}
	}
}

// randomColQuery draws a projection of one to three columns and a
// conjunction of one to three conjuncts: kernel comparisons, NULL tests and
// an OR the kernels cannot compile.
func randomColQuery(rng *rand.Rand) string {
	cols := []string{"id", "a", "b", "s", "f", "v", "m"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	conj := []func() string{
		func() string { return fmt.Sprintf("a < %d", rng.Intn(40)) },
		func() string { return fmt.Sprintf("a >= %d", rng.Intn(40)) },
		func() string { k := rng.Intn(30); return fmt.Sprintf("a BETWEEN %d AND %d", k, k+rng.Intn(15)) },
		func() string { return fmt.Sprintf("b > %d", rng.Intn(53)) },
		func() string { return fmt.Sprintf("b <= %d", rng.Intn(53)) },
		func() string { return fmt.Sprintf("s = 's%d'", rng.Intn(5)) },
		func() string { return fmt.Sprintf("s <> 's%d'", rng.Intn(5)) },
		func() string { return "a IS NULL" },
		func() string { return "s IS NOT NULL" },
		func() string { return "f IS NULL" },
		func() string { return fmt.Sprintf("id > %d", rng.Intn(colRows)) },
		func() string { return "m IS NOT NULL" },
		func() string { return fmt.Sprintf("(a < %d OR s = 's%d')", rng.Intn(40), rng.Intn(5)) },
	}
	preds := make([]string, 1+rng.Intn(3))
	for i := range preds {
		preds[i] = conj[rng.Intn(len(conj))]()
	}
	return fmt.Sprintf("SELECT %s FROM T WHERE %s",
		strings.Join(cols[:1+rng.Intn(3)], ", "), strings.Join(preds, " AND "))
}

// renderWithTIDs is renderExact plus each row's TIDs.
func renderWithTIDs(r *Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns(), ","))
	b.WriteByte('\n')
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.At(i) {
			b.WriteString(v.String())
			b.WriteByte(',')
		}
		fmt.Fprintln(&b, r.TIDs(i))
	}
	return b.String()
}

// rowPathAnswer runs q row at a time over the database's merged store.
func rowPathAnswer(t *testing.T, db *DB, q string) string {
	t.Helper()
	st, err := db.parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Build(st.a, db.store)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.NewExecCtx()
	ctx.NoVector = true
	rows, err := plan.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return renderWithTIDs(wrapRows(plan.Schema(), rows))
}

func openColDB(t *testing.T, shards int) *DB {
	t.Helper()
	db := Open()
	if shards > 0 {
		var err error
		if db, err = OpenSharded(ShardConfig{Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { db.Close() })
	colRelation(t, db)
	return db
}

// TestColumnarEquivalence compares seeded random projections and predicates
// on the unsharded store and on 1 and 4 shards, through DB and Session,
// with the row path; it also requires that both the columnar answer and
// the row fallback were taken, and that a VECTOR projection never answers
// in columns. It then does the same for loose and tight answers over a
// partly enriched relation (checkEnrichedDesigns).
func TestColumnarEquivalence(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openColDB(t, shards)
			sess, err := db.Session()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			columnar, fallback := 0, 0
			for i := 0; i < 120; i++ {
				q := randomColQuery(rng)
				want := rowPathAnswer(t, db, q)
				sessQuery := func(q string) (*Rows, error) { return sessionRows(sess, q) }
				for via, query := range map[string]func(string) (*Rows, error){"DB": db.Query, "Session": sessQuery} {
					r, err := query(q)
					if err != nil {
						t.Fatalf("%s %s: %v", via, q, err)
					}
					if got := renderWithTIDs(r); got != want {
						t.Fatalf("%s %s:\ngot  %.400s\nwant %.400s", via, q, got, want)
					}
					_, ok := r.Vec(0)
					if ok && strings.Contains(strings.SplitN(q, " FROM", 2)[0], " v") {
						t.Fatalf("%s %s: a VECTOR projection answered in columns", via, q)
					}
					if ok {
						columnar++
					} else {
						fallback++
					}
				}
			}
			if columnar == 0 || fallback == 0 {
				t.Fatalf("columnar answers %d, row fallbacks %d: both paths must run", columnar, fallback)
			}
			checkEnrichedDesigns(t, db, shards)
			checkLiveWrites(t, db)
		})
	}
}

// checkLiveWrites queries E through DB, which scans the live table's sealed
// chunks, with an Update and a Delete landing in E's first, fully marked
// chunk and an Insert in its last, each between two scans of the chunk.
// The Update moves a fixed cell across the query's bound and clears the
// tuple's derived values and marks (CommitFixed), so a chunk that kept its
// old vectors or marks' AND would answer from them. Before each loose query
// its vector probes must select what the row path's select, and every
// answer must be the row path's over the store the query left.
func checkLiveWrites(t *testing.T, db *DB) {
	t.Helper()
	const q = "SELECT id, a, d FROM E WHERE id <= 1100 AND a < 20 AND d >= 0"
	check := func(step string) {
		t.Helper()
		for _, design := range []Design{PlainDesign, LooseDesign, TightDesign, PlainDesign} {
			if design == LooseDesign {
				if got, want := probeTIDs(t, db, db.store, q, false), probeTIDs(t, db, db.store, q, true); got != want {
					t.Fatalf("%s: probes\ngot  %.400s\nwant %.400s", step, got, want)
				}
			}
			res, err := db.Run(context.Background(), design, q, QueryObs{})
			if err != nil {
				t.Fatalf("%s, %v: %v", step, design, err)
			}
			if got, want := renderWithTIDs(res.Rows), rowPathAnswer(t, db, q); got != want {
				t.Fatalf("%s, %v:\ngot  %.400s\nwant %.400s", step, design, got, want)
			}
		}
	}
	check("before the writes")
	if err := db.Update("E", 80, "a", Int(30)); err != nil {
		t.Fatal(err)
	}
	check("after an Update")
	if err := db.Delete("E", 101); err != nil {
		t.Fatal(err)
	}
	check("after a Delete")
	if _, err := db.Insert("E", colRows+1, Int(colRows+1), Int(3), Null, Vector([]float64{1, 1}), Null, Null); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("E", colRows+1, "id", Int(50)); err != nil {
		t.Fatal(err)
	}
	check("after an Insert")
}

// enrichedColRelation creates and fills E over three chunks: NULLs in a and
// s, a feature vector v and two derived columns d and e, each enriched by a
// deterministic function; every 23rd row is deleted. It then enriches part
// of the table through the loose design: both columns of ids up to 1100 (the
// first chunk fully marked whatever the deletes shifted) and d of ids 1500
// to 1700 (a mixed chunk), and deletes id 60 in the marked chunk; the rest
// stays fresh.
func enrichedColRelation(t *testing.T, db *DB) {
	t.Helper()
	err := db.CreateRelation("E", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "a", Kind: KindInt},
		{Name: "s", Kind: KindString},
		{Name: "v", Kind: KindVector},
		{Name: "d", Kind: KindInt, Derived: true, FeatureCol: "v", Domain: 3},
		{Name: "e", Kind: KindInt, Derived: true, FeatureCol: "v", Domain: 2},
	})
	if err == nil {
		err = db.RegisterEnrichment("E", "d", Function{Model: stepModel{classes: 3}, Quality: 0.9})
	}
	if err == nil {
		err = db.RegisterEnrichment("E", "e", Function{Model: stepModel{classes: 2}, Quality: 0.9})
	}
	for i := int64(1); err == nil && i <= colRows; i++ {
		a := Int(i % 37)
		if i%11 == 0 {
			a = Null
		}
		s := String(fmt.Sprintf("s%d", i%5))
		if i%17 == 0 {
			s = Null
		}
		_, err = db.Insert("E", i, Int(i), a, s, Vector([]float64{float64(i), float64(i % 7)}), Null, Null)
	}
	for i := int64(23); err == nil && i <= colRows; i += 23 {
		err = db.Delete("E", i)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT id FROM E WHERE id <= 1100 AND d >= 0 AND e >= 0",
		"SELECT id FROM E WHERE id BETWEEN 1500 AND 1700 AND d = 1",
	} {
		if _, err := db.QueryLoose(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete("E", 60); err != nil {
		t.Fatal(err)
	}
}

// randomEnrichedQuery draws a projection of one to three columns of E and a
// conjunction of an id window of at most 400 rows, one or two derived
// conjuncts and up to one more fixed one, in random order: each query
// enriches a little, so the store stays partly enriched across the run.
func randomEnrichedQuery(rng *rand.Rand) string {
	cols := []string{"id", "a", "s", "d", "e", "v"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	derived := []func() string{
		func() string { return fmt.Sprintf("d = %d", rng.Intn(3)) },
		func() string { return fmt.Sprintf("d <> %d", rng.Intn(3)) },
		func() string { return fmt.Sprintf("d <= %d", rng.Intn(3)) },
		func() string { return fmt.Sprintf("e = %d", rng.Intn(2)) },
	}
	fixed := []func() string{
		func() string { return fmt.Sprintf("a < %d", rng.Intn(40)) },
		func() string { return fmt.Sprintf("a >= %d", rng.Intn(40)) },
		func() string { return fmt.Sprintf("s = 's%d'", rng.Intn(5)) },
		func() string { return fmt.Sprintf("id > %d", rng.Intn(colRows)) },
		func() string { return "a IS NOT NULL" },
	}
	lo := 1 + rng.Intn(colRows)
	preds := []string{fmt.Sprintf("id BETWEEN %d AND %d", lo, lo+rng.Intn(400))}
	for range 1 + rng.Intn(2) {
		preds = append(preds, derived[rng.Intn(len(derived))]())
	}
	for range rng.Intn(2) {
		preds = append(preds, fixed[rng.Intn(len(fixed))]())
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	return fmt.Sprintf("SELECT %s FROM E WHERE %s",
		strings.Join(cols[:1+rng.Intn(3)], ", "), strings.Join(preds, " AND "))
}

// probeTIDs runs q's loose probes over src with the vector path on or off
// and renders the tuples each probe selected.
func probeTIDs(t *testing.T, db *DB, src storage.Source, q string, noVector bool) string {
	t.Helper()
	st, err := db.parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := engine.NewExecCtx()
	ctx.NoVector = noVector
	probes, err := loose.GenerateProbes(st.a, src, db.mgr, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(probes)
}

// checkEnrichedDesigns runs seeded random queries over the partly enriched
// E under the loose and tight designs, through DB and through a session
// opened on the partly enriched store, whose chunks keep column vectors and
// their marks' AND. Before each loose query its probes must select what the
// row path's probes select over the same source, and every answer must be
// the row path's over the store the query left. Each query's write-back
// lands between two scans of the chunks it touched, so the next query's
// mark tests read a recomputed AND. Both columnar answers and row fallbacks
// must occur.
func checkEnrichedDesigns(t *testing.T, db *DB, shards int) {
	t.Helper()
	enrichedColRelation(t, db)
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(int64(31 + shards)))
	columnar, fallback := 0, 0
	for i := 0; i < 80; i++ {
		q := randomEnrichedQuery(rng)
		design := []Design{LooseDesign, TightDesign}[i%2]
		vias := []struct {
			name string
			src  storage.Source
			run  runFunc
		}{{"DB", db.store, db.Run}, {"Session", sess.snap, sess.Run}}
		if i/2%2 == 1 {
			vias[0], vias[1] = vias[1], vias[0] // the session enriches first
		}
		for _, via := range vias {
			if design == LooseDesign {
				if got, want := probeTIDs(t, db, via.src, q, false), probeTIDs(t, db, via.src, q, true); got != want {
					t.Fatalf("%s %s: probes\ngot  %.400s\nwant %.400s", via.name, q, got, want)
				}
			}
			res, err := via.run(context.Background(), design, q, QueryObs{})
			if err != nil {
				t.Fatalf("%s %v %s: %v", via.name, design, q, err)
			}
			if got, want := renderWithTIDs(res.Rows), rowPathAnswer(t, db, q); got != want {
				t.Fatalf("%s %v %s:\ngot  %.400s\nwant %.400s", via.name, design, q, got, want)
			}
			if _, ok := res.Rows.Vec(0); ok {
				columnar++
			} else {
				fallback++
			}
		}
	}
	if columnar == 0 || fallback == 0 {
		t.Fatalf("loose and tight: columnar answers %d, row fallbacks %d: both paths must run", columnar, fallback)
	}
}

// TestColumnarExplainAnalyze: EXPLAIN ANALYZE runs the columnar branch (the
// fused Project allocates no arena rows) and the scatter keeps its node
// counts: the shards' scanned rows in, the merged answer out.
func TestColumnarExplainAnalyze(t *testing.T) {
	const q = "SELECT id, a FROM T WHERE a < 20 AND s <> 's1'"
	for _, shards := range []int{0, 4} {
		db := openColDB(t, shards)
		plain, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plain.Vec(0); !ok {
			t.Fatalf("shards=%d: %s did not answer in columns", shards, q)
		}
		res, err := db.Run(context.Background(), PlainDesign, "EXPLAIN ANALYZE "+q, QueryObs{})
		if err != nil {
			t.Fatal(err)
		}
		root := res.Profile.Root
		live := int64(colRows - colRows/23)
		switch {
		case shards == 0 && (root.Name != "Project" || root.AllocRows != 0):
			t.Fatalf("unsharded root %s allocated %d arena rows, want a columnar Project", root.Name, root.AllocRows)
		case shards > 0 && root.Name != "ShardScatter":
			t.Fatalf("sharded root is %s, want ShardScatter", root.Name)
		case root.RowsIn != live || root.RowsOut != int64(plain.Len()):
			t.Fatalf("shards=%d: %s rows %d→%d, want %d→%d", shards, root.Name, root.RowsIn, root.RowsOut, live, plain.Len())
		}
	}
}

// TestColumnarLiveScatter runs 4-shard scatters on the live store while a
// writer inserts and deletes: every answer must be in insertion (= id)
// order, satisfy its predicate and answer in columns.
func TestColumnarLiveScatter(t *testing.T) {
	db, err := OpenSharded(ShardConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateRelation("L", []Column{{Name: "id", Kind: KindInt}, {Name: "a", Kind: KindInt}}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4000; i++ {
		if _, err := db.Insert("L", i, Int(i), Int(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 10000 + i
			if _, err := db.Insert("L", id, Int(id), Int(id%10)); err != nil {
				t.Error(err)
				return
			}
			db.Delete("L", 1+(i*7)%4000) // a second delete of one id fails harmlessly
		}
	}()
	for k := 0; k < 40; k++ {
		r, err := db.Query("SELECT id, a FROM L WHERE a < 5")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Vec(0); !ok {
			t.Fatal("live scatter did not answer in columns")
		}
		prev := int64(0)
		for i := 0; i < r.Len(); i++ {
			id, a := r.At(i)[0].Int(), r.At(i)[1].Int()
			if id <= prev || a >= 5 || a != id%10 || r.TIDs(i)[0] != id {
				t.Fatalf("query %d row %d: id %d (prev %d) a %d tid %v", k, i, id, prev, a, r.TIDs(i))
			}
			prev = id
		}
	}
	close(stop)
	wg.Wait()
}
