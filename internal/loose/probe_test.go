package loose

import (
	"fmt"
	"testing"

	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

// referenceProbes is GenerateProbesOpt spelled as a plain loop over the
// source's tuples, with prior work read from the manager's state instead of
// the images' enrichment marks: Step 1 per tuple, Step 3 as a nested-loop
// semi-join per spanning-tree edge, Step 4 as "some needed attribute not
// fully enriched at the image's generation, or still NULL".
func referenceProbes(t *testing.T, a *engine.Analysis, src storage.Source, mgr *enrich.Manager, opts ProbeOptions) []ProbeResult {
	t.Helper()
	done := func(rel string, r *expr.Row, attr string) bool {
		tbl, _ := src.Table(rel)
		tu := tbl.Get(r.TIDs[0])
		return mgr.FullyEnriched(rel, tu.ID, attr, tu.Gen) && !tu.Vals[tbl.Schema().ColIndex(attr)].IsNull()
	}
	eval := func(e expr.Expr, rs *expr.RowSchema, r *expr.Row) expr.TV {
		e = e.Clone()
		if err := e.Resolve(rs); err != nil {
			t.Fatal(err)
		}
		tv, err := expr.EvalPred(&expr.EvalCtx{}, e, r)
		if err != nil {
			t.Fatal(err)
		}
		return tv
	}
	var reduce func(alias string, visited map[string]bool) ([]*expr.Row, *expr.RowSchema)
	reduce = func(alias string, visited map[string]bool) ([]*expr.Row, *expr.RowSchema) {
		tm := a.Table(alias)
		tbl, err := src.Table(tm.Relation)
		if err != nil {
			t.Fatal(err)
		}
		rs := expr.SchemaForTable(alias, tm.Schema)
		var rows []*expr.Row
	tuples:
		for _, tu := range storage.Tuples(tbl) {
			r := expr.RowFromTuple(rs, tu)
			for _, c := range a.Sel[alias] {
				if opts.NoSelections || eval(c.E, rs, r) == expr.True {
					continue
				}
				if !c.Derived {
					continue tuples
				}
				pending := opts.NoPriorWork
				for _, ref := range c.DerivedRefs {
					pending = pending || (ref.Alias == alias && !done(tm.Relation, r, ref.Attr))
				}
				if !pending {
					continue tuples
				}
			}
			rows = append(rows, r)
		}
		if opts.NoSemiJoins {
			return rows, rs
		}
		for _, e := range buildJoinGraph(a)[alias] {
			if visited[e.other] {
				continue
			}
			visited[e.other] = true
			right, rrs := reduce(e.other, visited)
			both := expr.Concat(rs, rrs)
			var kept []*expr.Row
			for _, l := range rows {
				for _, r := range right {
					if eval(expr.NewAnd(e.conds...), both, expr.JoinRows(both, l, r)) == expr.True {
						kept = append(kept, l)
						break
					}
				}
			}
			rows = kept
		}
		return rows, rs
	}
	var out []ProbeResult
	for _, tm := range a.Tables {
		attrs := a.DerivedAttrsOf(tm.Alias)
		if len(attrs) == 0 {
			continue
		}
		rows, _ := reduce(tm.Alias, map[string]bool{tm.Alias: true})
		p := ProbeResult{Alias: tm.Alias, Relation: tm.Relation, Attrs: attrs}
		for _, r := range rows {
			needs := opts.NoPriorWork
			for _, attr := range attrs {
				needs = needs || !done(tm.Relation, r, attr)
			}
			if needs {
				p.TIDs = append(p.TIDs, r.TIDs[0])
			}
		}
		out = append(out, p)
	}
	return out
}

// TestProbeEqualsReference runs the probe plans over a partly enriched
// database and compares them, order included, with the reference loop —
// live and snapshot sources, row and vector paths, every strategy toggle.
func TestProbeEqualsReference(t *testing.T) {
	d, mgr, drv := fixture(t)
	for _, q := range []string{
		"SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 4000",
		"SELECT * FROM TweetData WHERE topic = 0 AND TweetTime > 7000",
	} {
		if _, err := drv.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	shapes := map[string]string{
		"fixed selection":     "SELECT * FROM TweetData WHERE sentiment = 1 AND TweetTime < 5000",
		"conjunctive derived": "SELECT tid FROM TweetData WHERE TweetTime < 9000 AND sentiment = 1 AND topic = 2",
		"join on fixed key":   "SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1",
		"non-equi join":       "SELECT * FROM TweetData T1, State S WHERE T1.location < S.city AND S.state = 'California' AND T1.topic = 1",
		"self-join": "SELECT T1.tid FROM TweetData T1, TweetData T2 WHERE T1.location = T2.location AND T1.TweetTime < 1500 " +
			"AND T2.TweetTime > 8500 AND T1.sentiment = T2.sentiment",
	}
	sources := map[string]storage.Source{"live": d.DB, "snapshot": d.DB.Snapshot()}
	toggles := map[string]ProbeOptions{
		"all": {}, "NoSelections": {NoSelections: true}, "NoPriorWork": {NoPriorWork: true}, "NoSemiJoins": {NoSemiJoins: true},
	}
	for shape, q := range shapes {
		a := analyze(t, d, q)
		for sn, src := range sources {
			for tn, opts := range toggles {
				want := fmt.Sprint(referenceProbes(t, a, src, mgr, opts))
				for _, noVector := range []bool{false, true} {
					ctx := engine.NewExecCtx()
					ctx.NoVector = noVector
					got, err := GenerateProbesOpt(a, src, mgr, ctx, opts)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != want {
						t.Errorf("%s / %s / %s / NoVector=%v:\n got %v\nwant %s", shape, sn, tn, noVector, got, want)
					}
				}
			}
		}
	}
}

// TestProbeTestsMarksFirst pins what the probe's order (mark test ahead of
// the fixed conjuncts) does to a fixed conjunct that errors, the INT
// TweetTime against a STRING literal. On a row that still needs the
// attribute the probe evaluates the conjunct and errors, on either path. On
// a marked row the mark test answers False first and the probe skips the
// row without an error, as the plain design's short-circuit would; a
// fixed-first order errored there too.
func TestProbeTestsMarksFirst(t *testing.T) {
	d, mgr, drv := fixture(t)
	tbl := d.DB.MustTable("TweetData")
	insert := func(id int64) {
		t.Helper()
		vals := append([]types.Value(nil), tbl.Get(1).Vals...)
		vals[0], vals[7] = types.NewInt(id), types.Null
		if _, err := tbl.Insert(&types.Tuple{ID: id, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(id int64) error {
		t.Helper()
		a := analyze(t, d, fmt.Sprintf("SELECT tid FROM TweetData WHERE sentiment = 1 AND tid = %d AND TweetTime < 'late'", id))
		for _, noVector := range []bool{false, true} {
			ctx := engine.NewExecCtx()
			ctx.NoVector = noVector
			probes, err := GenerateProbes(a, d.DB, mgr, ctx)
			if err != nil {
				return err
			}
			if len(probes[0].TIDs) != 0 {
				t.Errorf("NoVector=%v: the marked row was probed", noVector)
			}
		}
		return nil
	}
	insert(1000)
	if _, err := drv.Execute("SELECT tid FROM TweetData WHERE tid = 1000 AND sentiment = 1"); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(1000).Enriched&tbl.Schema().MarkBit("sentiment") == 0 {
		t.Fatal("the first query did not mark the row's sentiment")
	}
	if err := probe(1000); err != nil {
		t.Fatalf("a marked row's erroring conjunct failed the probe: %v", err)
	}
	insert(1001)
	if err := probe(1001); err == nil {
		t.Fatal("an unmarked row's erroring conjunct passed the probe")
	}
}

// TestBuildRequestsClosesMarkGap: a tuple whose functions all ran but whose
// image is unmarked (enriched behind the probe's back) is probed once;
// BuildRequests then marks it without running anything, and the next probe
// skips it.
func TestBuildRequestsClosesMarkGap(t *testing.T) {
	d, mgr, drv := fixture(t)
	tbl := d.DB.MustTable("TweetData")
	fi := tbl.Schema().ColIndex("feature")
	if _, _, err := mgr.Execute("TweetData", 7, "sentiment", 0, tbl.Get(7).Vals[fi].Vector(), 0); err != nil {
		t.Fatal(err)
	}
	a := analyze(t, d, "SELECT tid FROM TweetData WHERE tid = 7 AND sentiment = 1")
	for want := 1; want >= 0; want-- {
		probes, err := GenerateProbes(a, d.DB, mgr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(probes[0].TIDs); got != want {
			t.Fatalf("probed %d tuples, want %d", got, want)
		}
		reqs, err := drv.BuildRequests(probes)
		if err != nil || len(reqs) != 0 {
			t.Fatalf("requests %d err %v, want none: every function already ran", len(reqs), err)
		}
	}
}
