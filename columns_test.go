package enrichdb_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"enrichdb"
	"enrichdb/internal/server"
	"enrichdb/internal/wire"
	"enrichdb/internal/wire/client"
)

// shardScanQuery is the benchmark's shard_scan template: half the hours and
// one of two sentiments, so a quarter of the rows.
const shardScanQuery = "SELECT id, hour FROM tweets WHERE hour BETWEEN 16 AND 47 AND sentiment = 1"

// shardScanDB builds the shard_scan shape: 32,768 rows of (id, hour,
// sentiment) over 64 hours and two sentiments, on the given number of
// shards (0: unsharded).
func shardScanDB(tb testing.TB, shards int) *enrichdb.DB {
	tb.Helper()
	db := enrichdb.Open()
	if shards > 0 {
		var err error
		if db, err = enrichdb.OpenSharded(enrichdb.ShardConfig{Shards: shards}); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Cleanup(func() { db.Close() })
	err := db.CreateRelation("tweets", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "hour", Kind: enrichdb.KindInt},
		{Name: "sentiment", Kind: enrichdb.KindInt},
	})
	for i := int64(0); err == nil && i < 32768; i++ {
		_, err = db.Insert("tweets", i+1, enrichdb.Int(i+1), enrichdb.Int(i%64), enrichdb.Int(i/64%2))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// warmQuery is the benchmark's warm_loose and warm_tight template: a
// quarter of the hours and one of two sentiments, an eighth of the rows.
const warmQuery = "SELECT id, hour FROM tweets WHERE hour BETWEEN 16 AND 31 AND sentiment = 1"

// parityModel is a deterministic two-class model: class x[0] mod 2.
type parityModel struct{}

func (parityModel) Name() string                      { return "parity" }
func (parityModel) Fit([][]float64, []int, int) error { return nil }
func (parityModel) PredictProba(x []float64) []float64 {
	p := int(x[0]) % 2
	return []float64{float64(1 - p), float64(p)}
}

// warmDB builds the warm workloads' shape: 16,384 rows of (id, hour,
// embedding, sentiment) over 64 hours, sentiment derived from the
// embedding by one deterministic function, and every row enriched.
func warmDB(tb testing.TB) *enrichdb.DB {
	tb.Helper()
	db := enrichdb.Open()
	tb.Cleanup(func() { db.Close() })
	err := db.CreateRelation("tweets", []enrichdb.Column{
		{Name: "id", Kind: enrichdb.KindInt},
		{Name: "hour", Kind: enrichdb.KindInt},
		{Name: "embedding", Kind: enrichdb.KindVector},
		{Name: "sentiment", Kind: enrichdb.KindInt, Derived: true, FeatureCol: "embedding", Domain: 2},
	})
	if err == nil {
		err = db.RegisterEnrichment("tweets", "sentiment", enrichdb.Function{Model: parityModel{}, Quality: 0.9})
	}
	for i := int64(0); err == nil && i < 16384; i++ {
		_, err = db.Insert("tweets", i+1, enrichdb.Int(i+1), enrichdb.Int(i%64), enrichdb.Vector([]float64{float64(i / 64)}), enrichdb.Null)
	}
	if err == nil {
		_, err = db.QueryLoose("SELECT id FROM tweets WHERE sentiment = 0")
	}
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// answerBytesPerRow runs q under design through sess once to build the
// chunks' vectors, then answers the heap bytes allocated per answer row
// over eight more runs, and the row count.
func answerBytesPerRow(t *testing.T, sess *enrichdb.Session, design enrichdb.Design, q string) (float64, int) {
	t.Helper()
	run := func() int {
		r, err := sess.Run(context.Background(), design, q, enrichdb.QueryObs{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Len()
	}
	n := run()
	const reps = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (reps * float64(n)), n
}

// TestWarmAnswerBytesPerRow bounds the heap a warm loose or tight query
// allocates per answer row through a session: the answer's columns, the
// probe's and the filter's bitmaps and fixed per-query costs. An answer
// built as rows pays a Row and a Value per cell, about 220 B.
func TestWarmAnswerBytesPerRow(t *testing.T) {
	db := warmDB(t)
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, design := range []enrichdb.Design{enrichdb.LooseDesign, enrichdb.TightDesign} {
		perRow, n := answerBytesPerRow(t, sess, design, warmQuery)
		t.Logf("%v: %.1f heap bytes per answer row", design, perRow)
		if n != 2048 {
			t.Fatalf("%v: answer has %d rows, want 2048", design, n)
		}
		if perRow > 64 {
			t.Fatalf("%v: %.1f heap bytes per answer row, want at most 64", design, perRow)
		}
	}
}

// TestResultColumnsBytesPerRow bounds the heap a plain 4-shard scan
// allocates per answer row through a session: the kernel's columns, the
// merged columns and fixed per-query costs. A row-per-answer path pays a
// Row, a Value per cell and merge tags, about 200 B.
func TestResultColumnsBytesPerRow(t *testing.T) {
	db := shardScanDB(t, 4)
	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run := func() int {
		r, err := sess.Run(context.Background(), enrichdb.PlainDesign, shardScanQuery, enrichdb.QueryObs{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Len()
	}
	n := run() // the first scan builds the chunks' column vectors
	if n != 8192 {
		t.Fatalf("answer has %d rows, want 8192", n)
	}
	const reps = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (reps * float64(n))
	t.Logf("%.1f heap bytes per answer row", perRow)
	if perRow > 64 {
		t.Fatalf("%.1f heap bytes per answer row, want at most 64", perRow)
	}
}

// BenchmarkResultColumns measures the shard_scan query end to end on the
// same data unsharded (one plan over the table) and on 4 shards (scatter
// and merge), and the warm_loose/warm_tight query under the loose and tight
// designs over fully enriched data: through a session (library), and
// through a wire server and client (wire), which adds batch slicing,
// encoding, decoding and the client's expansion.
func BenchmarkResultColumns(b *testing.B) {
	for _, shards := range []int{0, 4} {
		db := shardScanDB(b, shards)
		name := fmt.Sprintf("shards=%d", shards)
		benchAnswer(b, name, db, enrichdb.PlainDesign, wire.DesignPlain, shardScanQuery)
	}
	db := warmDB(b)
	benchAnswer(b, "warm/loose", db, enrichdb.LooseDesign, wire.DesignLoose, warmQuery)
	benchAnswer(b, "warm/tight", db, enrichdb.TightDesign, wire.DesignTight, warmQuery)
}

// benchAnswer runs q under one design through a session and over the wire.
func benchAnswer(b *testing.B, name string, db *enrichdb.DB, design enrichdb.Design, wdesign wire.Design, q string) {
	b.Run(name+"/library", func(b *testing.B) {
		sess, err := db.Session()
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		rows := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := sess.Run(context.Background(), design, q, enrichdb.QueryObs{})
			if err != nil {
				b.Fatal(err)
			}
			rows = r.Len()
		}
		b.ReportMetric(float64(rows), "rows/op")
	})
	b.Run(name+"/wire", func(b *testing.B) {
		srv, err := server.New(server.Config{DB: db})
		if err == nil {
			err = srv.Listen("127.0.0.1:0")
		}
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := client.Dial(srv.Addr().String(), client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		rows := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := c.Query(context.Background(), wdesign, q)
			if err != nil {
				b.Fatal(err)
			}
			rows = len(res.Rows)
		}
		b.ReportMetric(float64(rows), "rows/op")
	})
}
