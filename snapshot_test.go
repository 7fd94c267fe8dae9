package enrichdb

import (
	"bytes"
	"strings"
	"testing"

	"enrichdb/internal/storage"
)

func TestSnapshotRoundTrip(t *testing.T) {
	// Source DB: enrich some tuples so there is real state to carry.
	src, _, _ := buildReviewDB(t)
	res1, err := src.QueryLoose("SELECT * FROM Reviews WHERE rating = 1 AND day < 15")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Enrichments == 0 {
		t.Fatal("setup: nothing enriched")
	}
	srcAll, err := src.Query("SELECT * FROM Reviews")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Destination: identical schema and (deterministically retrained)
	// models, no data — then load the snapshot.
	dst, _, _ := reviewDBWith(t, false)
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// All tuples restored, including already-determined derived values.
	dstAll, err := dst.Query("SELECT * FROM Reviews")
	if err != nil {
		t.Fatal(err)
	}
	if dstAll.Len() != srcAll.Len() {
		t.Fatalf("restored %d tuples, want %d", dstAll.Len(), srcAll.Len())
	}
	srcEnriched, _ := src.Query("SELECT id FROM Reviews WHERE rating IS NOT NULL")
	dstEnriched, _ := dst.Query("SELECT id FROM Reviews WHERE rating IS NOT NULL")
	if srcEnriched.Len() == 0 || dstEnriched.Len() != srcEnriched.Len() {
		t.Fatalf("enriched values: src %d dst %d", srcEnriched.Len(), dstEnriched.Len())
	}

	// The restored state prevents re-enrichment: re-running the original
	// query on the destination must execute zero functions.
	res2, err := dst.QueryLoose("SELECT * FROM Reviews WHERE rating = 1 AND day < 15")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Enrichments != 0 {
		t.Errorf("restored state should prevent re-enrichment; ran %d", res2.Enrichments)
	}
	if res2.Len() != res1.Len() {
		t.Errorf("answers differ after restore: %d vs %d", res2.Len(), res1.Len())
	}

	// Unenriched attributes still enrich lazily after restore.
	res3, err := dst.QueryLoose("SELECT * FROM Reviews WHERE rating = 0 AND day >= 15")
	if err != nil {
		t.Fatal(err)
	}
	if res3.Enrichments == 0 {
		t.Error("uncovered tuples should enrich after restore")
	}
}

func TestSnapshotCarriesPartialFamilyState(t *testing.T) {
	// Progressive runs leave partial bitmaps (one of two functions run);
	// the snapshot must preserve them exactly.
	src, _, _ := buildReviewDB(t)
	if _, err := runProgressive(src.Run, "SELECT * FROM Reviews WHERE rating = 1", ProgressiveOptions{
		Strategy:  RandomOrdered,
		MaxEpochs: 2, // stop early: partial state guaranteed
	}); err != nil {
		t.Fatal(err)
	}
	srcStats := src.Stats()
	if srcStats.Enrichments == 0 {
		t.Fatal("setup: nothing enriched")
	}

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _, _ := reviewDBWith(t, false)
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Finishing the query on the destination must only pay for what the
	// source had not executed: total = src + dst ≈ a full cold run.
	cold, _, _ := buildReviewDB(t)
	coldRes, err := cold.QueryLoose("SELECT * FROM Reviews WHERE rating = 1")
	if err != nil {
		t.Fatal(err)
	}
	dstRes, err := dst.QueryLoose("SELECT * FROM Reviews WHERE rating = 1")
	if err != nil {
		t.Fatal(err)
	}
	total := srcStats.Enrichments + dstRes.Enrichments
	if total != coldRes.Enrichments {
		t.Errorf("src %d + dst %d = %d, cold run %d — partial state lost or duplicated",
			srcStats.Enrichments, dstRes.Enrichments, total, coldRes.Enrichments)
	}
}

// TestSnapshotLoadRestoresMarks: a restored image carries the enrichment mark
// its imported state earns, so a loose query over the restored database
// executes nothing and probes nothing the saved database had finished.
func TestSnapshotLoadRestoresMarks(t *testing.T) {
	src, _, _ := buildReviewDB(t)
	const q = "SELECT * FROM Reviews WHERE rating = 1 AND day < 15"
	if _, err := src.QueryLoose(q); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _, _ := reviewDBWith(t, false)
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckEnrichmentMarks(); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		res, err := dst.looseDriver(dst.store, nil, nil, nil).Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Enrichments != 0 || res.ProbeTuples != 0 {
			t.Fatalf("run %d after restore: %d enrichments, %d probed tuples, want 0 and 0",
				run, res.Enrichments, res.ProbeTuples)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	db, _, _ := buildReviewDB(t)
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Load into a DB without the relation.
	empty := Open()
	if err := empty.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("load without schema must fail")
	}
	// Garbage stream.
	if err := empty.LoadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage stream must fail")
	}
	// Load into a non-empty DB.
	db2, _, _ := buildReviewDB(t)
	if err := db2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("load into non-empty table must fail")
	}
	// Schema mismatch: same relation name, different columns.
	other := Open()
	if err := other.CreateRelation("Reviews", []Column{{Name: "x", Kind: KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("schema mismatch must fail")
	}
}

// TestSnapshotRefusesRemovedKinds: a snapshot value of kind 2 or 4 (FLOAT
// and BOOL once) fails the load by name. The forged snapshots are a saved
// one with one INT value's kind byte overwritten.
func TestSnapshotRefusesRemovedKinds(t *testing.T) {
	open := func() *DB {
		db := Open()
		if err := db.CreateRelation("K", []Column{{Name: "id", Kind: KindInt}, {Name: "x", Kind: KindInt}}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	src := open()
	const marker = 987654321
	if _, err := src.Insert("K", 1, Int(1), Int(marker)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	enc, err := Int(marker).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	at := bytes.Index(img, enc)
	if at < 0 || bytes.Contains(img[at+1:], enc) {
		t.Fatal("the marker value is not in the snapshot exactly once")
	}
	if err := open().LoadSnapshot(bytes.NewReader(img)); err != nil {
		t.Fatalf("unforged snapshot: %v", err)
	}
	for kind, want := range map[byte]string{2: "FLOAT is not supported", 4: "BOOL is not supported"} {
		forged := bytes.Clone(img)
		forged[at] = kind
		if err := open().LoadSnapshot(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("value of kind %d: got %v, want an error naming %q", kind, err, want)
		}
	}
}

// TestSnapshotConcurrentEnrichmentAndTombstones saves a snapshot while
// enriching queries run against the source and after deletions have both
// compacted the slab and left fresh tombstones behind. The loaded database
// must hold exactly the survivors, agree with the source on the fully
// enriched answer, and need no re-enrichment once warmed.
func TestSnapshotConcurrentEnrichmentAndTombstones(t *testing.T) {
	src := servingDB(t, 200)
	defer src.Close()

	// Delete ids 1..140: crosses the live*2 <= slab threshold repeatedly,
	// so the slab compacts at least once.
	for id := int64(1); id <= 140; id++ {
		if err := src.Delete("Events", id); err != nil {
			t.Fatal(err)
		}
	}
	// Ids 191..200 land exactly on the next threshold and compact again,
	// shrinking the slab below compactMinSlab — after which ids 141..145
	// stay behind as tombstones.
	for id := int64(191); id <= 200; id++ {
		if err := src.Delete("Events", id); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(141); id <= 145; id++ {
		if err := src.Delete("Events", id); err != nil {
			t.Fatal(err)
		}
	}
	stats := src.store.(*storage.DB).MustTable("Events").Stats()
	if stats.Compactions == 0 {
		t.Fatalf("setup: expected at least one compaction, stats %+v", stats)
	}
	if stats.Tombstones == 0 {
		t.Fatalf("setup: expected post-compaction tombstones, stats %+v", stats)
	}
	if stats.Live != 45 {
		t.Fatalf("setup: live = %d, want 45", stats.Live)
	}

	// Enrich concurrently with the save: the snapshot must be internally
	// consistent whatever prefix of this work it observes.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = src.QueryLoose("SELECT id, label FROM Events WHERE label = 0")
			} else {
				_, err = src.QueryTight("SELECT id, label FROM Events WHERE label = 1")
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var buf bytes.Buffer
	err := src.SaveSnapshot(&buf)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}

	// Load into a fresh database with the same schema and function.
	dst := servingDB(t, 0)
	defer dst.Close()
	if err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	dstAll, err := dst.Query("SELECT id FROM Events")
	if err != nil {
		t.Fatal(err)
	}
	if int64(dstAll.Len()) != stats.Live {
		t.Fatalf("restored %d tuples, want %d survivors", dstAll.Len(), stats.Live)
	}
	for i := 0; i < dstAll.Len(); i++ {
		if id := dstAll.At(i)[0].Int(); id <= 145 || id > 190 {
			t.Fatalf("deleted tuple %d resurrected by snapshot", id)
		}
	}

	// The fully enriched answer is a pure function of the fixed data, so
	// source and restored database must agree byte for byte — regardless
	// of how much enrichment the snapshot happened to capture.
	const q = "SELECT id, label FROM Events WHERE label = 1"
	srcRes, err := src.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	dstRes, err := dst.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(srcRes.Rows) != renderRows(dstRes.Rows) {
		t.Fatalf("restored answer differs:\nsrc:\n%s\ndst:\n%s",
			renderRows(srcRes.Rows), renderRows(dstRes.Rows))
	}

	// Once warmed, the restored state fully covers the relation.
	again, err := dst.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Enrichments != 0 {
		t.Errorf("second query after restore ran %d enrichments, want 0", again.Enrichments)
	}
}
