package enrichdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// sessionRows runs q on s under the plain design and answers its rows.
func sessionRows(s *Session, q string) (*Rows, error) {
	return rowsOnly(s.Run(context.Background(), PlainDesign, q, QueryObs{}))
}

// stepModel is a deterministic pure-function classifier for serving tests:
// equal features always produce equal distributions.
type stepModel struct{ classes int }

func (m stepModel) Name() string                            { return "step" }
func (m stepModel) Fit(_ [][]float64, _ []int, _ int) error { return nil }
func (m stepModel) PredictProba(x []float64) []float64 {
	h := uint64(1469598103934665603)
	for _, v := range x {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	out := make([]float64, m.classes)
	for i := range out {
		out[i] = 0.1
	}
	out[h%uint64(m.classes)] = 1 - 0.1*float64(m.classes-1)
	return out
}

// servingDB builds an Events relation with one deterministic enrichment
// function and n rows.
func servingDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open()
	err := db.CreateRelation("Events", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "feature", Kind: KindVector},
		{Name: "grp", Kind: KindInt},
		{Name: "label", Kind: KindInt, Derived: true, FeatureCol: "feature", Domain: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterEnrichment("Events", "label", Function{Model: stepModel{classes: 3}, Quality: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		vec := []float64{float64(i), float64(i * 31)}
		if _, err := db.Insert("Events", int64(i), Int(int64(i)), Vector(vec), Int(int64(i%4)), Null); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSessionSnapshotIsolation pins the core serving guarantee: a session
// opened before a write answers from the pre-write image, for plain reads
// and for enriching queries alike, while the live database and later
// sessions see the new image.
func TestSessionSnapshotIsolation(t *testing.T) {
	db := servingDB(t, 8)
	defer db.Close()

	sess, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	v0 := sess.Version()

	before, err := sess.Run(context.Background(), LooseDesign, "SELECT id, label FROM Events WHERE grp = 1", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}

	// Move tuple 1 out of grp 1 and rewrite tuple 5's feature.
	if err := db.Update("Events", 1, "grp", Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Events", 5, "feature", Vector([]float64{999, 999})); err != nil {
		t.Fatal(err)
	}
	if db.Version() <= v0 {
		t.Fatalf("commit version did not advance: %d <= %d", db.Version(), v0)
	}

	// The old session still sees the pre-write answer, byte for byte.
	after, err := sess.Run(context.Background(), LooseDesign, "SELECT id, label FROM Events WHERE grp = 1", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(before.Rows) != renderRows(after.Rows) {
		t.Fatalf("snapshot leaked a concurrent write:\nbefore:\n%s\nafter:\n%s",
			renderRows(before.Rows), renderRows(after.Rows))
	}
	if sess.Version() != v0 {
		t.Fatalf("session version moved: %d -> %d", v0, sess.Version())
	}

	// A fresh session sees the new image.
	sess2, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	fresh, err := sessionRows(sess2, "SELECT id FROM Events WHERE grp = 1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh.Len(); i++ {
		if fresh.At(i)[0].Int() == 1 {
			t.Fatal("new session still sees tuple 1 in grp 1")
		}
	}
}

// TestSessionSharedEnrichment pins cross-session work sharing: two sessions
// at the same version share one execution per function and tuple, and agree
// on every answer.
func TestSessionSharedEnrichment(t *testing.T) {
	db := servingDB(t, 10)
	defer db.Close()

	s1, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	r1, err := s1.Run(context.Background(), LooseDesign, "SELECT id, label FROM Events WHERE label = 1", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := db.Telemetry().Counter("enrich.udf_runs").Value()
	if runsAfterFirst == 0 {
		t.Fatal("first query ran no enrichment")
	}
	r2, err := s2.Run(context.Background(), TightDesign, "SELECT id, label FROM Events WHERE label = 1", QueryObs{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Telemetry().Counter("enrich.udf_runs").Value(); got != runsAfterFirst {
		t.Errorf("second session re-ran enrichment: %d -> %d runs", runsAfterFirst, got)
	}
	if renderRows(r1.Rows) != renderRows(r2.Rows) {
		t.Errorf("sessions disagree:\n%s\nvs\n%s", renderRows(r1.Rows), renderRows(r2.Rows))
	}
}

// TestAdmissionControl pins the serving limits: sessions beyond MaxSessions
// queue up to the timeout and fail with ErrSessionTimeout; closing a session
// frees its slot; telemetry counts all of it.
func TestAdmissionControl(t *testing.T) {
	db := servingDB(t, 4)
	defer db.Close()
	db.SetServing(ServingConfig{MaxSessions: 1, QueueTimeout: 30 * time.Millisecond})

	s1, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Session(); !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("over-capacity session: got %v, want ErrSessionTimeout", err)
	}
	reg := db.Telemetry()
	if got := reg.Counter("serve.sessions_rejected").Value(); got != 1 {
		t.Errorf("sessions_rejected = %d, want 1", got)
	}

	// A queued waiter is admitted when the slot frees.
	done := make(chan error, 1)
	db.SetServing(ServingConfig{MaxSessions: 1, QueueTimeout: 5 * time.Second})
	// Note: s1 still holds a slot of the previous configuration; the new
	// gate starts with one free slot.
	s2, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s3, err := db.Session()
		if err == nil {
			s3.Close()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue
	s2.Close()
	if err := <-done; err != nil {
		t.Fatalf("queued session not admitted after close: %v", err)
	}
	s1.Close()
	if got := reg.Counter("serve.sessions_admitted").Value(); got < 2 {
		t.Errorf("sessions_admitted = %d, want >= 2", got)
	}
	if got := reg.Gauge("serve.sessions_active").Value(); got != 0 {
		t.Errorf("sessions_active = %d after all closes, want 0", got)
	}

	// Unlimited again: no admission bookkeeping, sessions just open.
	db.SetServing(ServingConfig{})
	s4, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	s4.Close()

	// Closed sessions refuse queries.
	if _, err := sessionRows(s2, "SELECT id FROM Events"); err == nil {
		t.Error("query on closed session must fail")
	}
}

// TestConcurrentWriteQueryRace is the -race regression for the top-level
// read/write race: before tuples were copy-on-write, Update mutated the
// value slice aliased by concurrently materialized query rows, and the race
// detector flagged every concurrent Update/Query pair. The test needs no
// assertions beyond "no error": the detector does the work.
func TestConcurrentWriteQueryRace(t *testing.T) {
	db := servingDB(t, 32)
	defer db.Close()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Disjoint id ranges per writer: delete/insert of an id never
				// races another writer's update of the same id.
				id := int64(1 + w*16 + (i*7)%16)
				var err error
				switch i % 3 {
				case 0:
					err = db.Update("Events", id, "feature", Vector([]float64{float64(i), float64(w)}))
				case 1:
					err = db.Update("Events", id, "grp", Int(int64(i%4)))
				default:
					if err = db.Delete("Events", id); err == nil {
						_, err = db.Insert("Events", id, Int(id), Vector([]float64{float64(i)}), Int(0), Null)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Query("SELECT id, grp, label FROM Events WHERE grp = 1"); err != nil {
					errs <- fmt.Errorf("reader %d plain: %w", r, err)
					return
				}
				if _, err := db.QueryLoose("SELECT id, label FROM Events WHERE label = 0"); err != nil {
					errs <- fmt.Errorf("reader %d loose: %w", r, err)
					return
				}
				if _, err := db.QueryTight("SELECT id, label FROM Events WHERE label = 1"); err != nil {
					errs <- fmt.Errorf("reader %d tight: %w", r, err)
					return
				}
			}
		}(r)
	}
	// Readers decide the duration; writers spin until told to stop.
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// renderRows canonicalizes a result for comparison (row order ignored).
func renderRows(rows *Rows) string {
	if rows == nil {
		return "<nil>"
	}
	lines := make([]string, 0, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		line := ""
		for j, v := range rows.At(i) {
			if j > 0 {
				line += "\t"
			}
			line += v.String()
		}
		lines = append(lines, line)
	}
	sortStrings(lines)
	out := ""
	for _, c := range rows.Columns() {
		out += c + " "
	}
	for _, l := range lines {
		out += "\n" + l
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
