package enrichdb

import (
	"strings"
	"sync"
	"testing"

	"enrichdb/internal/faultinject"
	"enrichdb/internal/loose"
)

// TestProgressiveChaosTwoSessions drives two concurrent progressive sessions
// through an enrichment server that dies mid-epoch (the shared chaos plan
// fails the first whole batches, then recovers). Per DESIGN §6 both queries
// must degrade, not die: a lost batch enriches nothing, its epoch reports
// the failure, the plan re-queues, and once the server recovers both
// sessions converge on exactly the fully enriched answer.
func TestProgressiveChaosTwoSessions(t *testing.T) {
	db := servingDB(t, 60)
	defer db.Close()

	chaos := faultinject.Wrap(db.currentEnricher().(*loose.LocalEnricher),
		faultinject.Plan{Seed: 11, FailBatches: 3})
	db.swapEnricher(chaos)

	const q = "SELECT id, label FROM Events WHERE label = 1"
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := db.Session()
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			results[i], errs[i] = runProgressive(sess.Run, q, ProgressiveOptions{
				Seed:      int64(40 + i),
				MaxEpochs: 50,
			})
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d died instead of degrading: %v", i, err)
		}
	}
	if got := chaos.FailedBatches(); got != 3 {
		t.Fatalf("chaos injected %d whole-batch failures, want 3", got)
	}
	if failed := failedEpochs(t, results[0]) + failedEpochs(t, results[1]); failed != 3 {
		t.Errorf("sessions report %d failed epochs total, want the 3 lost batches", failed)
	}

	// The server recovered and the two sessions drained the re-planned
	// backlog between them, so the shared state is complete: a loose query
	// needs no enrichment at all and yields the true answer.
	ref, err := db.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Enrichments != 0 || ref.FailedEnrichments != 0 {
		t.Errorf("loose after chaos: %d enrichments (%d failed), want 0 — the sessions should have finished the work",
			ref.Enrichments, ref.FailedEnrichments)
	}

	// Each session's answer reflects its own epochs' progress: enrichment a
	// peer performed on tuples this session never planned isn't in its IVM
	// view, so a degraded answer may lag the truth — but it can never
	// contradict it (labels are first-write-wins and deterministic).
	want := renderRows(ref.Rows)
	for i, res := range results {
		got := renderRows(res.Rows)
		for _, line := range strings.Split(got, "\n")[1:] {
			if line != "" && !strings.Contains(want, "\n"+line) {
				t.Errorf("session %d answer has row %q absent from the true answer", i, line)
			}
		}
	}

	// A fresh progressive query converges immediately — everything is
	// already enriched, so it runs zero functions and returns the truth.
	res2, err := runProgressive(db.Run, q, ProgressiveOptions{Seed: 99, MaxEpochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Enrichments != 0 {
		t.Errorf("post-recovery progressive ran %d enrichments, want 0", res2.Enrichments)
	}
	if got := renderRows(res2.Rows); got != want {
		t.Errorf("post-recovery progressive answer:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProgressiveChaosErrorRate: per-request chaos degrades individual
// requests, never the query. A failed request leaves its state bits unset,
// so the degraded answer is a subset of the true one, and re-running through
// a healthy server enriches exactly what's missing (DESIGN §6: retrying is
// just re-running the query).
func TestProgressiveChaosErrorRate(t *testing.T) {
	db := servingDB(t, 40)
	defer db.Close()

	clean := db.currentEnricher()
	chaos := faultinject.Wrap(clean.(*loose.LocalEnricher),
		faultinject.Plan{Seed: 23, ErrorRate: 0.25})
	db.swapEnricher(chaos)

	const q = "SELECT id, label FROM Events WHERE label = 0"
	res, err := runProgressive(db.Run, q, ProgressiveOptions{Seed: 5, MaxEpochs: 60})
	if err != nil {
		t.Fatalf("progressive under 25%% error rate died: %v", err)
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos injected nothing; raise the rate or the workload")
	}
	if failed := failedEpochs(t, res); failed != 0 {
		t.Errorf("per-request errors must not fail whole epochs; got %d", failed)
	}

	// Heal the server; the loose retry repairs what chaos dropped, and the
	// degraded progressive answer must be contained in the true one.
	db.swapEnricher(clean)
	ref, err := db.QueryLoose(q)
	if err != nil {
		t.Fatal(err)
	}
	if ref.FailedEnrichments != 0 {
		t.Errorf("healthy retry failed %d enrichments", ref.FailedEnrichments)
	}
	full := renderRows(ref.Rows)
	degraded := renderRows(res.Rows)
	for _, line := range strings.Split(degraded, "\n")[1:] {
		if line != "" && !strings.Contains(full, "\n"+line) {
			t.Errorf("degraded answer has row %q absent from the true answer", line)
		}
	}
}

// failedEpochs counts the run's epochs that report a lost enrichment batch;
// such an epoch must have enriched nothing.
func failedEpochs(t *testing.T, res *Result) int {
	t.Helper()
	failed := 0
	for _, ep := range res.Epochs {
		if ep.EnrichErr != "" {
			failed++
			if ep.Enrichments != 0 {
				t.Errorf("epoch %d failed (%s) but claims %d enrichments", ep.N, ep.EnrichErr, ep.Enrichments)
			}
		}
	}
	return failed
}
