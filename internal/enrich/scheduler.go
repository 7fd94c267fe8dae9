package enrich

import (
	"runtime"
	"sync"

	"enrichdb/internal/telemetry"
)

// Scheduler is the one worker pool enrichment runs on: the loose
// LocalEnricher executes a batch's requests through it, the progressive
// executor runs per-tuple determinization through it, and the tight design
// evaluates rewritten predicates over planned rows on it. Parallel
// correctness comes from the Manager's singleflight dedup (no triplet ever
// executes twice) and the state tables' first-write-wins semantics; the
// scheduler only bounds the concurrency.
//
// A Scheduler is stateless between calls and safe for concurrent use; the
// zero value runs everything sequentially.
type Scheduler struct {
	workers int
}

// NewScheduler builds a pool of the given width. Zero or negative widths
// default to GOMAXPROCS.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers}
}

// width returns the pool width (at least 1).
func (s *Scheduler) width() int {
	if s == nil || s.workers <= 0 {
		return 1
	}
	return s.workers
}

// Do runs fn(i) for every i in [0, n) on the pool and returns the first
// error encountered (the remaining items still run — enrichment work is
// idempotent and best-effort, so one poisoned item must not starve the
// epoch). With one worker the items run in index order on the calling
// goroutine, which is what the Workers:1 equivalence baseline relies on. Do
// is DoTraced with a nil tracer.
func (s *Scheduler) Do(n int, fn func(i int) error) error {
	return s.DoTraced(nil, "", 0, n, fn)
}

// DoTraced is Do with per-worker tracing: each worker emits one `name` span
// tagged with its worker ID, the epoch, and the number of items it handled.
// With a nil tracer the span calls vanish on the nil fast path.
func (s *Scheduler) DoTraced(tr *telemetry.Tracer, name string, epoch, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(s.width(), n)
	if workers == 1 {
		sp := tr.Start(name).Epoch(epoch).Worker(0).Int("items", int64(n))
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sp.End()
		return firstErr
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			sp := tr.Start(name).Epoch(epoch).Worker(worker)
			var items int64
			for i := range next {
				items++
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
			sp.Int("items", items).End()
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
