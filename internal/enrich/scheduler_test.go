package enrich

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"enrichdb/internal/telemetry"
)

// goid returns the calling goroutine's ID, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// schedRun records what one scheduler call did: how often each index ran,
// the order indexes started in, and whether any ran off the caller's
// goroutine.
type schedRun struct {
	mu        sync.Mutex
	counts    []int
	order     []int
	offCaller bool
}

// do runs n items through call, failing every item with i%3 == 1.
func (r *schedRun) do(n int, call func(fn func(i int) error) error) error {
	r.counts = make([]int, n)
	caller := goid()
	return call(func(i int) error {
		id := goid()
		r.mu.Lock()
		r.counts[i]++
		r.order = append(r.order, i)
		if id != caller {
			r.offCaller = true
		}
		r.mu.Unlock()
		if i%3 == 1 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
}

// check asserts every index ran exactly once, the error is one an item
// returned (item 1's when the items ran in order), and width 1 ran in index
// order on the caller's goroutine.
func (r *schedRun) check(t *testing.T, label string, width, n int, err error) {
	t.Helper()
	for i, c := range r.counts {
		if c != 1 {
			t.Errorf("%s: index %d ran %d times, want 1", label, i, c)
		}
	}
	switch {
	case n < 2 && err != nil:
		t.Errorf("%s: got error %v from items that all succeed", label, err)
	case n >= 2 && err == nil:
		t.Errorf("%s: a failing item's error was dropped", label)
	case n >= 2 && width == 1 && err.Error() != "item 1":
		t.Errorf("%s: got %v, want the first error, item 1", label, err)
	}
	if width == 1 {
		if r.offCaller {
			t.Errorf("%s: width 1 ran an item off the calling goroutine", label)
		}
		for k, i := range r.order {
			if i != k {
				t.Fatalf("%s: width 1 ran items in order %v, want index order", label, r.order)
			}
		}
	}
}

// TestSchedulerDo: every index runs exactly once at any width, the first
// error comes back while the remaining items still run, and width 1 is a
// plain in-order loop on the calling goroutine.
func TestSchedulerDo(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		s := NewScheduler(width)
		for _, n := range []int{0, 1, 3, 100} {
			label := fmt.Sprintf("width=%d n=%d", width, n)
			var r schedRun
			err := r.do(n, func(fn func(i int) error) error { return s.Do(n, fn) })
			r.check(t, label, width, n, err)
		}
	}
}

// TestSchedulerDoTraced: with a collecting tracer each worker emits one span
// tagged with its worker ID and the epoch, and the spans' items sum to n;
// with a nil tracer DoTraced behaves as Do.
func TestSchedulerDoTraced(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		s := NewScheduler(width)
		for _, n := range []int{0, 1, 3, 100} {
			label := fmt.Sprintf("width=%d n=%d", width, n)

			sink := &telemetry.CollectSink{}
			var r schedRun
			err := r.do(n, func(fn func(i int) error) error {
				return s.DoTraced(telemetry.NewTracer(sink), "work", 7, n, fn)
			})
			r.check(t, label+" traced", width, n, err)
			spans := sink.Spans()
			if want := min(width, n); len(spans) != want {
				t.Fatalf("%s: %d spans, want one per worker (%d)", label, len(spans), want)
			}
			var items int64
			var workers []int
			for _, sp := range spans {
				if sp.Name != "work" || sp.Epoch != 7 {
					t.Errorf("%s: span %q epoch %d, want \"work\" epoch 7", label, sp.Name, sp.Epoch)
				}
				workers = append(workers, sp.Worker)
				for _, a := range sp.Attrs {
					if a.Key == "items" {
						items += a.Val.(int64)
					}
				}
			}
			if items != int64(n) {
				t.Errorf("%s: span items sum to %d, want %d", label, items, n)
			}
			sort.Ints(workers)
			for k, w := range workers {
				if w != k {
					t.Errorf("%s: worker IDs %v, want 0..%d once each", label, workers, len(workers)-1)
					break
				}
			}

			var untraced schedRun
			err = untraced.do(n, func(fn func(i int) error) error {
				return s.DoTraced(nil, "work", 7, n, fn)
			})
			untraced.check(t, label+" nil tracer", width, n, err)
		}
	}
}

// TestSchedulerZeroValue: the zero Scheduler and a nil one run sequentially.
func TestSchedulerZeroValue(t *testing.T) {
	for _, s := range []*Scheduler{nil, {}} {
		if w := s.width(); w != 1 {
			t.Fatalf("width() = %d, want 1", w)
		}
		var r schedRun
		err := r.do(3, func(fn func(i int) error) error { return s.Do(3, fn) })
		r.check(t, "zero", 1, 3, err)
	}
}
