package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/loose"
	"enrichdb/internal/loose/remote"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// DefaultHedgeDelay is how long a sub-batch may straggle before a hedged
// duplicate is dispatched to a second backend.
const DefaultHedgeDelay = 25 * time.Millisecond

// defaultSubBatch caps requests per dispatched sub-batch.
const defaultSubBatch = 64

// FleetOptions tunes DialFleet.
type FleetOptions struct {
	// HedgeDelay is the straggler threshold before a sub-batch is hedged to
	// the next least-loaded backend (0 = DefaultHedgeDelay, negative
	// disables hedging).
	HedgeDelay time.Duration
	// SubBatch caps requests per dispatched sub-batch (0 = 64). Smaller
	// sub-batches steal and hedge at finer granularity.
	SubBatch int
	// Client configures each backend's RPC client (timeouts, retries).
	Client remote.Options
	// Telemetry receives the shard.fleet_* and shard.hedge_* counters; nil
	// disables.
	Telemetry *telemetry.Registry
}

// backend is one enrichment server in the fleet.
type backend struct {
	addr     string
	client   *remote.Client
	inflight atomic.Int64
}

// Fleet is a loose.Enricher over a pool of N enrichment servers. Each batch
// is split into per-shard sub-batches pushed onto a shared work queue; one
// dispatcher per backend drains its own shard's jobs first and steals the
// rest (work stealing at epoch boundaries — an idle shard's dispatcher
// absorbs a loaded shard's backlog). Jobs route to the least-loaded backend
// (atomic in-flight counts, ties to the lowest index); a sub-batch that
// straggles past the hedge delay is duplicated to the next least-loaded
// backend and the first response wins — the loser's result is discarded on
// arrival (its RPC is bounded by the client's call timeout) and its
// goroutine exits without leaking. A sub-batch that fails on one backend
// fails over to the others; only when every backend has failed does it
// degrade to per-request FailResponses, preserving the loose design's
// NULL-on-failure semantics.
//
// Telemetry: shard.fleet_batches, shard.fleet_jobs, shard.fleet_steals,
// shard.fleet_failovers, shard.hedge_launched, shard.hedge_wins,
// shard.hedge_losses.
type Fleet struct {
	opts     FleetOptions
	backends []*backend
	part     *HashPartitioner
	closed   atomic.Bool
}

var _ loose.Enricher = (*Fleet)(nil)

// DialFleet connects to every enrichment server in addrs.
func DialFleet(addrs []string, opts FleetOptions) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: fleet needs at least one address")
	}
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = DefaultHedgeDelay
	}
	if opts.SubBatch <= 0 {
		opts.SubBatch = defaultSubBatch
	}
	if opts.Telemetry != nil {
		opts.Client.Telemetry = opts.Telemetry
	}
	f := &Fleet{opts: opts, part: NewHashPartitioner(len(addrs))}
	for _, addr := range addrs {
		cl, err := remote.DialOptions(addr, opts.Client)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.backends = append(f.backends, &backend{addr: addr, client: cl})
	}
	return f, nil
}

// Close closes every backend client.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, b := range f.backends {
		if b.client != nil {
			if err := b.client.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// count bumps a fleet telemetry counter (nil-safe).
func (f *Fleet) count(name string, d int64) {
	if f.opts.Telemetry != nil {
		f.opts.Telemetry.Counter(name).Add(d)
	}
}

// job is one dispatched sub-batch: a slice of the original batch plus the
// indices its responses reassemble into.
type job struct {
	home int // shard the requests hash to; its dispatcher prefers the job
	idxs []int
	reqs []loose.Request
}

// jobQueue is the shared work-stealing queue: dispatcher w takes its own
// shard's jobs first, then steals the oldest foreign job.
type jobQueue struct {
	mu   sync.Mutex
	jobs []*job
}

func (q *jobQueue) take(worker int) (j *job, stolen, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return nil, false, false
	}
	for i, cand := range q.jobs {
		if cand.home == worker {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return cand, false, true
		}
	}
	j = q.jobs[0]
	q.jobs = q.jobs[1:]
	return j, true, true
}

// EnrichBatch implements loose.Enricher over the pool.
func (f *Fleet) EnrichBatch(reqs []loose.Request) ([]loose.Response, loose.BatchTiming, error) {
	if len(reqs) == 0 {
		return nil, loose.BatchTiming{}, nil
	}
	f.count("shard.fleet_batches", 1)
	start := time.Now()

	// Split into per-shard sub-batches, preserving request order within each.
	n := len(f.backends)
	byShard := make([][]int, n)
	for i, r := range reqs {
		s := f.part.Route(types.NewInt(r.TID))
		byShard[s] = append(byShard[s], i)
	}
	queue := &jobQueue{}
	for s, idxs := range byShard {
		for len(idxs) > 0 {
			k := len(idxs)
			if k > f.opts.SubBatch {
				k = f.opts.SubBatch
			}
			sub := &job{home: s, idxs: idxs[:k]}
			sub.reqs = make([]loose.Request, k)
			for j, ri := range sub.idxs {
				sub.reqs[j] = reqs[ri]
			}
			queue.jobs = append(queue.jobs, sub)
			idxs = idxs[k:]
		}
	}
	njobs := len(queue.jobs)
	f.count("shard.fleet_jobs", int64(njobs))

	resps := make([]loose.Response, len(reqs))
	var maxCompute int64 // atomic, ns
	workers := n
	if njobs < workers {
		workers = njobs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j, stolen, ok := queue.take(w)
				if !ok {
					return
				}
				if stolen {
					f.count("shard.fleet_steals", 1)
				}
				out, timing := f.runJob(j)
				for i, ri := range j.idxs {
					resps[ri] = out[i]
				}
				for {
					cur := atomic.LoadInt64(&maxCompute)
					if int64(timing.Compute) <= cur ||
						atomic.CompareAndSwapInt64(&maxCompute, cur, int64(timing.Compute)) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	wall := time.Since(start)
	compute := time.Duration(atomic.LoadInt64(&maxCompute))
	network := wall - compute
	if network < 0 {
		network = 0
	}
	return resps, loose.BatchTiming{Compute: compute, Network: network}, nil
}

// pick returns the least-loaded backend not in the exclusion mask (ties to
// the lowest index), or -1.
func (f *Fleet) pick(excluded uint64) int {
	best, bestLoad := -1, int64(0)
	for i, b := range f.backends {
		if excluded&(1<<uint(i)) != 0 {
			continue
		}
		load := b.inflight.Load()
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// runJob executes one sub-batch with least-loaded routing, hedging and
// failover. It always returns len(j.reqs) responses: total failure across
// every backend degrades to per-request FailResponses.
func (f *Fleet) runJob(j *job) ([]loose.Response, loose.BatchTiming) {
	var tried uint64
	var lastErr error
	for range f.backends {
		b := f.pick(tried)
		if b < 0 {
			break
		}
		tried |= 1 << uint(b)
		out, timing, err := f.callHedged(j, b, tried)
		if err == nil {
			return out, timing
		}
		lastErr = err
		f.count("shard.fleet_failovers", 1)
	}
	msg := "shard: every fleet backend failed"
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	out := make([]loose.Response, len(j.reqs))
	for i, r := range j.reqs {
		out[i] = loose.FailResponse(r, msg)
	}
	return out, loose.BatchTiming{}
}

// attempt is one backend call's outcome.
type attempt struct {
	resps  []loose.Response
	timing loose.BatchTiming
	err    error
	from   int
}

// callHedged calls the chosen backend, duplicating the call to the next
// least-loaded backend if it straggles past the hedge delay. The first
// response wins; a losing in-flight call is bounded by the client's call
// timeout and its goroutine exits into a buffered channel (no leak), its
// result discarded.
func (f *Fleet) callHedged(j *job, primary int, tried uint64) ([]loose.Response, loose.BatchTiming, error) {
	ch := make(chan attempt, 2)
	call := func(bi int) {
		b := f.backends[bi]
		b.inflight.Add(int64(len(j.reqs)))
		defer b.inflight.Add(-int64(len(j.reqs)))
		resps, timing, err := b.client.EnrichBatch(j.reqs)
		ch <- attempt{resps: resps, timing: timing, err: err, from: bi}
	}
	go call(primary)
	if f.opts.HedgeDelay < 0 || len(f.backends) == 1 {
		a := <-ch
		return a.resps, a.timing, a.err
	}
	timer := time.NewTimer(f.opts.HedgeDelay)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.resps, a.timing, a.err
	case <-timer.C:
	}
	// Straggler: hedge to the next least-loaded backend, excluding the
	// primary (a backend that already failed this job may be re-picked —
	// it is still a second, independent path).
	secondary := f.pick(1 << uint(primary))
	if secondary < 0 {
		a := <-ch
		return a.resps, a.timing, a.err
	}
	f.count("shard.hedge_launched", 1)
	go call(secondary)
	a := <-ch
	if a.err != nil {
		// First responder failed; the race is decided by the survivor.
		a = <-ch
		return a.resps, a.timing, a.err
	}
	if a.from == secondary {
		f.count("shard.hedge_wins", 1)
	} else {
		f.count("shard.hedge_losses", 1)
	}
	return a.resps, a.timing, a.err
}
