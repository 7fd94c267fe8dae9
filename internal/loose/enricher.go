package loose

import (
	"fmt"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/telemetry"
)

// Request asks the enrichment server to run one enrichment function on one
// tuple's feature vector.
type Request struct {
	Relation string
	TID      int64
	Attr     string
	FnID     int
	Feature  []float64
	// Gen is the fixed-data generation of the tuple image Feature was read
	// from. The manager keys its cross-session dedup on it and drops the
	// output if a committed write supersedes the generation before the
	// result lands (first-write-wins applies only within one generation).
	Gen uint64
}

// Response carries one function's probability output back to the DBMS side.
// A response with a non-empty Err failed: it carries no probabilities and the
// tuple's derived attribute stays NULL — the paper's "not yet enriched"
// state — so a later query can retry exactly the failed work.
type Response struct {
	Relation string
	TID      int64
	Attr     string
	FnID     int
	Probs    []float64
	// Gen echoes the request's tuple generation (see Request.Gen).
	Gen uint64
	// Err is the per-request failure message ("" on success). A string, not
	// an error, so responses cross the gob/RPC transport unchanged.
	Err string
	// Ran reports that the function ran for this request, rather than its
	// output being reused from stored work, a concurrent identical request or
	// an in-batch duplicate. Transports carry it unchanged; the driver sums it
	// into the query's own execution count.
	Ran bool
}

// Failed reports whether this request produced no usable output.
func (r Response) Failed() bool { return r.Err != "" }

// FailResponse builds the failed response for a request.
func FailResponse(r Request, msg string) Response {
	return Response{Relation: r.Relation, TID: r.TID, Attr: r.Attr, FnID: r.FnID, Gen: r.Gen, Err: msg}
}

// BatchTiming splits a batch's cost into the components Table 11 reports.
type BatchTiming struct {
	// Compute is the time the enrichment server spent executing functions.
	Compute time.Duration
	// Network is the transfer time (zero for the in-process enricher).
	Network time.Duration
}

// Enricher is the enrichment-server abstraction of the loose design.
type Enricher interface {
	// EnrichBatch executes the requested functions and returns their
	// outputs, one response per request in order. Batching is the loose
	// design's per-object cost advantage over per-row UDF invocation
	// (§5.2.1). Individual failures (invalid request, panicking model,
	// injected fault) are reported per response via Response.Err; the
	// returned error is reserved for whole-batch failures (transport loss,
	// dead server), after which no response is usable.
	EnrichBatch(reqs []Request) ([]Response, BatchTiming, error)
	// Close releases any transport resources.
	Close() error
}

// LocalEnricher runs enrichment functions in process. It looks families up
// in an enrich.Manager that acts as the server-side model registry.
// Workers > 1 executes the batch in parallel on an enrich.Scheduler — the
// scope for parallelism that §1 of the paper lists as a loose-design
// advantage (the server owns whole batches, unlike per-row UDF invocation
// inside the DBMS).
type LocalEnricher struct {
	Mgr *enrich.Manager
	// Workers is the parallel execution width; 0 or 1 runs sequentially,
	// negative uses GOMAXPROCS.
	Workers int
	// Telemetry overrides the registry the enricher's request/failure
	// counters publish to; nil uses the manager's registry. The counters:
	// loose.requests, loose.request_failures (any per-request error),
	// loose.request_panics (failures caused by a panicking model), and
	// loose.dedup_hits (requests answered by the batch-level dedup).
	Telemetry *telemetry.Registry
}

// registry resolves the enricher's metrics registry.
func (e *LocalEnricher) registry() *telemetry.Registry {
	if e.Telemetry != nil {
		return e.Telemetry
	}
	if e.Mgr != nil {
		return e.Mgr.Telemetry()
	}
	return nil
}

// EnrichBatch implements Enricher.
func (e *LocalEnricher) EnrichBatch(reqs []Request) ([]Response, BatchTiming, error) {
	start := time.Now()
	reg := e.registry()
	reg.Counter("loose.requests").Add(int64(len(reqs)))
	panics := reg.Counter("loose.request_panics")
	resps := make([]Response, len(reqs))

	// Validate up front so workers cannot race on error reporting, and
	// dedup identical (relation, tuple, attr, function) requests — the
	// paper's server-side state cache (§3.2): a self-join's probe queries
	// list the same tuple under both aliases, but the function must run
	// once. `unique` holds the first request index per key; duplicates copy
	// its response afterwards. An invalid request fails only itself (and
	// its duplicates): the rest of the batch still runs.
	type reqKey struct {
		fam int // index into fams: the request's (relation, attribute)
		tid int64
		fn  int
		gen uint64
	}
	var fams [][2]string
	unique := make(map[reqKey]int, len(reqs))
	var order []int
	dup := make([]int, len(reqs)) // index of the canonical request, or own index
	for i, r := range reqs {
		fi := 0
		for fi < len(fams) && (fams[fi][0] != r.Relation || fams[fi][1] != r.Attr) {
			fi++
		}
		if fi == len(fams) {
			fams = append(fams, [2]string{r.Relation, r.Attr})
		}
		k := reqKey{fi, r.TID, r.FnID, r.Gen}
		if first, seen := unique[k]; seen {
			dup[i] = first
			continue
		}
		unique[k] = i
		dup[i] = i
		fam := e.Mgr.Family(r.Relation, r.Attr)
		if fam == nil {
			resps[i] = FailResponse(r, fmt.Sprintf("loose: enricher has no family for %s.%s", r.Relation, r.Attr))
			continue
		}
		if r.FnID < 0 || r.FnID >= len(fam.Functions) {
			resps[i] = FailResponse(r, fmt.Sprintf("loose: %s.%s has no function %d", r.Relation, r.Attr, r.FnID))
			continue
		}
		order = append(order, i)
	}

	workers := e.Workers
	if workers == 0 {
		workers = 1 // NewScheduler reads 0 as GOMAXPROCS; here it means sequential
	}
	enrich.NewScheduler(workers).Do(len(order), func(k int) error {
		i := order[k]
		resps[i] = e.run(reqs[i], panics)
		return nil
	})
	// Fill duplicate slots from their canonical execution.
	var dedupHits, failures int64
	for i := range reqs {
		if dup[i] != i {
			resp := resps[dup[i]]
			resp.TID = reqs[i].TID // same tuple by construction, keep explicit
			resp.Ran = false       // the canonical request counts the run
			resps[i] = resp
			dedupHits++
		}
		if resps[i].Failed() {
			failures++
		}
	}
	reg.Counter("loose.dedup_hits").Add(dedupHits)
	reg.Counter("loose.request_failures").Add(failures)
	return resps, BatchTiming{Compute: time.Since(start)}, nil
}

// run executes one request, converting a panic in the enrichment function (a
// buggy model, a malformed feature vector) into that request's failure
// instead of crashing the worker pool — and, server-side, the shared
// enrichment server. Execution goes through the manager's generation-keyed
// singleflight, so identical requests in concurrent batches from different
// query sessions share one function run.
func (e *LocalEnricher) run(r Request, panics *telemetry.Counter) (resp Response) {
	resp = Response{Relation: r.Relation, TID: r.TID, Attr: r.Attr, FnID: r.FnID, Gen: r.Gen}
	defer func() {
		if p := recover(); p != nil {
			panics.Inc()
			resp.Probs = nil
			resp.Err = fmt.Sprintf("loose: enrichment %s.%s function %d panicked on tuple %d: %v",
				r.Relation, r.Attr, r.FnID, r.TID, p)
		}
	}()
	probs, run, err := e.Mgr.Execute(r.Relation, r.TID, r.Attr, r.FnID, r.Feature, r.Gen)
	if err != nil {
		return FailResponse(r, err.Error())
	}
	resp.Probs, resp.Ran = probs, run > 0
	return resp
}

// Close implements Enricher (no resources to release).
func (e *LocalEnricher) Close() error { return nil }
