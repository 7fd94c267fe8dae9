package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"enrichdb/internal/wire"
)

// limits ends a pass: after `window` of wall time, or after opsPerClient ops
// of every client when that is set (the smoke scale, where op counts are
// fixed and no assertion depends on the clock).
type limits struct {
	window       time.Duration
	opsPerClient int
}

// passResult is one timed window of one workload.
type passResult struct {
	results []opResult
	// opsPerS sums, over the clients, a client's ops over its own elapsed
	// time. A client's time ends with its last answer, so no client is
	// charged for the tail of another's last op.
	opsPerS   float64
	exhausted bool // a pool client ran out of fresh hours before the window ended
}

// pass runs every client of the workload in a closed loop: a client sends
// its next op when the previous one's answer is complete. Nothing else runs.
func (in *instance) pass(lim limits, sampled bool) passResult {
	var wg sync.WaitGroup
	per := make([][]opResult, len(in.clients))
	ends := make([]time.Time, len(in.clients))
	short := make([]bool, len(in.clients))
	start := time.Now()
	for i, cs := range in.clients {
		wg.Add(1)
		go func(i int, cs *clientState) {
			defer wg.Done()
			for n := 0; ; n++ {
				if lim.opsPerClient > 0 && n >= lim.opsPerClient {
					break
				}
				if lim.opsPerClient == 0 && time.Since(start) >= lim.window {
					break
				}
				if in.exhausted(cs) {
					short[i] = true
					break
				}
				r := in.runOp(cs, sampled)
				per[i] = append(per[i], r)
				if r.err != nil {
					break // a failed op may have broken the connection
				}
			}
			ends[i] = time.Now()
		}(i, cs)
	}
	wg.Wait()
	var p passResult
	for i := range per {
		p.results = append(p.results, per[i]...)
		p.opsPerS += float64(len(per[i])) / ends[i].Sub(start).Seconds()
		p.exhausted = p.exhausted || short[i]
	}
	in.results = append(in.results, p.results...)
	return p
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// passStats are one pass's end-to-end numbers.
type passStats struct {
	ops, failed      int
	p50, ttq50, tail float64 // ms
	tailName         string  // the tail percentile's name with its sample count
	opsPerS          float64
	execsPerOp       float64
}

// countedOps is how many ops of each client, from its first timed one,
// enrich_execs_per_op averages over: a fixed list of ops, so that the count
// repeats exactly however many ops a window held. (A pass that starts later
// in a client's life, like the sampled one, averages over all its ops.)
const countedOps = 16

func (p passResult) stats() passStats {
	var lat, ttq []float64
	var st passStats
	var execs, counted, allExecs int64
	for _, r := range p.results {
		if r.err != nil {
			st.failed++
			continue
		}
		st.ops++
		allExecs += r.enrich
		if r.seq <= countedOps { // seq 0 is the warm-up op
			execs += r.enrich
			counted++
		}
		lat = append(lat, ms(r.lat))
		if r.ttq > 0 {
			ttq = append(ttq, ms(r.ttq))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttq)
	st.p50, st.ttq50 = quantile(lat, 0.5), quantile(ttq, 0.5)
	// The highest of p99, p95, p90 that has at least ten samples beyond it.
	st.tailName = "op_max_ms"
	st.tail = quantile(lat, 1)
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(lat))*(1-q) >= 10 {
			st.tailName, st.tail = fmt.Sprintf("op_p%.0f_ms", q*100), quantile(lat, q)
			break
		}
	}
	if st.ops > 0 {
		st.opsPerS = p.opsPerS
		st.execsPerOp = float64(allExecs) / float64(st.ops)
	}
	if counted > 0 {
		st.execsPerOp = float64(execs) / float64(counted)
	}
	return st
}

// verify checks every op the instance ran (warm-up ops included) and returns
// one message per violated check.
func (in *instance) verify() []string {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < 20 {
			bad = append(bad, in.spec.name+": "+fmt.Sprintf(format, args...))
		}
	}
	for _, r := range in.results {
		if r.err != nil {
			fail("client %d op %d failed: %v", r.client, r.seq, r.err)
		}
	}
	switch in.spec.kind {
	case kindShared:
		for _, r := range in.results {
			if r.err != nil {
				continue
			}
			if r.got != in.expected[r.stmt] {
				fail("statement %d: served %d rows (sum %x), reference %d rows (sum %x)",
					r.stmt, r.got.n, r.got.sum, in.expected[r.stmt].n, in.expected[r.stmt].sum)
			}
			if r.enrich != 0 {
				fail("statement %d executed %d enrichment functions on fully enriched rows", r.stmt, r.enrich)
			}
		}
	case kindPool:
		in.verifyPool(fail)
	case kindIngest:
		in.verifyIngest(fail)
	}
	return bad
}

// verifyPool re-reads the labels every used database now holds and checks
// each op against them: the answer, which attributes the design enriched,
// and the exact number of function executions.
func (in *instance) verifyPool(fail func(string, ...any)) {
	s := in.spec
	fns := int64(len(in.models.sentiment))
	for _, cs := range in.clients {
		used := (cs.seq + len(in.ops) - 1) / len(in.ops)
		for d := 0; d < used; d++ {
			sv := cs.dbs[d]
			if err := in.readLabels(sv, false); err != nil {
				fail("%v", err)
				return
			}
			for _, r := range in.results {
				if r.client != cs.id || r.seq/len(in.ops) != d || r.err != nil {
					continue
				}
				o := in.ops[r.seq%len(in.ops)]
				var inWindow, passSent, both, topicOnly int64
				for _, t := range sv.rows {
					if t.hour < o.a || t.hour > o.b {
						continue
					}
					l := in.labels[t.id]
					inWindow++
					if l[0] == o.s {
						passSent++
					}
					if l[0] != -1 && l[1] != -1 {
						both++
					}
					if l[1] != -1 && l[0] != o.s {
						topicOnly++
					}
				}
				want := 2 * fns * inWindow
				if s.design == wire.DesignTight {
					// Tight runs topic's function only where sentiment passed.
					want = inWindow + passSent
					if topicOnly != 0 {
						fail("op %d/%d: tight enriched topic on %d rows the sentiment conjunct rejected", r.client, r.seq, topicOnly)
					}
				} else if both != inWindow {
					fail("op %d/%d: %d of %d window rows fully enriched", r.client, r.seq, both, inWindow)
				}
				if r.enrich != want {
					fail("op %d/%d: %d function executions, want %d", r.client, r.seq, r.enrich, want)
				}
				if r.enrich > 2*fns*inWindow {
					fail("op %d/%d: %d executions exceed rows x functions", r.client, r.seq, r.enrich)
				}
				if ref := in.reference(o, sv.rows); r.got != ref {
					fail("op %d/%d: served %d rows (sum %x), reference %d rows (sum %x)", r.client, r.seq, r.got.n, r.got.sum, ref.n, ref.sum)
				}
				if s.design == wire.DesignProgressive && r.truthN >= minScoredTruth {
					if !r.qualityOK {
						fail("op %d/%d: quality fell between epochs", r.client, r.seq)
					}
					if r.finalF1 < targetF1 || r.ttq == 0 {
						fail("op %d/%d: final F1 %.3f below target %.2f", r.client, r.seq, r.finalF1, targetF1)
					}
				}
			}
		}
	}
}

// verifyIngest checks that every cycle's session saw every batch committed
// before it: the answer is the set-up rows' matches plus, in insertion
// order, the matches among all batches so far (labelled by the models
// themselves), and exactly the new in-window tuples were enriched.
func (in *instance) verifyIngest(fail func(string, ...any)) {
	o := in.ops[0]
	h, n := newHasher(), 0
	for _, t := range in.dbs[0].rows {
		l := in.labels[t.id]
		if in.spec.matches(o, t.hour, l[0], l[1]) {
			h.add(t.id)
			h.add(t.hour)
			n++
		}
	}
	for _, r := range in.results {
		if r.seq >= len(in.batches) {
			break
		}
		for _, t := range in.batches[r.seq] {
			if t.hour < o.a || t.hour > o.b {
				continue
			}
			if in.spec.matches(o, t.hour, predict(in.models.sentiment, t.emb), predict(in.models.topic, t.emb)) {
				h.add(t.id)
				h.add(t.hour)
				n++
			}
		}
		if r.err != nil {
			continue
		}
		if want := (answer{n: n, sum: h.h}); r.got != want {
			fail("cycle %d: served %d rows (sum %x), reference %d rows (sum %x): an acknowledged insert is missing", r.seq, r.got.n, r.got.sum, want.n, want.sum)
		}
		if r.enrich != ingestBatch {
			fail("cycle %d: %d function executions, want %d (new in-window tuples x 2)", r.seq, r.enrich, ingestBatch)
		}
	}
}

// crossCheck compares two workloads of one family op by op: the same
// answers, and a tight pool workload no more executions than its loose twin.
func crossCheck(aName string, a []opResult, bName string, b []opResult) []string {
	type key struct{ client, seq int }
	got := make(map[key]opResult)
	for _, r := range a {
		got[key{r.client, r.seq}] = r
	}
	var bad []string
	for _, r := range b {
		ar, ok := got[key{r.client, r.seq}]
		if !ok || r.err != nil || ar.err != nil || len(bad) >= 10 {
			continue
		}
		if ar.got != r.got {
			bad = append(bad, fmt.Sprintf("%s and %s disagree on op %d/%d: %d rows (sum %x) vs %d rows (sum %x)",
				aName, bName, r.client, r.seq, ar.got.n, ar.got.sum, r.got.n, r.got.sum))
		}
		if aName == "cold_loose" && r.enrich > ar.enrich {
			bad = append(bad, fmt.Sprintf("%s executed %d functions on op %d/%d, more than %s's %d",
				bName, r.enrich, r.client, r.seq, aName, ar.enrich))
		}
	}
	return bad
}
