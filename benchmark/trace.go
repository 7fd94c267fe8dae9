package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"enrichdb/internal/engine"
	"enrichdb/internal/expr"
	"enrichdb/internal/ivm"
	"enrichdb/internal/loose"
	"enrichdb/internal/shard"
	"enrichdb/internal/sqlparser"
	"enrichdb/internal/stats"
	"enrichdb/internal/storage"
	"enrichdb/internal/tight"
	"enrichdb/internal/types"
	"enrichdb/internal/wire"
)

// span is one timed interval of the traced run. Spans of one op share its
// id; Parent is the id of the span that caused this one (0 for an op's root).
type span struct {
	Name   string           `json:"name"`
	Op     int              `json:"op"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (rc *recorder) add(name string, op, parent int, start, end time.Time, attrs map[string]int64) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	id := len(rc.spans) + 1
	rc.spans = append(rc.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: start.Sub(rc.t0).Nanoseconds(), End: end.Sub(rc.t0).Nanoseconds(), Attrs: attrs})
	return id
}

func (rc *recorder) write(workload string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return writeOut("trace-"+workload+".jsonl", buf.Bytes())
}

// replayOps caps how many ops of the op list the layer replay runs.
const replayOps = 32

// replayed is the layer replay of one workload: per replayed op, the time
// under each layer's entry points and the counts taken at the same places.
type replayed struct {
	rc      *recorder
	root    int // current op's root span
	op      int
	layerMs map[string][]float64 // layer span name -> per-op total, direct children of the root only
	counts  map[string][]float64 // count name -> per-op value
	cur     map[string]float64   // the current op's layer totals
}

// time runs fn as a direct child span of the current op's root.
func (rp *replayed) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	rp.rc.add(name, rp.op, rp.root, start, end, nil)
	rp.cur[name] += ms(end.Sub(start))
	return err
}

func (rp *replayed) count(name string, v float64) { rp.counts[name] = append(rp.counts[name], v) }

// begin and finish bracket one replayed op.
func (rp *replayed) begin(op int) {
	rp.op, rp.cur = op, map[string]float64{}
	now := time.Now()
	rp.root = rp.rc.add("replay.op", op, 0, now, now, nil) // end patched by finish
}

func (rp *replayed) finish() {
	rp.rc.spans[rp.root-1].End = time.Since(rp.rc.t0).Nanoseconds()
	for name, v := range rp.cur {
		rp.layerMs[name] = append(rp.layerMs[name], v)
	}
}

// layer is the median per-op time under one layer (0 if it never ran).
func (rp *replayed) layer(name string) float64 { return median(rp.layerMs[name]) }
func (rp *replayed) cnt(name string) float64   { return median(rp.counts[name]) }

// layerSum adds the medians of every layer the replay timed.
func (rp *replayed) layerSum() float64 {
	sum := 0.0
	for name := range rp.layerMs {
		sum += rp.layer(name)
	}
	return sum
}

// replay runs the workload's op list in-process over a twin store built
// from the same rows, timing the layers' public entry points one by one in
// the order the served path calls them. Its ops are numbered from firstOp.
func (in *instance) replay(rc *recorder, firstOp int) (*replayed, error) {
	s := in.spec
	rp := &replayed{rc: rc, layerMs: map[string][]float64{}, counts: map[string][]float64{}}
	var store storage.Store = storage.NewDB()
	if s.shards > 1 {
		store = shard.New(shard.Config{Shards: s.shards})
	}
	tw, err := loadTwin(store, in.dbs[0].rows, in.models)
	if err != nil {
		return nil, err
	}
	reg, st := tw.mgr.Telemetry(), stats.NewStore()
	enricher := &loose.LocalEnricher{Mgr: tw.mgr}
	if s.kind != kindPool {
		// Bring the twin to the served database's warm state.
		warmSQL := "SELECT id FROM tweets WHERE sentiment = 0 AND topic = 0"
		if s.kind == kindIngest {
			warmSQL = in.ops[0].sql
		}
		if _, err := (&loose.Driver{DB: tw.store, Mgr: tw.mgr, Enricher: enricher}).Execute(warmSQL); err != nil {
			return nil, err
		}
	}
	// A connection's session reads one frozen snapshot; ingest_mix opens a
	// new one per op, progressive runs over the live store.
	var src storage.Source = tw.store.Freeze()
	if s.design == wire.DesignProgressive {
		src = tw.store
	}
	n := min(len(in.ops), replayOps)
	if s.kind == kindIngest {
		n = replayOps
	}
	for i := 0; i < n; i++ {
		o := in.ops[i%len(in.ops)]
		before := reg.Snapshot().Counters
		ctx := engine.NewExecCtx()
		ctx.Adapt = st
		rp.begin(firstOp + i)
		var wireBytes int

		if s.kind == kindIngest {
			tbl, err := tw.store.BaseTable("tweets")
			if err != nil {
				return nil, err
			}
			batch := in.nextBatch(o) // ids go on from the served run's
			err = rp.time("storage.insert", func() error {
				for _, t := range batch {
					if _, err := tbl.Insert(&types.Tuple{ID: t.id, Vals: tweetValues(t)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			rp.time("storage.snapshot", func() error { src = tw.store.Freeze(); return nil })
		}

		// The request frame, client side then server side.
		var req wire.Frame = &wire.Query{ID: 1, Design: s.design, SQL: o.sql}
		if s.kind == kindShared {
			req = &wire.Execute{ID: 1, Name: stmtName(i)}
		}
		var buf []byte
		if err := rp.time("wire.encode", func() (err error) { buf, err = wire.AppendFrame(buf[:0], req); return }); err != nil {
			return nil, err
		}
		wireBytes += len(buf)
		if err := rp.time("wire.decode", func() error { _, err := wire.ReadFrame(bytes.NewReader(buf), 0); return err }); err != nil {
			return nil, err
		}

		analyze := func() (a *engine.Analysis, err error) {
			var stmt *sqlparser.SelectStmt
			if err = rp.time("sqlparser.parse", func() (err error) { stmt, err = sqlparser.Parse(o.sql); return }); err != nil {
				return nil, err
			}
			err = rp.time("engine.analyze", func() (err error) { a, err = engine.Analyze(stmt, src.Catalog()); return })
			return a, err
		}
		a, err := analyze()
		if err != nil {
			return nil, err
		}
		var rows []*expr.Row
		var tightScanned int64 // the tight driver runs on a context of its own
		execute := func() error {
			var plan engine.Plan
			if err := rp.time("engine.build", func() (err error) { plan, err = engine.Build(a, src); return }); err != nil {
				return err
			}
			return rp.time("engine.execute", func() (err error) { rows, err = plan.Execute(ctx); return })
		}
		// looseSteps is probe -> requests -> enrich -> write back, the loose
		// driver's phases (the progressive replay reuses them for one epoch
		// that covers the whole window).
		var probed []int64
		looseSteps := func() error {
			drv := &loose.Driver{DB: src, Mgr: tw.mgr, Enricher: enricher, Stats: st}
			var probes []loose.ProbeResult
			if err := rp.time("loose.probe", func() (err error) { probes, err = loose.GenerateProbes(a, src, tw.mgr, ctx); return }); err != nil {
				return err
			}
			attrs := 0
			for _, p := range probes {
				probed = append(probed, p.TIDs...)
				attrs = len(p.Attrs)
			}
			var reqs []loose.Request
			if err := rp.time("loose.requests", func() (err error) { reqs, err = drv.BuildRequests(probes); return }); err != nil {
				return err
			}
			rp.count("loose.probed", float64(len(probed)))
			if attempted := len(probed) * attrs * len(in.models.sentiment); attempted > 0 {
				rp.count("loose.requests_per_probed", float64(len(reqs))/float64(attempted))
			}
			if len(reqs) == 0 {
				return nil
			}
			var resps []loose.Response
			if err := rp.time("enrich.batch", func() (err error) { resps, _, err = enricher.EnrichBatch(reqs); return }); err != nil {
				return err
			}
			return rp.time("loose.write_back", func() error { return drv.WriteBack(resps) })
		}

		switch {
		case s.design == wire.DesignPlain && s.shards > 1:
			sc := src.(shard.Scatterable)
			err = rp.time("shard.scatter", func() (err error) { rows, _, _, err = shard.Scatter(a, sc, ctx); return })
			// The parallel part's lower bound: the slowest single shard's plan,
			// run alone. What scatter takes beyond it is merge and hand-off.
			slowest := 0.0
			for k := 0; err == nil && k < sc.NumShards(); k++ {
				part := engine.NewExecCtx()
				t0 := time.Now()
				var plan engine.Plan
				if plan, err = engine.Build(a, sc.ShardSource(k)); err == nil {
					_, err = plan.Execute(part)
				}
				slowest = max(slowest, ms(time.Since(t0)))
				ctx.Stats.RowsScanned += part.Stats.RowsScanned
			}
			rp.count("shard.slowest_part_ms", slowest)
			if sct := rp.cur["shard.scatter"]; sct > 0 {
				rp.count("shard.merge_share", max(0, 1-slowest/sct))
			}
		case s.design == wire.DesignPlain:
			err = execute()
		case s.design == wire.DesignLoose:
			// Session.QueryLooseObs: the driver runs, then the query is
			// analyzed and built a second time for the result schema.
			if err = looseSteps(); err == nil {
				err = execute()
			}
			if err == nil {
				if a, err = analyze(); err == nil {
					err = rp.time("engine.build", func() error { _, err := engine.Build(a, src); return err })
				}
			}
		case s.design == wire.DesignTight:
			// The rewrite alone, for its own number; ExecuteAnalyzed repeats it.
			t0 := time.Now()
			if _, err = tight.RewriteAnalysis(a); err != nil {
				return nil, err
			}
			rp.count("tight.rewrite_ms", ms(time.Since(t0)))
			var res *tight.Result
			drv := &tight.Driver{DB: src, Mgr: tw.mgr, Stats: st}
			err = rp.time("tight.execute", func() (err error) { res, err = drv.ExecuteAnalyzed(a); return })
			if err == nil {
				rows, tightScanned = res.Rows, res.Stats.RowsScanned
				rp.count("tight.udf_calls", float64(res.UDFInvocations))
				if a, err = analyze(); err == nil {
					err = rp.time("engine.build", func() error { _, err := engine.Build(a, src); return err })
				}
			}
		case s.design == wire.DesignProgressive:
			var view *ivm.View
			if err = rp.time("ivm.new", func() (err error) { view, err = ivm.New(a, src, ctx); return }); err != nil {
				return nil, err
			}
			tbl, terr := src.Table("tweets")
			if terr != nil {
				return nil, terr
			}
			// Stored tuples are immutable, so the images read before the
			// enrichment stay valid as the deltas' old sides.
			old := make(map[int64]*types.Tuple)
			for _, t := range in.dbs[0].rows {
				if t.hour >= o.a && t.hour <= o.b {
					old[t.id] = tbl.Get(t.id)
				}
			}
			if err = looseSteps(); err != nil {
				return nil, err
			}
			deltas := make([]ivm.TupleDelta, 0, len(probed))
			for _, tid := range probed {
				deltas = append(deltas, ivm.TupleDelta{Relation: "tweets", Old: old[tid], New: tbl.Get(tid)})
			}
			err = rp.time("ivm.apply", func() error { _, err := view.Apply(ctx, deltas); return err })
			rows = view.Rows()
		}
		if err != nil {
			return nil, err
		}

		// The result stream, server side then client side.
		frames := []wire.Frame{&wire.ResultHeader{Query: 1, Columns: []string{"id", "hour"}}}
		var out [][]byte
		err = rp.time("wire.encode", func() error {
			for lo := 0; lo < len(rows); lo += wire.DefaultBatchRows {
				chunk := make([][]types.Value, 0, wire.DefaultBatchRows)
				for _, r := range rows[lo:min(lo+wire.DefaultBatchRows, len(rows))] {
					chunk = append(chunk, r.Vals)
				}
				frames = append(frames, wire.BatchFromValues(1, chunk))
			}
			frames = append(frames, &wire.ResultDone{Query: 1, Rows: uint64(len(rows))})
			for _, f := range frames {
				b, err := wire.AppendFrame(nil, f)
				if err != nil {
					return err
				}
				out = append(out, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = rp.time("wire.decode", func() error {
			for _, b := range out {
				wireBytes += len(b)
				f, err := wire.ReadFrame(bytes.NewReader(b), 0)
				if err != nil {
					return err
				}
				if rb, ok := f.(*wire.ResultBatch); ok {
					if _, err := rb.Values(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rp.finish()

		after := reg.Snapshot().Counters
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		rp.count("wire.bytes", float64(wireBytes))
		rp.count("enrich.execs", delta("enrich.executions"))
		rp.count("enrich.skipped", delta("enrich.skipped"))
		rp.count("enrich.exec_ms", delta("enrich.exec_ns")/1e6)
		rp.count("tight.udf_payments", delta("tight.udf_payments"))
		rp.count("rows_scanned_per_row_out", float64(ctx.Stats.RowsScanned+tightScanned)/float64(max(len(rows), 1)))
	}
	return rp, nil
}

// medianOf times fn reps times and returns the median in ms.
func medianOf(reps int, fn func() error) (float64, error) {
	var vs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		vs = append(vs, ms(time.Since(t0)))
	}
	return median(vs), nil
}

// tracedRun is the traced run of one set-up workload, after its untraced
// pass `plain` (the reference latency): a served pass in which every op
// carries the wire sampling flag, the layer replay, and a few direct timings
// of set-up-side entry points. It returns the per-layer metrics and writes
// the span file. It never feeds the end-to-end numbers.
func tracedRun(in *instance, lim limits, plain passResult) (map[string]metric, error) {
	s := in.spec
	runtime.GC()
	queueWait := func() (ns int64) {
		for _, sv := range in.dbs {
			ns += sv.db.Telemetry().Counter("serve.queue_wait_ns").Value()
		}
		return ns
	}
	waitBefore := queueWait()
	rc := &recorder{t0: time.Now()}
	sampled := in.pass(lim, true)
	waitAfter := queueWait()

	// Client spans: op ⊃ server.wall, the remainder being server.overhead
	// (wire, queueing, scheduling). The server's own span summaries ride on
	// the server.wall span as attributes.
	var overhead, dials, plan, enrich, delta, ett []float64
	for i, r := range sampled.results {
		if r.err != nil {
			continue
		}
		start, end := r.start, r.start.Add(r.lat)
		id := rc.add("op", i, 0, start, end, nil)
		attrs := map[string]int64{}
		if r.profile != nil {
			for _, sp := range r.profile.Spans {
				attrs[sp.Name+"_us"] += sp.DurUS
			}
		}
		rc.add("server.wall", i, id, start, start.Add(r.wall), attrs)
		rc.add("server.overhead", i, id, start.Add(r.wall), end, nil)
		overhead = append(overhead, ms(r.lat-r.wall))
		if r.dial > 0 {
			dials = append(dials, ms(r.dial))
		}
		for _, e := range r.epochFrames {
			plan = append(plan, float64(e.PlanNs)/1e6)
			enrich = append(enrich, float64(e.EnrichNs)/1e6)
			delta = append(delta, float64(e.DeltaNs)/1e6)
		}
		if r.epochsToTarget > 0 {
			ett = append(ett, float64(r.epochsToTarget))
		}
	}

	pst, sst := plain.stats(), sampled.stats()

	rp, err := in.replay(rc, len(sampled.results)) // op ids continue after the served ops'
	if err != nil {
		return nil, fmt.Errorf("%s layer replay: %w", s.name, err)
	}

	sv := in.dbs[0]
	if len(dials) == 0 {
		d, err := medianOf(5, func() error {
			c, err := sv.dial()
			if err == nil {
				c.Close()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		dials = []float64{d}
	}
	open, err := medianOf(5, func() error {
		sess, err := sv.db.SessionFor(benchTenant)
		if err == nil {
			sess.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// DB.Insert through the public commit path, on a database of its own so
	// that the served one stays as the checks expect it.
	scratch, err := loadDB(nil, in.models, s.shards)
	if err != nil {
		return nil, err
	}
	defer scratch.Close()
	extra := genTweets(rand.New(rand.NewSource(in.seed)), 64*combos, 1, 1)
	t0 := time.Now()
	if err := insertTweets(scratch, extra); err != nil {
		return nil, err
	}
	insertUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(extra))
	snapshot := rp.layer("storage.snapshot")
	if snapshot == 0 {
		// Only ingest_mix snapshots per op; elsewhere time it once more here.
		snapshot, _ = medianOf(5, func() error {
			sess, err := sv.db.Session()
			if err == nil {
				sess.Close()
			}
			return err
		})
	}

	sum := rp.layerSum()
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	execs := rp.cnt("enrich.execs")
	layers := map[string]metric{
		"enrich_execs_per_op": {sst.execsPerOp, "count"},
		"server.overhead_ms":  {median(overhead), "ms"},
		"wire.encode_ms":      {rp.layer("wire.encode"), "ms"},
		"wire.decode_ms":      {rp.layer("wire.decode"), "ms"},
		"wire.bytes_per_op":   {rp.cnt("wire.bytes"), "B"},
		"server.handshake_ms": {median(dials), "ms"},
		"session.open_ms":     {open, "ms"},
		"serve.queue_wait_ns": {ratio(float64(waitAfter-waitBefore), float64(sst.ops)), "ns"},
		"sqlparser.parse_ms":  {rp.layer("sqlparser.parse"), "ms"},
		"engine.analyze_ms":   {rp.layer("engine.analyze"), "ms"},
		"engine.build_ms":     {rp.layer("engine.build"), "ms"},
		// On a sharded store the plan runs inside scatter: report the slowest
		// shard's plan, run alone.
		"engine.execute_ms":               {rp.layer("engine.execute") + rp.cnt("shard.slowest_part_ms"), "ms"},
		"engine.rows_scanned_per_row_out": {rp.cnt("rows_scanned_per_row_out"), "ratio"},
		"loose.probe_ms":                  {rp.layer("loose.probe"), "ms"},
		"loose.probed_per_op":             {rp.cnt("loose.probed"), "count"},
		"loose.requests_per_probed":       {rp.cnt("loose.requests_per_probed"), "ratio"},
		"loose.write_back_ms":             {rp.layer("loose.write_back"), "ms"},
		"tight.rewrite_ms":                {rp.cnt("tight.rewrite_ms"), "ms"},
		"tight.execute_ms":                {rp.layer("tight.execute"), "ms"},
		"tight.udf_calls_per_op":          {rp.cnt("tight.udf_calls"), "count"},
		"tight.udf_payments_per_op":       {rp.cnt("tight.udf_payments"), "count"},
		"enrich.exec_ms":                  {rp.cnt("enrich.exec_ms"), "ms"},
		"enrich.execs_per_op":             {execs, "count"},
		"enrich.skipped_per_op":           {rp.cnt("enrich.skipped"), "count"},
		"enrich.layer_share":              {ratio(rp.cnt("enrich.exec_ms"), sum), "ratio"},
		"ml.predict_us_per_exec":          {ratio(rp.cnt("enrich.exec_ms")*1000, execs), "us"},
		"progressive.plan_ms":             {median(plan), "ms"},
		"progressive.enrich_ms":           {median(enrich), "ms"},
		"progressive.delta_ms":            {median(delta), "ms"},
		"progressive.epochs_to_target":    {median(ett), "count"},
		"ivm.new_ms":                      {rp.layer("ivm.new"), "ms"},
		"ivm.apply_ms":                    {rp.layer("ivm.apply"), "ms"},
		"storage.insert_us_per_row":       {insertUs, "us"},
		"storage.snapshot_ms":             {snapshot, "ms"},
		"shard.scatter_ms":                {rp.layer("shard.scatter"), "ms"},
		"shard.merge_share":               {rp.cnt("shard.merge_share"), "ratio"},
		"trace_overhead_ratio":            {ratio(sst.p50, pst.p50), "ratio"},
		"layer_sum_ratio":                 {ratio(sum, pst.p50), "ratio"},
	}
	return layers, rc.write(s.name)
}

// layerNames lists the per-layer metrics in a stable order.
func layerNames(layers map[string]metric) []string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
