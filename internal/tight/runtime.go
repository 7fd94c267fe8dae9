package tight

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"enrichdb/internal/enrich"
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/types"
)

// Runtime backs the rewritten queries' UDF calls (expr.EnrichRuntime). In
// non-progressive mode (Planned nil) read_udf executes every family function
// of the attribute; in progressive mode it executes only the functions the
// epoch's PlanTable assigns to the tuple.
//
// The runtime is safe for concurrent use: the progressive executor evaluates
// an epoch's planned rows on a worker pool, so several read_udf calls can be
// in flight at once. Enrichment state writes are serialized by the manager's
// singleflight; the runtime's own accounting is atomic.
type Runtime struct {
	DB  storage.Source
	Mgr *enrich.Manager

	// Planned returns the function IDs the current plan assigns to
	// (relation, tid, attr); nil means non-progressive execution (the whole
	// family is pending until fully enriched). Implementations must be safe
	// for concurrent calls.
	Planned func(relation string, tid int64, attr string) []int

	// InvokeOverhead is an artificial per-UDF-call cost emulating the
	// DBMS's per-row UDF invocation overhead (the paper measured 7.72 vs
	// 7.46 ms/tweet for per-row UDFs vs batched execution). Zero disables.
	// Concurrent ReadUDF calls whose pending work targets the same
	// (relation, attr, function-set) coalesce into one batch that pays it
	// once — the paper's batched table-UDF execution (§5.2.1). With a single
	// worker no calls overlap and every call pays its own overhead. Batching
	// never changes which functions execute, only how often the tax is paid.
	InvokeOverhead time.Duration

	// The runtime's accounting lives on the manager's telemetry registry
	// (NewRuntime wires it), so one Snapshot carries both the enrichment
	// counters and the UDF invocation counters Exp 4 reports.
	callNanos *telemetry.Counter // tight.udf_call_ns: wall-clock inside the three UDFs
	batches   *telemetry.Counter // tight.udf_payments: overhead payments made (batch leaders)
	coalesced *telemetry.Counter // tight.udf_coalesced: ReadUDF calls that shared a leader's payment

	gateMu sync.Mutex
	gates  map[gateKey]chan struct{}
}

// gateKey identifies one micro-batch: read_udf calls over the same relation,
// attribute and pending-function set group together.
type gateKey struct {
	relation string
	attr     string
	fnMask   uint64
}

// NewRuntime builds a runtime publishing its UDF counters onto the manager's
// telemetry registry. The source may be a live database or a session's
// snapshot; enrichment performed through a snapshot writes back
// generation-guarded, so superseded tuple images never clobber newer
// committed data.
func NewRuntime(db storage.Source, mgr *enrich.Manager) *Runtime {
	reg := mgr.Telemetry()
	return &Runtime{
		DB: db, Mgr: mgr, gates: make(map[gateKey]chan struct{}),
		callNanos: reg.Counter("tight.udf_call_ns"),
		batches:   reg.Counter("tight.udf_payments"),
		coalesced: reg.Counter("tight.udf_coalesced"),
	}
}

var _ expr.EnrichRuntime = (*Runtime)(nil)

// CallTime returns the cumulative wall-clock spent inside the three UDFs,
// including enrichment execution; subtracting the manager's EnrichTime gives
// the pure invocation overhead Exp 4 reports.
func (rt *Runtime) CallTime() time.Duration { return rt.callNanos.Duration() }

// BatchStats returns how many invocation-overhead payments were made and how
// many read_udf calls rode along on another call's payment (zero unless
// concurrent calls overlap).
func (rt *Runtime) BatchStats() (payments, coalesced int64) {
	return rt.batches.Value(), rt.coalesced.Value()
}

// pending returns the not-yet-executed function IDs relevant for (relation,
// tid, attr) under the current mode. Prior work only counts when it was
// computed from the same tuple image the runtime's source exposes (gen), so a
// snapshot session never treats enrichment of a newer committed image as its
// own.
func (rt *Runtime) pending(relation string, tid int64, attr string, gen uint64) ([]int, error) {
	fam := rt.Mgr.Family(relation, attr)
	if fam == nil {
		return nil, fmt.Errorf("tight: no family registered for %s.%s", relation, attr)
	}
	var candidates []int
	if rt.Planned != nil {
		candidates = rt.Planned(relation, tid, attr)
	} else {
		candidates = make([]int, len(fam.Functions))
		for i := range candidates {
			candidates[i] = i
		}
	}
	var out []int
	for _, id := range candidates {
		if !rt.Mgr.Enriched(relation, tid, attr, id, gen) {
			out = append(out, id)
		}
	}
	return out, nil
}

// errTupleGone marks a tuple that a concurrent committed delete removed
// between row materialization and UDF evaluation. The UDFs degrade to NULL
// for it (read-committed: the row no longer exists, so the predicate drops
// it) instead of aborting the query.
var errTupleGone = errors.New("tight: tuple deleted during evaluation")

// image returns the relation the runtime's source exposes and its image of
// tid (the live table's current image, or the frozen image of a session
// snapshot), plus the attribute's value when the image's enrichment mark says
// the whole family already determined it (marked false otherwise).
func (rt *Runtime) image(relation string, tid int64, attr string) (tbl storage.Relation, tu *types.Tuple, v types.Value, marked bool, err error) {
	if tbl, err = rt.DB.Table(relation); err != nil {
		return nil, nil, types.Null, false, err
	}
	if tu = tbl.Get(tid); tu == nil {
		return nil, nil, types.Null, false, errTupleGone
	}
	s := tbl.Schema()
	if tu.Enriched&s.MarkBit(attr) == 0 {
		return tbl, tu, types.Null, false, nil
	}
	return tbl, tu, tu.Vals[s.ColIndex(attr)], true, nil
}

// CheckState reports whether everything the plan requires for (relation,
// tid, attr) has already executed. A marked image answers without touching
// the state table: its whole family ran.
func (rt *Runtime) CheckState(relation string, tid int64, attr string) (bool, error) {
	defer rt.track(time.Now())
	rt.overhead()
	_, tu, _, marked, err := rt.image(relation, tid, attr)
	if errors.Is(err, errTupleGone) || marked {
		// A vanished tuple reports "enriched" too, so the rewrite falls
		// through to GetValue, which yields NULL for it and the predicate
		// drops the row.
		return true, nil
	}
	if err != nil {
		return false, err
	}
	p, err := rt.pending(relation, tid, attr, tu.Gen)
	if err != nil {
		return false, err
	}
	if len(p) > 0 && rt.Mgr.GenOf(relation, tid) != tu.Gen {
		// The shared state belongs to another image of this tuple (a commit
		// reset it under a frozen snapshot). Nothing this image enriches
		// would be kept, and the verdict must not flip between the two
		// evaluations the rewritten predicate makes: had the first one seen
		// the pre-reset state as done, a "not done" now would fail both of
		// its cases and drop the row. GetValue determinizes transiently.
		return true, nil
	}
	return len(p) == 0, nil
}

// GetValue returns the attribute's current determined value (the AValue
// column of the state table, or the marked image's own value). The rewrite
// only reaches it after check_state reported the plan's work done, so a NULL
// stored value means concurrency got between the two calls and GetValue
// falls back to the write-back itself.
func (rt *Runtime) GetValue(relation string, tid int64, attr string) (types.Value, error) {
	defer rt.track(time.Now())
	rt.overhead()
	tbl, tu, v, marked, err := rt.image(relation, tid, attr)
	if errors.Is(err, errTupleGone) || marked {
		return v, nil
	}
	if err != nil {
		return types.Null, err
	}
	if v := rt.Mgr.Value(relation, tid, attr, tu.Gen); !v.IsNull() {
		return v, nil
	}
	// check_state just reported the required functions executed, yet the
	// value column is NULL. Either a peer session sits between its last
	// function run and its write-back (state outputs land before the
	// value), or a concurrent commit reset the shared state under this
	// source's frozen image. Write back from the image: stored
	// same-generation outputs are reused as-is, and reset state forces a
	// transient recomputation — both yield the deterministic function of
	// this source's tuple image, which is what a serial execution answers,
	// and the image is marked when its whole family ran, as loose's
	// BuildRequests does. (With nothing executed and nothing stored — an
	// empty progressive plan — the value stays NULL and nothing is written.)
	return rt.Mgr.WriteBack(tbl, tu, attr)
}

// ReadUDF executes the pending enrichment function(s) on the tuple, updates
// the state, and returns the determined value, written back into the
// runtime's source.
func (rt *Runtime) ReadUDF(relation string, tid int64, attr string) (types.Value, error) {
	defer rt.track(time.Now())
	tbl, tu, _, _, err := rt.image(relation, tid, attr)
	if errors.Is(err, errTupleGone) {
		rt.overhead()
		return types.Null, nil
	}
	var feature []float64
	if err == nil {
		feature, err = tbl.Schema().Feature(tu, attr)
	}
	if err != nil {
		rt.overhead()
		return types.Null, err
	}
	pending, err := rt.pending(relation, tid, attr, tu.Gen)
	if err != nil {
		rt.overhead()
		return types.Null, err
	}
	if len(pending) > 0 {
		var mask uint64
		for _, id := range pending {
			mask |= 1 << uint(id)
		}
		rt.batchedOverhead(gateKey{relation, attr, mask})
	} else {
		rt.overhead()
	}
	for _, id := range pending {
		if _, _, err := rt.Mgr.Execute(relation, tid, attr, id, feature, tu.Gen); err != nil {
			return types.Null, err
		}
	}
	// Gen-guarded write-back: if the tuple was deleted or its fixed data
	// superseded since the image was read, the value silently stays off the
	// (now different or absent) base tuple.
	return rt.Mgr.WriteBack(tbl, tu, attr)
}

func (rt *Runtime) track(start time.Time) { rt.callNanos.AddDuration(time.Since(start)) }

// overhead pays the per-call invocation tax (per-row UDF execution).
func (rt *Runtime) overhead() {
	if rt.InvokeOverhead <= 0 {
		return
	}
	rt.batches.Add(1)
	spinFor(rt.InvokeOverhead)
}

// batchedOverhead pays the invocation tax once per batch: the first caller
// for a gate key becomes the leader and spins for InvokeOverhead — that spin
// is the batch's collection window — while calls for the same key arriving
// meanwhile wait on the leader and ride its payment, exactly like rows
// sharing one table-UDF invocation.
func (rt *Runtime) batchedOverhead(key gateKey) {
	if rt.InvokeOverhead <= 0 {
		return
	}
	rt.gateMu.Lock()
	if rt.gates == nil {
		rt.gates = make(map[gateKey]chan struct{})
	}
	if ch, busy := rt.gates[key]; busy {
		rt.gateMu.Unlock()
		rt.coalesced.Add(1)
		<-ch
		return
	}
	ch := make(chan struct{})
	rt.gates[key] = ch
	rt.gateMu.Unlock()

	rt.batches.Add(1)
	spinFor(rt.InvokeOverhead)

	rt.gateMu.Lock()
	delete(rt.gates, key)
	rt.gateMu.Unlock()
	close(ch)
}

// spinFor busy-polls until d has elapsed, emulating the per-invocation
// overhead as a latency tax on the session rather than exclusive CPU burn:
// the Gosched lets concurrent epoch workers overlap their taxes (and reach a
// batch leader's gate while it is still collecting), the way a DBMS overlaps
// bookkeeping across sessions. Sleeping outright would under-represent load;
// spinning without yielding would serialize workers on small core counts.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}
