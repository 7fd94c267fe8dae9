package enrichdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enrichdb/internal/storage"
	"enrichdb/internal/telemetry"
)

// TenantConfig bounds one tenant's share of the serving capacity.
type TenantConfig struct {
	// MaxSessions caps the tenant's concurrently open sessions; 0 or negative
	// means no per-tenant cap (the global MaxSessions still applies).
	MaxSessions int
	// Priority orders the admission queue: when a slot frees up, the waiting
	// session with the highest priority is admitted first (FIFO within a
	// priority). Unconfigured tenants have priority 0; negatives are allowed.
	Priority int
}

// ServingConfig bounds concurrent serving (admission control).
type ServingConfig struct {
	// MaxSessions is the maximum number of concurrently open sessions across
	// all tenants; 0 or negative means unlimited.
	MaxSessions int
	// QueueTimeout is how long Session() waits for a slot when the database
	// is at capacity before failing with ErrSessionTimeout. Zero rejects
	// immediately when at capacity.
	QueueTimeout time.Duration
	// Tenants holds per-tenant quotas and priorities, keyed by tenant name.
	// Tenants not listed here are admitted with no per-tenant cap at
	// priority 0. An empty map (with MaxSessions > 0) gives every tenant the
	// same treatment.
	Tenants map[string]TenantConfig
}

// ErrSessionTimeout is returned by Session when admission control could not
// grant a slot within the configured queue timeout.
var ErrSessionTimeout = fmt.Errorf("enrichdb: session admission timed out")

// tenantGate tracks one tenant's admission state under admission.mu.
type tenantGate struct {
	name     string
	max      int // per-tenant session cap; <=0 unlimited
	priority int
	active   int
}

// waiter is one queued Session call, held in admission.waiters in arrival
// order. The granting goroutine (a releasing Close) moves the accounting and
// closes ready under admission.mu; granted disambiguates the race between a
// grant and the waiter's own timeout.
type waiter struct {
	gate    *tenantGate
	ready   chan struct{}
	granted bool
}

// admission is the gate behind SetServing: a priority queue of waiters over
// a global slot count plus per-tenant quotas. Session() admits immediately
// when both the global and the tenant budget have room; otherwise it queues
// up to the timeout. A releasing Close grants the highest-priority waiter
// whose tenant is under quota (FIFO within a priority) — waiters blocked only
// by their own tenant's cap never hold up other tenants. The serve.* gauges
// and counters publish its state.
type admission struct {
	timeout time.Duration
	max     int // global session cap; <=0 unlimited

	mu      sync.Mutex
	active  int
	gates   map[string]*tenantGate
	waiters []*waiter
}

// SetServing installs admission control for Session and SessionFor. Sessions
// already open keep their slots from the previous configuration; passing a
// zero config (no global cap, no tenants) removes the limit. Telemetry:
// serve.sessions_active, serve.sessions_queued (gauges),
// serve.sessions_admitted, serve.sessions_rejected, serve.queue_wait_ns
// (counters), plus per-tenant serve.tenant.<name>.active gauges and
// .admitted/.rejected counters for named tenants.
func (db *DB) SetServing(cfg ServingConfig) {
	if cfg.MaxSessions <= 0 && len(cfg.Tenants) == 0 {
		db.serving.Store(nil)
		return
	}
	a := &admission{
		timeout: cfg.QueueTimeout,
		max:     cfg.MaxSessions,
		gates:   make(map[string]*tenantGate, len(cfg.Tenants)),
	}
	for name, tc := range cfg.Tenants {
		a.gates[name] = &tenantGate{name: name, max: tc.MaxSessions, priority: tc.Priority}
	}
	db.serving.Store(a)
}

// gateLocked returns the tenant's gate, creating an uncapped priority-0 gate
// for tenants absent from the configuration.
func (a *admission) gateLocked(tenant string) *tenantGate {
	g := a.gates[tenant]
	if g == nil {
		g = &tenantGate{name: tenant}
		a.gates[tenant] = g
	}
	return g
}

// grantableLocked reports whether a session for g fits both budgets.
func (a *admission) grantableLocked(g *tenantGate) bool {
	if a.max > 0 && a.active >= a.max {
		return false
	}
	return g.max <= 0 || g.active < g.max
}

// grantLocked charges one session to the global and tenant budgets.
func (a *admission) grantLocked(g *tenantGate) {
	a.active++
	g.active++
}

// grantWaitersLocked hands freed capacity to queued waiters: repeatedly the
// grantable waiter with the highest priority (earliest arrival within a
// priority) is admitted, skipping waiters blocked by their own tenant cap.
func (a *admission) grantWaitersLocked() {
	for {
		best := -1
		for i, w := range a.waiters {
			if !a.grantableLocked(w.gate) {
				continue
			}
			if best < 0 || w.gate.priority > a.waiters[best].gate.priority {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := a.waiters[best]
		a.waiters = append(a.waiters[:best], a.waiters[best+1:]...)
		w.granted = true
		a.grantLocked(w.gate)
		close(w.ready)
	}
}

func (a *admission) removeWaiterLocked(w *waiter) {
	for i, q := range a.waiters {
		if q == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return
		}
	}
}

func admitCounters(reg *telemetry.Registry, g *tenantGate) {
	reg.Counter("serve.sessions_admitted").Add(1)
	if g.name != "" {
		reg.Counter("serve.tenant." + g.name + ".admitted").Add(1)
	}
}

func rejectCounters(reg *telemetry.Registry, g *tenantGate) {
	reg.Counter("serve.sessions_rejected").Add(1)
	if g.name != "" {
		reg.Counter("serve.tenant." + g.name + ".rejected").Add(1)
	}
}

// observeWait records one admission's queue wait in the serve.admission_wait_ms
// histogram (zero for immediate grants, so quantiles cover every admission).
func observeWait(reg *telemetry.Registry, d time.Duration) {
	reg.Histogram("serve.admission_wait_ms", telemetry.LatencyBucketsMs).ObserveDuration(d)
}

// acquire admits one session for tenant, queueing up to the timeout. On
// success it returns the charged gate; release undoes the charge.
func (a *admission) acquire(reg *telemetry.Registry, tenant string) (*tenantGate, error) {
	a.mu.Lock()
	g := a.gateLocked(tenant)
	if a.grantableLocked(g) {
		a.grantLocked(g)
		a.mu.Unlock()
		admitCounters(reg, g)
		observeWait(reg, 0)
		return g, nil
	}
	if a.timeout <= 0 {
		a.mu.Unlock()
		rejectCounters(reg, g)
		return nil, ErrSessionTimeout
	}
	w := &waiter{gate: g, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	reg.Gauge("serve.sessions_queued").Add(1)
	defer reg.Gauge("serve.sessions_queued").Add(-1)
	waitStart := time.Now()
	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case <-w.ready:
		reg.Counter("serve.queue_wait_ns").Add(time.Since(waitStart).Nanoseconds())
		admitCounters(reg, g)
		observeWait(reg, time.Since(waitStart))
		return g, nil
	case <-t.C:
	}
	// The timer fired, but a grant may have raced it: granted is settled
	// under the lock, and a granted waiter keeps its slot (the grantor
	// already charged the budgets).
	a.mu.Lock()
	if w.granted {
		a.mu.Unlock()
		reg.Counter("serve.queue_wait_ns").Add(time.Since(waitStart).Nanoseconds())
		admitCounters(reg, g)
		observeWait(reg, time.Since(waitStart))
		return g, nil
	}
	a.removeWaiterLocked(w)
	a.mu.Unlock()
	rejectCounters(reg, g)
	return nil, ErrSessionTimeout
}

// TenantStatus is one tenant's live admission state (a /statusz row).
type TenantStatus struct {
	Name     string // "" is the default tenant
	Active   int    // open sessions
	Max      int    // per-tenant cap; <=0 unlimited
	Priority int
	Queued   int // sessions waiting on this tenant's quota or the global cap
}

// ServingStatus is a point-in-time view of admission control, the data
// behind the serving tier's /statusz endpoint.
type ServingStatus struct {
	Enabled     bool
	MaxSessions int // global cap; <=0 unlimited
	Active      int // open sessions across all tenants
	Queued      int // waiters across all tenants
	Tenants     []TenantStatus
}

// ServingStatus reports the admission gate's live state: totals plus one row
// per tenant that has a configured quota or has opened a session, sorted by
// name. With serving disabled it returns the zero value.
func (db *DB) ServingStatus() ServingStatus {
	a := db.serving.Load()
	if a == nil {
		return ServingStatus{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := ServingStatus{Enabled: true, MaxSessions: a.max, Active: a.active, Queued: len(a.waiters)}
	queued := make(map[string]int)
	for _, w := range a.waiters {
		queued[w.gate.name]++
	}
	names := make([]string, 0, len(a.gates))
	for name := range a.gates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := a.gates[name]
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: g.name, Active: g.active, Max: g.max,
			Priority: g.priority, Queued: queued[g.name],
		})
	}
	return st
}

// release returns one session's capacity and wakes eligible waiters.
func (a *admission) release(g *tenantGate) {
	a.mu.Lock()
	a.active--
	g.active--
	a.grantWaitersLocked()
	a.mu.Unlock()
}

// Version returns the commit version: the number of committed writes
// (inserts, updates, deletes) since the database opened. Snapshot-isolated
// sessions are tagged with the version their snapshot was taken at.
func (db *DB) Version() uint64 { return db.version.Load() }

// Session is a snapshot-isolated read view of the database, taken atomically
// across all relations at one commit version.
//
// Queries on a session (Run, under any design) see exactly the data
// committed as of Version(), regardless of concurrent writers. Query-time
// enrichment performed inside a session is written into the session's own
// view (so the session's answers include it) and shared back to the live
// database generation-guarded: enrichment of tuples that still exist
// unchanged benefits every later query — the paper's "exploit prior work"
// probe step — while enrichment computed from superseded tuple images is
// dropped. Enrichment state (the manager) and the worker pools are shared
// across all sessions; concurrent identical computations collapse into one
// function run via the manager's generation-keyed singleflight.
//
// A session must be Closed to release its admission slot. Sessions are safe
// for concurrent use by multiple goroutines.
type Session struct {
	db      *DB
	snap    storage.Source
	version uint64
	tenant  string
	adm     *admission  // nil when admission control is off
	gate    *tenantGate // charged tenant budget, released by Close
	closed  atomic.Bool
}

// Session opens a snapshot-isolated session at the current commit version
// for the default (unnamed) tenant, subject to admission control when
// SetServing configured a session limit (queueing up to the configured
// timeout for a free slot).
func (db *DB) Session() (*Session, error) { return db.SessionFor("") }

// SessionFor opens a snapshot-isolated session on behalf of the named
// tenant. The tenant's quota and queue priority from ServingConfig.Tenants
// apply; tenants absent from the configuration are admitted uncapped at
// priority 0 (the global MaxSessions still applies).
func (db *DB) SessionFor(tenant string) (*Session, error) {
	reg := db.Telemetry()
	adm := db.serving.Load()
	var gate *tenantGate
	if adm != nil {
		var err error
		if gate, err = adm.acquire(reg, tenant); err != nil {
			return nil, err
		}
	}
	// Freeze the snapshot under the commit lock so the view is atomic across
	// relations and carries exactly one commit version.
	db.commitMu.Lock()
	version := db.version.Load()
	snap := db.store.Freeze()
	db.commitMu.Unlock()
	reg.Gauge("serve.sessions_active").Add(1)
	if tenant != "" {
		reg.Gauge("serve.tenant." + tenant + ".active").Add(1)
	}
	return &Session{db: db, snap: snap, version: version, tenant: tenant, adm: adm, gate: gate}, nil
}

// Close releases the session's admission slot. Closing twice is a no-op.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	reg := s.db.Telemetry()
	reg.Gauge("serve.sessions_active").Add(-1)
	if s.tenant != "" {
		reg.Gauge("serve.tenant." + s.tenant + ".active").Add(-1)
	}
	if s.adm != nil {
		s.adm.release(s.gate)
	}
	return nil
}

// Version returns the commit version the session's snapshot was taken at.
func (s *Session) Version() uint64 { return s.version }

// errSessionClosed is returned by every query method of a closed session.
var errSessionClosed = errors.New("enrichdb: session is closed")

// Run is DB.Run against the session's snapshot: the same pipeline, the same
// designs, cancellation and observability, reading the data committed as of
// Version(). Enrichment performed by a loose or tight run lands in the
// session's view and, generation-guarded, in the live tables. A progressive
// run refines its answer against the live tables instead (read-committed),
// sharing the scheduler pool and enrichment state with every concurrent
// session.
func (s *Session) Run(ctx context.Context, design Design, query string, obs QueryObs) (*Result, error) {
	if s.closed.Load() {
		return nil, errSessionClosed
	}
	return s.db.run(ctx, s.snap, design, query, obs)
}
