package enrichdb

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func tenantDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	t.Cleanup(func() { db.Close() })
	err := db.CreateRelation("t", []Column{{Name: "id", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", 1, Int(1)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTenantQuotaQueueTimeout: a tenant at its own quota queues and times
// out while another tenant is admitted immediately — the global budget is
// not what blocks it.
func TestTenantQuotaQueueTimeout(t *testing.T) {
	db := tenantDB(t)
	db.SetServing(ServingConfig{
		MaxSessions:  10,
		QueueTimeout: 30 * time.Millisecond,
		Tenants: map[string]TenantConfig{
			"a": {MaxSessions: 1},
		},
	})
	held, err := db.SessionFor("a")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	start := time.Now()
	if _, err := db.SessionFor("a"); !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("second session for tenant a: got %v, want ErrSessionTimeout", err)
	}
	if wait := time.Since(start); wait < 25*time.Millisecond {
		t.Errorf("rejected after %v — should have queued for the full timeout", wait)
	}

	// Tenant b is unaffected by a's quota.
	other, err := db.SessionFor("b")
	if err != nil {
		t.Fatalf("tenant b blocked by tenant a's quota: %v", err)
	}
	other.Close()

	// Releasing a's session frees its slot for the next a session.
	held.Close()
	again, err := db.SessionFor("a")
	if err != nil {
		t.Fatalf("tenant a after release: %v", err)
	}
	again.Close()
}

// TestPriorityPreemptsQueueOrder: with one global slot and two queued
// tenants, the higher-priority tenant is admitted first even though it
// queued second.
func TestPriorityPreemptsQueueOrder(t *testing.T) {
	db := tenantDB(t)
	db.SetServing(ServingConfig{
		MaxSessions:  1,
		QueueTimeout: 5 * time.Second,
		Tenants: map[string]TenantConfig{
			"lo": {Priority: 0},
			"hi": {Priority: 5},
		},
	})
	held, err := db.SessionFor("lo")
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	admit := func(tenant string) {
		defer wg.Done()
		s, err := db.SessionFor(tenant)
		if err != nil {
			t.Errorf("%s: %v", tenant, err)
			return
		}
		order <- tenant
		// Hold briefly so the grant order is observable, then release the
		// slot for the next waiter.
		time.Sleep(10 * time.Millisecond)
		s.Close()
	}
	wg.Add(2)
	go admit("lo")
	// Make sure lo is queued before hi arrives.
	waitQueued(t, db, 1)
	go admit("hi")
	waitQueued(t, db, 2)

	held.Close()
	wg.Wait()
	if first := <-order; first != "hi" {
		t.Errorf("first admitted waiter = %q, want hi (queued later, higher priority)", first)
	}
	if second := <-order; second != "lo" {
		t.Errorf("second admitted waiter = %q, want lo", second)
	}
}

func waitQueued(t *testing.T, db *DB, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.Telemetry().Gauge("serve.sessions_queued").Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("serve.sessions_queued = %d, want %d",
				db.Telemetry().Gauge("serve.sessions_queued").Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionCounters audits the serve.* counters and per-tenant gauges
// across admits, immediate rejects, and releases.
func TestAdmissionCounters(t *testing.T) {
	db := tenantDB(t)
	db.SetServing(ServingConfig{
		MaxSessions: 2,
		// QueueTimeout zero: reject immediately at capacity.
		Tenants: map[string]TenantConfig{
			"a": {MaxSessions: 1},
		},
	})
	tel := db.Telemetry()

	s1, err := db.SessionFor("a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.SessionFor("b")
	if err != nil {
		t.Fatal(err)
	}

	// a is at its tenant cap; b's next is over the global cap.
	if _, err := db.SessionFor("a"); !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("a over tenant cap: got %v", err)
	}
	if _, err := db.SessionFor("b"); !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("b over global cap: got %v", err)
	}

	if got := tel.Counter("serve.sessions_admitted").Value(); got != 2 {
		t.Errorf("serve.sessions_admitted = %d, want 2", got)
	}
	if got := tel.Counter("serve.sessions_rejected").Value(); got != 2 {
		t.Errorf("serve.sessions_rejected = %d, want 2", got)
	}
	if got := tel.Counter("serve.tenant.a.rejected").Value(); got != 1 {
		t.Errorf("serve.tenant.a.rejected = %d, want 1", got)
	}
	if got := tel.Counter("serve.tenant.b.rejected").Value(); got != 1 {
		t.Errorf("serve.tenant.b.rejected = %d, want 1", got)
	}
	if got := tel.Gauge("serve.tenant.a.active").Value(); got != 1 {
		t.Errorf("serve.tenant.a.active = %d, want 1", got)
	}
	if got := tel.Gauge("serve.sessions_active").Value(); got != 2 {
		t.Errorf("serve.sessions_active = %d, want 2", got)
	}

	s1.Close()
	s2.Close()
	if got := tel.Gauge("serve.sessions_active").Value(); got != 0 {
		t.Errorf("serve.sessions_active after close = %d, want 0", got)
	}
	if got := tel.Gauge("serve.tenant.a.active").Value(); got != 0 {
		t.Errorf("serve.tenant.a.active after close = %d, want 0", got)
	}
	if got := tel.Gauge("serve.tenant.b.active").Value(); got != 0 {
		t.Errorf("serve.tenant.b.active after close = %d, want 0", got)
	}
}

// TestSessionTenant: SessionFor binds the tenant name, charging its
// active-session gauge until Close; Session is the anonymous tenant and
// charges no named tenant.
func TestSessionTenant(t *testing.T) {
	db := tenantDB(t)
	acme := db.Telemetry().Gauge("serve.tenant.acme.active")
	s, err := db.SessionFor("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := acme.Value(); got != 1 {
		t.Errorf("serve.tenant.acme.active = %d with an acme session open, want 1", got)
	}
	s.Close()
	if got := acme.Value(); got != 0 {
		t.Errorf("serve.tenant.acme.active = %d after Close, want 0", got)
	}
	anon, err := db.Session()
	if err != nil {
		t.Fatal(err)
	}
	if got := acme.Value(); got != 0 {
		t.Errorf("anonymous session charged acme: serve.tenant.acme.active = %d", got)
	}
	if got := db.Telemetry().Gauge("serve.sessions_active").Value(); got != 1 {
		t.Errorf("serve.sessions_active = %d, want 1", got)
	}
	anon.Close()
}

// TestQuotaReleaseOnManyChurningSessions hammers admission from many
// goroutines and checks the books balance: every admit has a release, no
// slot is leaked, and at most MaxSessions were ever concurrently active.
func TestQuotaReleaseChurn(t *testing.T) {
	db := tenantDB(t)
	db.SetServing(ServingConfig{
		MaxSessions:  3,
		QueueTimeout: 5 * time.Second,
		Tenants: map[string]TenantConfig{
			"x": {MaxSessions: 2},
			"y": {MaxSessions: 2, Priority: 1},
		},
	})
	var wg sync.WaitGroup
	tenants := []string{"x", "y", "x", "y", ""}
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := db.SessionFor(tenants[i%len(tenants)])
			if err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
			s.Close()
		}(i)
	}
	wg.Wait()
	tel := db.Telemetry()
	if got := tel.Gauge("serve.sessions_active").Value(); got != 0 {
		t.Errorf("serve.sessions_active after churn = %d, want 0", got)
	}
	if got := tel.Gauge("serve.sessions_queued").Value(); got != 0 {
		t.Errorf("serve.sessions_queued after churn = %d, want 0", got)
	}
	if got := tel.Counter("serve.sessions_admitted").Value(); got != 40 {
		t.Errorf("serve.sessions_admitted = %d, want 40", got)
	}
}
