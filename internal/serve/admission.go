// Admission control: bounded per-tenant work queues with backpressure and
// load shedding. Every /v1 request must acquire an execution slot before it
// touches the compiler or an execution backend. A tenant gets PerTenant
// concurrent slots and a bounded waiting line of QueueDepth requests behind
// them; a global MaxConcurrent bound caps the whole process. When a
// tenant's line is full the request is shed immediately — a 429 with a
// Retry-After estimate — instead of queueing without bound, so hostile or
// merely enthusiastic traffic degrades into fast, explicit rejections
// rather than unbounded goroutines, latency collapse, or OOM. A request
// whose context expires while it waits in line is shed the same way: the
// service was too busy to start it within its budget.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// Admission defaults (see Config for the tunable versions).
const (
	DefaultMaxConcurrent = 16
	DefaultPerTenant     = 8
	DefaultQueueDepth    = 32
	// maxTrackedTenants bounds the tenant table itself: hostile traffic
	// inventing a new tenant name per request must not grow server memory
	// without bound. Idle tenants are evicted past this watermark.
	maxTrackedTenants = 1024
)

// ErrShed is returned when a request is load-shed: its tenant's waiting
// line was full (QueueFull) or its context expired before a slot freed up.
type ErrShed struct {
	Tenant string
	// Queued is how many requests were in the tenant's line when this one
	// was declined (informs the Retry-After estimate).
	Queued int
	// QueueFull distinguishes an immediate shed from a waiting timeout.
	QueueFull bool
}

func (e *ErrShed) Error() string {
	if e.QueueFull {
		return "serve: overloaded: tenant queue full"
	}
	return "serve: overloaded: request expired while queued"
}

// Admission is the per-tenant + global slot manager.
type Admission struct {
	perTenant  int
	queueDepth int
	global     chan struct{}

	mu      sync.Mutex
	tenants map[string]*tenantState

	sheds atomic.Int64
}

type tenantState struct {
	slots chan struct{} // capacity = perTenant: running requests
	queue chan struct{} // capacity = perTenant+queueDepth: running + waiting
	// active counts requests holding a queue token; an idle tenant
	// (active == 0) may be evicted to bound the table.
	active int
}

// NewAdmission builds an admission controller (non-positive arguments
// select the defaults).
func NewAdmission(maxConcurrent, perTenant, queueDepth int) *Admission {
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	if perTenant <= 0 {
		perTenant = DefaultPerTenant
	}
	if perTenant > maxConcurrent {
		perTenant = maxConcurrent
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	return &Admission{
		perTenant:  perTenant,
		queueDepth: queueDepth,
		global:     make(chan struct{}, maxConcurrent),
		tenants:    map[string]*tenantState{},
	}
}

// tenant returns (creating if needed) the tenant's state, evicting idle
// tenants when the table has grown past its bound.
func (a *Admission) tenant(name string) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	if !ok {
		if len(a.tenants) >= maxTrackedTenants {
			for n, s := range a.tenants {
				if s.active == 0 {
					delete(a.tenants, n)
				}
			}
		}
		t = &tenantState{
			slots: make(chan struct{}, a.perTenant),
			queue: make(chan struct{}, a.perTenant+a.queueDepth),
		}
		a.tenants[name] = t
	}
	t.active++
	return t
}

func (a *Admission) leave(t *tenantState) {
	a.mu.Lock()
	t.active--
	a.mu.Unlock()
}

// Admit blocks until the request may execute, its context expires, or its
// tenant's line is full. On success it returns a release function the
// caller must invoke exactly once when the work is done. On failure it
// returns *ErrShed.
func (a *Admission) Admit(ctx context.Context, tenant string) (release func(), err error) {
	t := a.tenant(tenant)

	// Backpressure boundary: a full line sheds immediately.
	select {
	case t.queue <- struct{}{}:
	default:
		a.sheds.Add(1)
		a.leave(t)
		return nil, &ErrShed{Tenant: tenant, Queued: len(t.queue), QueueFull: true}
	}
	giveUp := func() (func(), error) {
		<-t.queue
		a.sheds.Add(1)
		a.leave(t)
		return nil, &ErrShed{Tenant: tenant, Queued: len(t.queue)}
	}

	// Wait for a tenant slot, then a global slot, bounded by the request's
	// own deadline. Tenant first: one tenant's burst drains into its own
	// line and cannot occupy the global pool while waiting.
	select {
	case t.slots <- struct{}{}:
	case <-ctx.Done():
		return giveUp()
	}
	select {
	case a.global <- struct{}{}:
	case <-ctx.Done():
		<-t.slots
		return giveUp()
	}

	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.global
			<-t.slots
			<-t.queue
			a.leave(t)
		})
	}, nil
}

// Queued returns how many requests the tenant currently has admitted or
// waiting (0 for unknown tenants).
func (a *Admission) Queued(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenant]; ok {
		return len(t.queue)
	}
	return 0
}

// Sheds returns the total number of load-shed requests.
func (a *Admission) Sheds() int64 { return a.sheds.Load() }
