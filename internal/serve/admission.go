package serve

// Admission is the per-tenant QoS controller: it bounds how many QST
// slots each tenant may hold in flight, so one hot tenant cannot starve
// the others out of the shared accelerator (the multi-tenant isolation
// argument of the paper's cloud setting). The bound is enforced at issue
// time; a request over its tenant's bound waits for one of that tenant's
// own queries to retire, and the wait is charged to the request's
// end-to-end latency (open loop: arrivals never pause).
type Admission struct {
	limit    int
	inflight []int
	// throttled counts admission waits per tenant — how often the bound
	// actually bit.
	throttled []uint64
}

// NewAdmission builds a controller for tenants tenants with the given
// per-tenant in-flight slot limit (values below 1 are clamped to 1, so
// progress is always possible).
func NewAdmission(tenants, perTenant int) *Admission {
	if perTenant < 1 {
		perTenant = 1
	}
	return &Admission{
		limit:     perTenant,
		inflight:  make([]int, tenants),
		throttled: make([]uint64, tenants),
	}
}

// Limit returns the per-tenant slot bound.
func (a *Admission) Limit() int { return a.limit }

// TryAcquire claims a slot for tenant t, reporting whether it was under
// its bound. A refusal is counted as a throttle event.
func (a *Admission) TryAcquire(t int) bool {
	if a.inflight[t] >= a.limit {
		a.throttled[t]++
		return false
	}
	a.inflight[t]++
	return true
}

// Release returns tenant t's slot on retirement.
func (a *Admission) Release(t int) {
	if a.inflight[t] <= 0 {
		panic("serve: admission release without acquire")
	}
	a.inflight[t]--
}

// Throttled returns how many times tenant t was refused at its bound.
func (a *Admission) Throttled(t int) uint64 { return a.throttled[t] }
