package serve

import "errors"

// ErrAdmissionStall is returned (wrapped) by Run when admission control
// wedges: a tenant is over its in-flight bound — or the backend reports
// itself full — while nothing is actually in flight to drain. That is
// never a load condition (load waits, or sheds under a resilience
// deadline); it means the backend's capacity accounting and the
// admission controller disagree, i.e. a backend bug.
var ErrAdmissionStall = errors.New("serve: admission stalled with nothing in flight")

// Defaults for the zero Resilience fields.
const (
	// DefaultMaxRetries: one retry before failover. The QEI engine
	// already retries transient faults from the root internally; a
	// fault that surfaces here has beaten that, so the serving layer
	// spends one more attempt and then degrades.
	DefaultMaxRetries = 1
	// DefaultRetryBackoff is the simulated-cycle pause before the first
	// retry, doubling per attempt. The pause advances the shared clock,
	// so backoff is charged honestly to the request's (and every later
	// request's) latency.
	DefaultRetryBackoff = 64
)

// Resilience configures the serving resilience layer: per-request
// deadlines with load shedding, bounded retry of faulting queries on
// the primary backend, per-request failover to a software safety-net
// backend, and a circuit breaker that routes around a rotten primary
// wholesale. Batched lookups (Config.BatchAdmit) enter the same ladder
// past its retry rung — the batch engine already re-ran each deferred
// query on the per-query path — and never consult the breaker. A nil
// *Resilience in Config disables the layer entirely — the server then
// behaves exactly as it did before the layer existed, byte for byte.
type Resilience struct {
	// Deadline is the per-request completion budget in simulated cycles
	// from arrival. A request that cannot be issued — or whose faulting
	// execution cannot be retried — before its deadline is shed:
	// counted per tenant (TenantStats.Shed, serve/shed), its wait still
	// observed in the latency histograms, never an error. Writes are
	// never shed (they are state the rest of the stream depends on).
	// 0 disables shedding.
	Deadline uint64
	// MaxRetries bounds how many times one request's faulting query is
	// reissued on the primary backend before failing over. 0 uses
	// DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// Failover is the safety-net backend a faulting request degrades to
	// once its retries are exhausted. It must share the primary's
	// machine and clock — the tables Run built on the primary are
	// queried on it directly (the qei/baseline adapters over one System
	// satisfy this). nil disables both failover and the breaker; faults
	// then retire with their error exactly as without the layer.
	Failover Backend
	// Breaker tunes the primary-path circuit breaker; the zero value
	// enables it with defaults. Ignored (no breaker) without Failover.
	Breaker BreakerConfig
}

func (r *Resilience) maxRetries() int {
	switch {
	case r.MaxRetries < 0:
		return 0
	case r.MaxRetries == 0:
		return DefaultMaxRetries
	}
	return r.MaxRetries
}

// retryBackoff is the pause before reissue number attempt (0-based).
func retryBackoff(attempt int) uint64 {
	if attempt > 32 {
		attempt = 32
	}
	return DefaultRetryBackoff << uint(attempt)
}
