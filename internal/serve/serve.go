// Package serve is the multi-tenant serving frontend over the simulated
// machine: the request-level layer that turns the one-experiment-at-a-
// time simulator into a cloud serving system under open-loop load.
//
// It has three layers:
//
//  1. A Backend adapter interface (ReqBench-style platform adapter, cf.
//     Tailwind's accelerator-vs-software placement): Build tables, issue
//     Query/QueryAsync/Poll against them, read Stats — so the same
//     request trace drives the QEI accelerator, the software baseline
//     walker, or any future backend interchangeably. The adapters
//     themselves live in the root qei package (they wrap *qei.System);
//     this package sees only the interface.
//
//  2. A deterministic, seeded open-loop workload generator and trace
//     format: N tenants with Zipf-skewed popularity, per-tenant
//     Zipf-skewed key choice, and a configurable aggregate arrival rate
//     in simulated cycles. Each tenant owns its own table(s) in the
//     shared simulated address space. Streams can be recorded to JSONL
//     and replayed byte-identically.
//
//  3. Per-tenant QST admission/QoS and latency accounting: an admission
//     controller bounds each tenant's in-flight QST slots, and a
//     streaming HdrHistogram-style latency collector yields the mean
//     and p50/p99/p999 over simulated cycles, which Report carries with
//     the SLO-violation and resilience counters.
//
// Determinism contract: generation, admission, and accounting are pure
// functions of (GenConfig, seed); parallel-tenant generation is
// byte-identical to serial, matching the repo-wide rule that parallelism
// never changes output.
package serve

import "errors"

// Op identifies a request's operation kind. The zero value is a lookup,
// so read-only streams — and every v1 trace, which predates the op
// field — need no annotation and replay unchanged.
type Op string

// The three request operations: accelerated lookup (the default),
// software insert/update, software delete.
const (
	OpGet Op = ""
	OpPut Op = "put"
	OpDel Op = "del"
)

func (o Op) String() string {
	if o == OpGet {
		return "get"
	}
	return string(o)
}

// Table is an opaque backend table handle: Build returns it and Query
// routes on it. Backends define the concrete type.
type Table any

// Handle is an opaque in-flight async query handle, mirroring the
// accelerator's QST tag without exposing it.
type Handle any

// Sentinel errors of the adapter contract. Adapters translate their
// platform's errors into these so the server's control flow is
// backend-independent.
var (
	// ErrBackendFull is returned by QueryAsync when the backend cannot
	// accept another in-flight query (every QST entry occupied); the
	// server frees a slot by waiting on an older query and reissues.
	ErrBackendFull = errors.New("serve: backend admission full")
	// ErrPending is returned by Poll while the query has not completed
	// at the backend's current clock.
	ErrPending = errors.New("serve: result pending")
)

// Result is one request's architectural outcome as observed by the
// serving layer.
type Result struct {
	// Found/Value are the query's architectural answer.
	Found bool
	Value uint64
	// Done is the simulated cycle the result became visible; the server
	// derives end-to-end latency as Done - arrival.
	Done uint64
	// Err carries a per-query fault (accelerator exception or software
	// walker error); the request still retires.
	Err error
}

// Stats is the backend-activity summary surfaced per run.
type Stats struct {
	// Queries is the number of queries the backend executed.
	Queries uint64
	// Exceptions counts queries that faulted architecturally.
	Exceptions uint64
}

// Backend is the pluggable platform adapter the serving frontend drives.
// A Backend owns one simulated machine and its issue clock; all cycle
// values are that machine's simulated cycles. Implementations are not
// safe for concurrent use — one goroutine owns a backend for a run.
type Backend interface {
	// Name identifies the backend in reports ("qei", "baseline").
	Name() string
	// Build lays out one table of the named structure kind ("cuckoo",
	// "skiplist", ...) holding keys/values in the machine's address
	// space and returns its handle.
	Build(kind string, keys [][]byte, values []uint64) (Table, error)
	// Query is a blocking lookup, advancing the clock to completion.
	Query(t Table, key []byte) (Result, error)
	// QueryAsync issues a non-blocking lookup, advancing the clock only
	// to the acceptance point. It returns ErrBackendFull when no slot is
	// free. Backends without async execution (the software walker) may
	// execute eagerly and hand back an already-complete handle.
	QueryAsync(t Table, key []byte) (Handle, error)
	// Poll checks an async query without moving the clock, returning
	// ErrPending while it is still executing at Now().
	Poll(h Handle) (Result, error)
	// Wait retrieves an async query's result, advancing the clock to its
	// completion if needed.
	Wait(h Handle) (Result, error)
	// Now returns the current simulated cycle; Advance models idle time
	// between arrivals.
	Now() uint64
	Advance(n uint64)
	// Capacity is the backend's in-flight query bound (QST entries); the
	// admission controller splits it across tenants.
	Capacity() int
	// Stats reports accumulated backend activity.
	Stats() Stats
}

// BatchBackend is the optional batched-read extension of Backend: a
// backend whose platform has a batched query path (the level-wise
// engine under qei.System.QueryBatch) implements it, and the server
// uses it only when Config.BatchAdmit enables batched admission. The
// call is synchronous — it advances the backend clock to the batch's
// completion — and returns one Result per key, in key order, with
// per-query faults in Result.Err.
type BatchBackend interface {
	QueryBatch(t Table, keys [][]byte) ([]Result, error)
}

// Mutator is the optional write-path extension of Backend: a backend
// that also supports software mutations implements it, and the server
// requires it only when the request stream actually contains writes —
// read-only streams run on plain Backends untouched. Mutations are
// software routines on the backend's machine (per the paper, QEI
// accelerates queries only), so they apply immediately; the server
// charges their cycle cost to the clock (Config.WriteCost).
type Mutator interface {
	// BuildMutable lays out one updatable table of the named kind; the
	// returned handle is accepted by Query/QueryAsync and Insert/Delete
	// alike.
	BuildMutable(kind string, keys [][]byte, values []uint64) (Table, error)
	// Insert adds or updates a key/value pair in software.
	Insert(t Table, key []byte, value uint64) error
	// Delete removes a key, reporting whether it existed.
	Delete(t Table, key []byte) (bool, error)
}
