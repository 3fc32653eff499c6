#!/bin/sh
# CI gate: formatting, vet, and the full test suite under the race
# detector (the parallel experiment runner must be race-clean).
set -eu

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# Golden fast path: the bench matrix and every internal/workload driver
# must reproduce their committed simulated outputs, so a cycle drift
# fails here in seconds instead of after the race-detector run.
go test -run '^(TestBenchGoldenCycles|TestDriversGolden)$' -count=1 . ./internal/workload
# Benchmark module: benchmark/ is a Go module of its own, so nothing
# above compiles it. Its tests run every workload at test size, so a
# change to an API it calls fails here instead of in benchmark/run.sh.
(cd benchmark && GOWORK=off go test -count=1 ./...)
# The root package's experiment-band tests run minutes of simulation;
# under the race detector on few cores they outlast go test's default
# 10m per-package budget, so give them room.
go test -race -timeout 90m ./...

# Bench smoke: one iteration of the Tab. I benchmark proves the bench
# harness still assembles and logs its table.
go test -run '^$' -bench BenchmarkTab1 -benchtime 1x -short .

# Zero-overhead guard: attaching metrics + tracing — and the disabled
# fault-injection/watchdog apparatus — must not move a single
# simulated cycle (deterministic cycle-count assertion — no flaky
# wall-clock thresholds).
go test -run '^(TestObservabilityZeroCycleImpact|TestFaultInjectionZeroCycleImpact)$' -count=1 .

# Bench guard: benchmark the end-to-end runners and compare against the
# committed BENCH_guard.json envelope. Allocations are the hard gate
# (>2x allocs/op fails — machine-independent, so any excursion is a real
# hot-path regression); wall time gets a generous 5x to absorb machine
# variation. See bench_guard_test.go for how to regenerate the envelope
# after an intentional performance change.
QEI_BENCH_GUARD=1 go test -run '^TestBenchGuard$' -count=1 -short .

# Example smoke: every example program checks its answers against a
# host-side reference and panics on a mismatch, so each must exit 0
# (go vet ./... above only compiles them).
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "example-smoke: $ex exited non-zero" >&2
		exit 1
	fi
done

# Firmware fuzz: arbitrary table-driven firmware through the admission
# pass must never panic, and every rejection must wrap
# ErrInvalidProgram.
go test -run '^$' -fuzz '^FuzzValidateProgramDeep$' -fuzztime 10s ./internal/cfa

# Scheme smoke: every integration scheme name resolves through the one
# scheme table in each CLI that takes -scheme, and an unknown name
# fails.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for cli in qeisim qeiserve qeitrace; do
	go build -o "$bindir/$cli" "./cmd/$cli"
done
for s in core cha-tlb cha-notlb device-direct device-indirect; do
	case "$("$bindir/qeitrace" -scheme "$s" -queries 4)" in
	*'"traceEvents"'*) ;;
	*)
		echo "scheme-smoke: qeitrace -scheme $s wrote no trace document" >&2
		exit 1
		;;
	esac
	"$bindir/qeiserve" -scheme "$s" -tenants 1 -requests 20 -keys 16 >/dev/null
done
for cli in qeiserve qeisim; do
	if "$bindir/$cli" -scheme nosuch >/dev/null 2>&1; then
		echo "scheme-smoke: $cli accepted -scheme nosuch" >&2
		exit 1
	fi
done

# Serve smoke: a small multi-tenant run through BOTH serving backends
# must emit machine-readable per-tenant percentiles. Checks that the
# JSON carries p99 fields and one report per backend.
serve_json=$(go run ./cmd/qeiserve -backend both -tenants 2 -requests 60 -keys 32 -json)
for needle in '"p99"' '"backend": "qei"' '"backend": "baseline"' '"slo_violations"'; do
	case "$serve_json" in
	*"$needle"*) ;;
	*)
		echo "serve-smoke: missing $needle in qeiserve -json output" >&2
		exit 1
		;;
	esac
done

# Stream smoke: a short mixed read-write stream through the epoch-
# consistent mutation engine must retire every op with zero model
# mismatches and zero read-after-retire violations (qeiserve exits
# non-zero otherwise), report non-zero stream/ counters, and replay its
# recorded trace byte-identically.
stream_trace=$(mktemp)
stream_out=$(go run ./cmd/qeiserve -stream -kind btree -writes 0.3 -requests 200 -keys 64 -record "$stream_trace")
for counter in stream/ops_total stream/puts stream/dels stream/hits; do
	case "$stream_out" in
	*"$counter 0"*)
		echo "stream-smoke: $counter is zero" >&2
		rm -f "$stream_trace"
		exit 1
		;;
	*"$counter "*) ;;
	*)
		echo "stream-smoke: missing $counter in qeiserve -stream output" >&2
		rm -f "$stream_trace"
		exit 1
		;;
	esac
done
stream_replay=$(go run ./cmd/qeiserve -stream -kind btree -replay "$stream_trace")
rm -f "$stream_trace"
live_digest=$(echo "$stream_out" | grep '^digest')
replay_digest=$(echo "$stream_replay" | grep '^digest')
if [ -z "$live_digest" ] || [ "$live_digest" != "$replay_digest" ]; then
	echo "stream-smoke: trace replay diverged ($live_digest vs $replay_digest)" >&2
	exit 1
fi
# The same stream under a chaos schedule must still verify op-for-op
# and must actually fault some lookups (-faults reaches the stream).
stream_chaos=$(go run ./cmd/qeiserve -stream -kind btree -writes 0.3 -requests 200 -keys 64 -faults "9:spurious=0.3")
case "$stream_chaos" in
*'stream/faulted 0'*)
	echo "stream-smoke: -faults faulted no stream lookup" >&2
	exit 1
	;;
*'stream/faulted '*) ;;
*)
	echo "stream-smoke: missing stream/faulted in qeiserve -stream -faults output" >&2
	exit 1
	;;
esac

# Resilience smoke: a chaos schedule plus a tight SLO through the
# resilient serving path must complete (exit 0 — qeiserve fails on any
# read-after-retire epoch violation), degrade at least one request to
# the software safety net, and replay its recorded trace byte-
# identically under the same fault schedule. "failed_over" is an
# omitempty field, so its mere presence in the JSON means >= 1. The
# batched run checks that faulting batched reads reach the same
# failover.
res_trace=$(mktemp)
res_flags="-resilient -faults 9:spurious=0.3,flip=0.03,shootdown=0.05 -writes 0.1 -slo 4000 -tenants 3 -requests 300 -keys 64"
for mode in "" "-batchmode"; do
	res_live=$("$bindir/qeiserve" $res_flags $mode -record "$res_trace" -json)
	res_replay=$("$bindir/qeiserve" $res_flags $mode -replay "$res_trace" -json)
	case "$res_live" in
	*'"failed_over"'*) ;;
	*)
		echo "resilience-smoke${mode:+ $mode}: no failover under chaos" >&2
		rm -f "$res_trace"
		exit 1
		;;
	esac
	case "$res_live" in
	*'"faults_injected"'*) ;;
	*)
		echo "resilience-smoke${mode:+ $mode}: chaos schedule injected nothing" >&2
		rm -f "$res_trace"
		exit 1
		;;
	esac
	if [ "$res_live" != "$res_replay" ]; then
		echo "resilience-smoke${mode:+ $mode}: chaos replay diverged from live run" >&2
		rm -f "$res_trace"
		exit 1
	fi
done
rm -f "$res_trace"

# Batch smoke: the batch experiment parity-checks every kind × batch
# size cell against the per-query path (qeibench exits non-zero on any
# divergence; TestQueryBatchLevelWiseDeterministic asserts the engine
# saves translations). Then a batched-admission serving run must flush
# through the engine and retire every request (qeiserve exits non-zero
# on epoch violations).
go run ./cmd/qeibench -exp batch -scale small >/dev/null
bserve_out=$(go run ./cmd/qeiserve -batchmode -tenants 2 -requests 80 -keys 64)
case "$bserve_out" in
*'batch/batches 0 '*)
	echo "batch-smoke: batched admission flushed no batches" >&2
	exit 1
	;;
*'batch/batches '*) ;;
*)
	echo "batch-smoke: missing batch/batches counter line in qeiserve output" >&2
	exit 1
	;;
esac

# DSE smoke: a tiny 2x2 design-space sweep must produce a non-empty
# Pareto frontier, and the serial sweep must be byte-identical to the
# parallel one (the determinism contract of internal/dse).
dse_axes='qst=8,32;cores=16,24'
dse_serial=$(go run ./cmd/qeidse -axes "$dse_axes" -parallel 1 -json)
dse_par=$(go run ./cmd/qeidse -axes "$dse_axes" -parallel 8 -json)
if [ "$dse_serial" != "$dse_par" ]; then
	echo "dse-smoke: serial and parallel sweep output differ" >&2
	exit 1
fi
case "$dse_serial" in
*'"frontier": ['*) ;;
*)
	echo "dse-smoke: no frontier array in qeidse -json output" >&2
	exit 1
	;;
esac
case "$dse_serial" in
*'"frontier": []'*)
	echo "dse-smoke: empty Pareto frontier" >&2
	exit 1
	;;
esac

echo "ci: ok"
