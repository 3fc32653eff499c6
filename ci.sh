#!/bin/sh
# CI gate: formatting, vet, and the full test suite under the race
# detector (the parallel experiment runner must be race-clean).
#
#   ./ci.sh        full tier: every stage below
#   ./ci.sh fast   fast tier: gofmt, vet, the golden fast path, the
#                  benchmark module's tests, go test ./... without the
#                  race detector, and the example and CLI smokes; it
#                  skips the race run, the micro-benchmarks, the
#                  zero-overhead and bench guards and the fuzzers
set -eu

cd "$(dirname "$0")"

tier=${1:-full}
case "$tier" in
full | fast) ;;
*)
	echo "usage: $0 [fast]" >&2
	exit 2
	;;
esac

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
# Golden fast path: the bench matrix, every internal/workload driver and
# the served streams (the streaming rows and this script's qeiserve
# smokes) must reproduce their committed simulated outputs, the Filler
# op's skipped periods must leave the core (under scripted ports) and a
# real machine's caches and TLBs as the op-by-op expansion does, a
# Full-mode run with a tracer attached (which makes every skip's ring
# walk decline) must equal the untraced run, a run on a machine reset
# after other runs, its benchmark restored from a guest-memory image,
# must equal the same run built from scratch on a freshly built machine,
# an image must restore every mapped page's frame and bytes, and no run
# may modify the plan the runs of one image share. So a cycle, state or
# image drift fails here in seconds instead of after the race-detector
# run (which, in the full tier, runs the recycled-machine check again
# with two workers sharing the machine free list and the images). A
# System serving many QST windows must stop growing its guest memory
# after the first, so a leaked key area or result line fails here too.
# Two full-size generated request streams must keep their committed
# digests, so a generator change that moves a byte fails here as well.
# A cache, a TLB, a core, an accelerator and a whole machine, reset or
# flushed down either path (the sets listed as filled, or the whole
# array), must equal fresh ones, so state a reset leaves behind fails
# here too. A warm run on a recycled machine, with and without metrics,
# must allocate no more than its answer and a small margin, so run
# state that stops being recycled with the machine fails here as well.
go test -run '^(TestBenchGoldenCycles|TestDriversGolden|TestStreamingGolden|TestFillerMatchesExpansion|TestFillerMachineMatchesExpansion|TestTracedFullRunMatchesUntraced|TestRecycledMachineMatchesFresh|TestRunsAllocateBounded|TestSnapshotRestoreRoundTrip|TestPlanUnchangedByRuns|TestServedStagingBoundedMemory|TestGenerateDigestGolden|TestCacheResetMatchesNew|TestCacheResetRefilledSet|TestTLBFlushAndResetMatchNew|TestResetMatchesNew)$' -count=1 . ./internal/exp ./internal/workload ./internal/cpu ./internal/qei ./internal/mem ./internal/serve ./internal/cache ./internal/tlb ./internal/machine
# Benchmark module: benchmark/ is a Go module of its own, so nothing
# above compiles it. Its tests run every workload at test size, so a
# change to an API it calls fails here instead of in benchmark/run.sh.
(cd benchmark && GOWORK=off go test -count=1 ./...)
# The experiment tests (internal/exp) run minutes of simulation;
# under the race detector on few cores they outlast go test's default
# 10m per-package budget, so give them room.
if [ "$tier" = fast ]; then
	go test ./...
else
	go test -race -timeout 90m ./...
fi

# Every smoke below runs the CLIs from these binaries, built once.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for cli in qeibench qeidse qeifw qeiserve qeisim qeitrace; do
	go build -o "$bindir/$cli" "./cmd/$cli"
done

# Bench smoke: the Tab. I experiment proves the registry and qeibench
# still assemble and print a table, and (full tier) one iteration of
# every layer micro-benchmark keeps those compiling and running
# (-benchmem prints their allocations too).
case "$("$bindir/qeibench" -exp tab1)" in
*Core-integrated*) ;;
*)
	echo "bench-smoke: qeibench -exp tab1 printed no Core-integrated row" >&2
	exit 1
	;;
esac
# qeibench -json simulates a fresh matrix and batch sweep; the tests read
# them from a memo the experiment tables share. Both must write the
# committed BENCH_bench.json byte for byte.
bench_json=$(mktemp -d)
"$bindir/qeibench" -json -scale small -out "$bench_json" >/dev/null
if ! cmp "$bench_json/BENCH_bench.json" BENCH_bench.json; then
	echo "bench-smoke: qeibench -json -scale small differs from BENCH_bench.json" >&2
	rm -rf "$bench_json"
	exit 1
fi
rm -rf "$bench_json"
if [ "$tier" = full ]; then
	go test -run '^$' -bench . -benchtime 1x -benchmem ./internal/...

	# Zero-overhead guard: attaching metrics + tracing — and the
	# disabled fault-injection/watchdog apparatus — must not move a
	# single simulated cycle (deterministic cycle-count assertion — no
	# flaky wall-clock thresholds).
	go test -run '^(TestObservabilityZeroCycleImpact|TestFaultInjectionZeroCycleImpact)$' -count=1 .

	# Bench guard: benchmark the end-to-end runners and compare against
	# the committed BENCH_guard.json envelope. Allocations are the hard
	# gate (>2x allocs/op fails — machine-independent, so any excursion
	# is a real hot-path regression); wall time gets a generous 5x to
	# absorb machine variation. See internal/exp/bench_guard_test.go for
	# how to regenerate the envelope after an intentional performance
	# change.
	QEI_BENCH_GUARD=1 go test -run '^TestBenchGuard$' -count=1 -short ./internal/exp
fi

# Example smoke: every example program checks its answers against a
# host-side reference and panics on a mismatch, so each must exit 0
# (go vet ./... above only compiles them).
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "example-smoke: $ex exited non-zero" >&2
		exit 1
	fi
done

if [ "$tier" = full ]; then
	# Firmware fuzz: arbitrary table-driven firmware through the
	# admission pass must never panic, and every rejection must wrap
	# ErrInvalidProgram.
	go test -run '^$' -fuzz '^FuzzValidateProgramDeep$' -fuzztime 10s ./internal/cfa
	# Machine-description fuzz: arbitrary bytes through hwdesc.Decode
	# must never panic, every rejection must wrap ErrBadConfig, and an
	# accepted description must validate and round-trip through Encode
	# unchanged.
	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/hwdesc
	# Fault-spec fuzz: arbitrary text through qei.ParseFaultSpec must
	# never panic, and an accepted spec must print back to itself.
	go test -run '^$' -fuzz '^FuzzParseFaultSpec$' -fuzztime 10s .
	# Serving-trace fuzz: arbitrary bytes through serve.ReadTrace must
	# never panic, and an accepted trace must survive WriteTrace then
	# ReadTrace unchanged.
	go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 10s ./internal/serve
fi

# Scheme smoke: every integration scheme name resolves through the one
# scheme table in each CLI that takes -scheme, and an unknown name
# fails. qeitrace must also show the QST-deep overlap it documents:
# four in-flight queries occupy at least two distinct QST slot tracks
# (pid,tid pairs) under every scheme.
for s in core cha-tlb cha-notlb device-direct device-indirect; do
	trace=$("$bindir/qeitrace" -scheme "$s" -queries 4)
	case "$trace" in
	*'"traceEvents"'*) ;;
	*)
		echo "scheme-smoke: qeitrace -scheme $s wrote no trace document" >&2
		exit 1
		;;
	esac
	tracks=$(printf '%s\n' "$trace" | grep '"name":"query"' |
		grep -o '"pid":[0-9]*,"tid":[0-9]*' | sort -u | wc -l)
	if [ "$tracks" -lt 2 ]; then
		echo "scheme-smoke: qeitrace -scheme $s put its query spans on $tracks QST track(s), want at least 2" >&2
		exit 1
	fi
	"$bindir/qeiserve" -scheme "$s" -tenants 1 -requests 20 -keys 16 >/dev/null
done
for cli in qeiserve qeisim; do
	if "$bindir/$cli" -scheme nosuch >/dev/null 2>&1; then
		echo "scheme-smoke: $cli accepted -scheme nosuch" >&2
		exit 1
	fi
done

# Machine smoke: the Tab. II description must simulate the same chip as
# no description, and a description too large to build must be refused
# with ErrBadConfig and exit status 1, not panic.
machine_default=$("$bindir/qeisim" -machine default -scheme all)
machine_none=$("$bindir/qeisim" -scheme all)
if [ "$machine_default" != "$machine_none" ]; then
	echo "machine-smoke: -machine default -scheme all differs from -scheme all" >&2
	exit 1
fi
oversized_status=0
oversized=$("$bindir/qeisim" -machine cmd/qeisim/testdata/llc-slice-2p57.json 2>&1) || oversized_status=$?
case "$oversized" in
*'panic:'*)
	echo "machine-smoke: qeisim panicked on an over-large description" >&2
	exit 1
	;;
*'bad machine description'*) ;;
*)
	echo "machine-smoke: no ErrBadConfig message for an over-large description" >&2
	exit 1
	;;
esac
if [ "$oversized_status" -ne 1 ]; then
	echo "machine-smoke: qeisim exited $oversized_status on an over-large description, want 1" >&2
	exit 1
fi

# Firmware smoke: qeifw walks the default firmware registry, so every
# built-in program, the B+ tree included, must validate and print a row,
# and -dot must find the B+ tree program.
fw_out=$("$bindir/qeifw")
if ! printf '%s\n' "$fw_out" | grep -q '^btree .* ok$'; then
	echo "firmware-smoke: qeifw printed no valid btree row" >&2
	exit 1
fi
"$bindir/qeifw" -dot btree >/dev/null

# Catalogue smoke: qeisim and qeidse resolve -workload and -scale
# through the one benchmark catalogue, and refuse an unknown scale or
# workload with exit status 1 (not a run at some default); qeibench
# refuses an unknown scale or experiment the same way.
catalogue_status=0
"$bindir/qeisim" -scale bogus >/dev/null 2>&1 || catalogue_status=$?
if [ "$catalogue_status" -ne 1 ]; then
	echo "catalogue-smoke: qeisim -scale bogus exited $catalogue_status, want 1" >&2
	exit 1
fi
catalogue_status=0
"$bindir/qeidse" -workload quake -axes qst=8 >/dev/null 2>&1 || catalogue_status=$?
if [ "$catalogue_status" -ne 1 ]; then
	echo "catalogue-smoke: qeidse -workload quake exited $catalogue_status, want 1" >&2
	exit 1
fi
# qeisim -cores N plays the ROI-only blocking stream unwarmed, so it
# refuses the flags it would otherwise ignore.
"$bindir/qeisim" -cores 2 >/dev/null
for bad in -mode=roi -nb -warm=false -metrics -trace=/dev/null; do
	catalogue_status=0
	"$bindir/qeisim" -cores 2 "$bad" >/dev/null 2>&1 || catalogue_status=$?
	if [ "$catalogue_status" -ne 1 ]; then
		echo "catalogue-smoke: qeisim -cores 2 $bad exited $catalogue_status, want 1" >&2
		exit 1
	fi
done
for bad in "-scale bogus" "-exp bogus"; do
	catalogue_status=0
	"$bindir/qeibench" $bad >/dev/null 2>&1 || catalogue_status=$?
	if [ "$catalogue_status" -ne 1 ]; then
		echo "catalogue-smoke: qeibench $bad exited $catalogue_status, want 1" >&2
		exit 1
	fi
done

# Serve smoke: a small multi-tenant run through BOTH serving backends
# must emit machine-readable per-tenant percentiles. Checks that the
# JSON carries p99 fields and one report per backend.
serve_json=$("$bindir/qeiserve" -backend both -tenants 2 -requests 60 -keys 32 -json)
for needle in '"p99"' '"backend": "qei"' '"backend": "baseline"' '"slo_violations"'; do
	case "$serve_json" in
	*"$needle"*) ;;
	*)
		echo "serve-smoke: missing $needle in qeiserve -json output" >&2
		exit 1
		;;
	esac
done

# Read-write smoke: a short single-tenant read-write stream through the
# serving path, over every kind BuildMutable accepts, must answer every
# read and delete like the host model and read no retired memory
# (qeiserve exits non-zero otherwise), retire some writes, and replay
# its recorded trace byte-identically.
rw_trace=$(mktemp)
for kind in cuckoo skiplist bst btree linkedlist; do
	rw_flags="-tenants 1 -kind $kind -writes 0.3 -requests 200 -keys 64"
	rw_live=$("$bindir/qeiserve" $rw_flags -record "$rw_trace" -json)
	rw_replay=$("$bindir/qeiserve" -replay "$rw_trace" -json)
	case "$rw_live" in
	*'"writes": '[1-9]*) ;;
	*)
		echo "rw-smoke: the $kind read-write stream retired no writes" >&2
		exit 1
		;;
	esac
	if [ "$rw_live" != "$rw_replay" ]; then
		echo "rw-smoke: $kind trace replay diverged from live run" >&2
		exit 1
	fi
done
rm -f "$rw_trace"
# The B+ tree stream under a chaos schedule must actually fault some
# reads (-faults reaches the serving machine) and still answer every
# unfaulted read like the host model.
rw_chaos=$("$bindir/qeiserve" -tenants 1 -kind btree -writes 0.3 -requests 200 -keys 64 -faults "9:spurious=0.3" -json)
case "$rw_chaos" in
*'"faults_injected"'*) ;;
*)
	echo "rw-smoke: -faults injected nothing" >&2
	exit 1
	;;
esac

# Resilience smoke: a chaos schedule plus a tight SLO through the
# resilient serving path must complete (exit 0 — qeiserve fails on any
# read-after-retire epoch violation), degrade at least one request to
# the software safety net, and replay its recorded trace byte-
# identically under the same fault schedule. "failed_over" is an
# omitempty field, so its mere presence in the JSON means >= 1. The
# unbatched run must also trip the breaker and probe it half-open at
# least once, which pins the fixed breaker policy's trip and probe paths
# end to end. The batched run checks that faulting batched reads reach
# the same failover (batched reads skip the breaker).
res_trace=$(mktemp)
res_flags="-resilient -faults 9:spurious=0.3,flip=0.03,shootdown=0.05 -writes 0.1 -slo 4000 -tenants 3 -requests 300 -keys 64"
for mode in "" "-batchadmit 16"; do
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
	if [ -z "$mode" ]; then
		for field in trips probes; do
			case "$res_live" in
			*'"'$field'": '[1-9]*) ;;
			*)
				echo "resilience-smoke: breaker reports no $field under chaos" >&2
				rm -f "$res_trace"
				exit 1
				;;
			esac
		done
	fi
	if [ "$res_live" != "$res_replay" ]; then
		echo "resilience-smoke${mode:+ $mode}: chaos replay diverged from live run" >&2
		rm -f "$res_trace"
		exit 1
	fi
done
rm -f "$res_trace"

# Batch smoke: a batched-admission serving run must flush through the
# level-wise engine and retire every request (qeiserve exits non-zero on
# epoch violations). The batch experiment's per-cell parity check
# against the per-query path runs in TestBenchGoldenCycles.
bserve_out=$("$bindir/qeiserve" -batchadmit 16 -tenants 2 -requests 80 -keys 64)
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
dse_serial=$("$bindir/qeidse" -axes "$dse_axes" -parallel 1 -json)
dse_par=$("$bindir/qeidse" -axes "$dse_axes" -parallel 8 -json)
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

echo "ci: ok ($tier)"
