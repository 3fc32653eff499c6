// Command qeiserve runs the multi-tenant serving frontend: a seeded
// open-loop request stream over N Zipf-skewed tenants, served on a
// simulated machine by either the QEI accelerator or the software
// baseline walker behind the same Backend interface, with per-tenant
// QST admission and latency-percentile/SLO accounting.
//
// Usage:
//
//	qeiserve [-backend qei|baseline|both] [-tenants N] [-requests N]
//	         [-keys N] [-keylen N] [-kind cuckoo|bst|...] [-zipf S]
//	         [-keyzipf S] [-gap CYCLES] [-slo CYCLES] [-slots N]
//	         [-writes F] [-delfrac F] [-writecost CYCLES]
//	         [-faults SPEC] [-resilient] [-timeline FILE]
//	         [-batchadmit N]
//	         [-seed N] [-scheme core|cha-tlb|...] [-machine preset|file.json]
//	         [-genparallel N] [-record FILE | -replay FILE] [-json]
//
// -record writes the generated stream as a JSONL trace before serving
// it; -replay serves a previously recorded trace instead of generating
// one (its embedded generation config reproduces the exact tables, so
// the replayed run is byte-identical to the run that recorded it).
// -backend both serves the identical stream through each backend in
// turn, one fresh machine per backend. -json emits the full per-tenant
// reports (p50/p99/p999, SLO violations, throttle counts) as a single
// machine-readable document.
//
// -writes makes that fraction of each tenant's requests software
// mutations (of which -delfrac are deletes, the rest upserts): tenant
// tables build updatable, mutations apply between in-flight accelerated
// lookups under epoch-based reclamation, and per-tenant write latency is
// reported alongside the read percentiles.
//
// Without -resilient, every read and delete is checked against a host
// model of the tenant tables (serve.Verify): a read must answer as the
// table stood at its arrival, and a faulted read is skipped. The text
// report prints the mismatch count, -json carries it as "mismatches"
// when non-zero, and the run exits non-zero on any mismatch. With
// -resilient, shed, retried and failed-over reads are not checked.
//
// -faults arms the replayable chaos schedule ("seed:kind=rate,...", the
// qei.ParseFaultSpec format) on the serving machine. Without -resilient,
// faults ride in each report's per-tenant fault counts. With -resilient,
// the serving resilience layer is on, with a fixed policy: requests
// still waiting 4x the SLO after arrival are shed (none with -slo 0), a
// faulting query retries once after a 64-cycle backoff and then fails
// over to the software walker, and a circuit breaker routes around the
// accelerator while its fault rate is high (it trips at half of at
// least 8 outcomes within 32768 cycles, holds open for 32768 cycles,
// then closes after 4 clean half-open probes). A greppable
// "resilience ..." summary line follows each text report, and the run
// exits non-zero on any read-after-retire epoch violation. -timeline
// writes the unified cycle-stamped Chrome trace (including the serving
// track's shed/failover/breaker events) after each run.
//
// -batchadmit N (N >= 2) turns on batched admission (qei backend only):
// lookups buffer per tenant and flush through the level-wise batch
// engine in groups of up to N keys; a tenant's buffer also flushes
// before its writes and at end of stream. A greppable "batch ..."
// counter line (flush counts plus the engine's amortization counters)
// follows each text report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"qei"
	"qei/internal/scheme"
	"qei/internal/serve"
)

func fail(format string, v ...any) {
	fmt.Fprintf(os.Stderr, "qeiserve: "+format+"\n", v...)
	os.Exit(1)
}

// output is the -json document: the shared stream description plus one
// report per backend that served it.
type output struct {
	Experiment string          `json:"experiment"`
	Scheme     string          `json:"scheme"`
	Gen        serve.GenConfig `json:"gen"`
	Reports    []*serve.Report `json:"reports"`
}

func main() {
	def := qei.DefaultServingConfig()
	backendFlag := flag.String("backend", "qei", `backend: "qei", "baseline", or "both"`)
	tenantsFlag := flag.Int("tenants", def.Tenants, "tenant count")
	requestsFlag := flag.Int("requests", def.Requests, "total request count across tenants")
	keysFlag := flag.Int("keys", def.KeysPerTenant, "keys per tenant table")
	keyLenFlag := flag.Int("keylen", def.KeyLen, "key length in bytes (>= 8)")
	kindFlag := flag.String("kind", def.Kind.String(), "tenant table structure kind")
	zipfFlag := flag.Float64("zipf", def.TenantSkew, "Zipf skew of tenant popularity")
	keyZipfFlag := flag.Float64("keyzipf", def.KeySkew, "Zipf skew of per-tenant key popularity")
	gapFlag := flag.Uint64("gap", def.MeanGap, "mean inter-arrival gap in cycles (open loop)")
	sloFlag := flag.Uint64("slo", def.SLO, "per-request latency SLO in cycles; 0 disables")
	slotsFlag := flag.Int("slots", 0, "in-flight QST slots per tenant; 0 = capacity/tenants")
	writesFlag := flag.Float64("writes", 0, "fraction of requests that are software mutations (0 = read-only)")
	delFracFlag := flag.Float64("delfrac", 0.4, "fraction of mutations that are deletes (rest are upserts)")
	writeCostFlag := flag.Uint64("writecost", 0, "simulated cycles charged per mutation; 0 = default")
	faultsFlag := flag.String("faults", "", `chaos schedule "seed:kind=rate,..." injected on the serving machine; empty = clean`)
	resilientFlag := flag.Bool("resilient", false, "enable deadlines/shedding, retry, software failover, and the circuit breaker")
	timelineFlag := flag.String("timeline", "", "write the unified Chrome trace-event timeline to this file")
	batchAdmitFlag := flag.Int("batchadmit", 0, "batched admission: buffer up to N >= 2 lookups per tenant and flush them through the level-wise batch engine (qei backend only); 0 = off")
	seedFlag := flag.Int64("seed", def.Seed, "stream and machine seed")
	schemeFlag := flag.String("scheme", "core", "integration scheme: core, cha-tlb, cha-notlb, device-direct, device-indirect")
	machineFlag := flag.String("machine", "", "machine description: a preset name (default, core, cha-tlb, ...) or a JSON file; empty = the Tab. II default")
	genParFlag := flag.Int("genparallel", 0, "workers for stream generation; 0 = GOMAXPROCS (output identical at any value)")
	recordFlag := flag.String("record", "", "write the generated stream to this JSONL trace file before serving")
	replayFlag := flag.String("replay", "", "serve a recorded JSONL trace instead of generating a stream")
	jsonFlag := flag.Bool("json", false, "emit the per-tenant reports as machine-readable JSON")
	flag.Parse()

	sch, err := scheme.Parse(*schemeFlag)
	if err != nil {
		fail("%v", err)
	}
	kind, err := qei.ParseStructKind(*kindFlag)
	if err != nil {
		fail("%v", err)
	}
	cfg := qei.ServingConfig{
		Scheme:         sch,
		Tenants:        *tenantsFlag,
		Requests:       *requestsFlag,
		KeysPerTenant:  *keysFlag,
		KeyLen:         *keyLenFlag,
		Kind:           kind,
		TenantSkew:     *zipfFlag,
		KeySkew:        *keyZipfFlag,
		MeanGap:        *gapFlag,
		Seed:           *seedFlag,
		WriteFraction:  *writesFlag,
		DeleteFraction: *delFracFlag,
		WriteCost:      *writeCostFlag,
		SLO:            *sloFlag,
		SlotsPerTenant: *slotsFlag,
		GenWorkers:     *genParFlag,
		Resilient:      *resilientFlag,
		KeepResults:    !*resilientFlag,
		Timeline:       *timelineFlag,
	}
	if *faultsFlag != "" {
		spec, err := qei.ParseFaultSpec(*faultsFlag)
		if err != nil {
			fail("-faults: %v", err)
		}
		cfg.Faults = &spec
	}
	if *machineFlag != "" {
		spec, err := qei.LoadMachineSpec(*machineFlag)
		if err != nil {
			// The error wraps qei.ErrBadConfig and names the offending
			// preset, file, or field.
			fail("-machine: %v", err)
		}
		cfg.Machine = &spec
	}

	if *batchAdmitFlag != 0 {
		if *backendFlag != "qei" {
			fail("-batchadmit requires the qei backend (the software walker has no batch path)")
		}
		if *batchAdmitFlag < 2 {
			fail("-batchadmit must be >= 2, got %d", *batchAdmitFlag)
		}
		cfg.BatchAdmit = *batchAdmitFlag
	}

	var backends []string
	switch *backendFlag {
	case "both":
		backends = qei.ServingBackends()
	case "qei", "baseline":
		backends = []string{*backendFlag}
	default:
		fail("unknown backend %q (want qei, baseline, or both)", *backendFlag)
	}

	// One stream, whether generated or replayed; every backend serves
	// the identical request sequence on its own fresh machine.
	var gen serve.GenConfig
	var reqs []serve.Request
	switch {
	case *replayFlag != "":
		if *recordFlag != "" {
			fail("-record and -replay are mutually exclusive")
		}
		f, err := os.Open(*replayFlag)
		if err != nil {
			fail("%v", err)
		}
		gen, reqs, err = serve.ReadTrace(f)
		f.Close()
		if err != nil {
			fail("replay %s: %v", *replayFlag, err)
		}
		cfg.Seed = gen.Seed
	default:
		gen = cfg.GenConfig()
		reqs, err = serve.GenerateParallel(gen, cfg.GenWorkers)
		if err != nil {
			fail("%v", err)
		}
		if *recordFlag != "" {
			f, err := os.Create(*recordFlag)
			if err != nil {
				fail("%v", err)
			}
			if err := serve.WriteTrace(f, gen, reqs); err != nil {
				f.Close()
				fail("record %s: %v", *recordFlag, err)
			}
			if err := f.Close(); err != nil {
				fail("record %s: %v", *recordFlag, err)
			}
			fmt.Fprintf(os.Stderr, "qeiserve: recorded %d requests to %s\n", len(reqs), *recordFlag)
		}
	}

	out := output{Experiment: "serving", Scheme: sch.String(), Gen: gen}
	for _, name := range backends {
		c := cfg
		c.Backend = name
		rep, err := qei.ReplayServing(c, gen, reqs)
		if err != nil {
			fail("%s: %v", name, err)
		}
		out.Reports = append(out.Reports, rep)
	}

	// Read-after-retire and a wrong answer are consistency-contract
	// breaches, never "degraded but correct" — the run fails loudly
	// whatever the output mode.
	var violations, mismatches uint64
	for _, rep := range out.Reports {
		violations += rep.EpochViolations
		mismatches += rep.Mismatches
	}
	check := func() {
		if violations > 0 {
			fail("%d read-after-retire epoch violations", violations)
		}
		if mismatches > 0 {
			fail("%d answers disagree with the host model", mismatches)
		}
	}

	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
		check()
		return
	}
	for _, rep := range out.Reports {
		fmt.Printf("backend %s  scheme %s  requests %d  slots/tenant %d  capacity %d  makespan %d\n",
			rep.Backend, out.Scheme, rep.Requests, rep.SlotsPerTenant, rep.Capacity, rep.MakespanCycles)
		fmt.Printf("%8s %9s %9s %8s %9s %9s %9s %9s %9s\n",
			"tenant", "requests", "throttled", "slo_viol", "mean", "p50", "p99", "p999", "max")
		rows := append(append([]serve.TenantStats(nil), rep.Tenants...), rep.Total)
		for _, ts := range rows {
			tenant := "all"
			if ts.Tenant >= 0 {
				tenant = fmt.Sprintf("%d", ts.Tenant)
			}
			fmt.Printf("%8s %9d %9d %8d %9.0f %9d %9d %9d %9d\n",
				tenant, ts.Requests, ts.Throttled, ts.SLOViolations,
				ts.MeanLatency, ts.P50, ts.P99, ts.P999, ts.MaxLatency)
		}
		if rep.Total.Writes > 0 {
			fmt.Printf("%8s %9s %9s %9s\n", "", "writes", "write_p50", "write_p99")
			for _, ts := range rows {
				tenant := "all"
				if ts.Tenant >= 0 {
					tenant = fmt.Sprintf("%d", ts.Tenant)
				}
				fmt.Printf("%8s %9d %9d %9d\n", tenant, ts.Writes, ts.WriteP50, ts.WriteP99)
			}
		}
		if rep.Batch != nil {
			fmt.Printf("batch admit %d batch/batches %d batch/batched_reads %d batch/levels %d batch/translations_saved %d batch/coalesced_probes %d batch/deferred %d\n",
				cfg.BatchAdmit, rep.Batch.Batches, rep.Batch.BatchedReads,
				rep.Batch.Levels, rep.Batch.TranslationsSaved,
				rep.Batch.CoalescedProbes, rep.Batch.Deferred)
		}
		if *resilientFlag || cfg.Faults != nil {
			state := "off"
			var trips uint64
			if rep.Breaker != nil {
				state = rep.Breaker.State
				trips = rep.Breaker.Trips
			}
			fmt.Printf("resilience shed %d retries %d failover %d breaker_trips %d breaker_state %s faults_injected %d epoch_violations %d\n",
				rep.Total.Shed, rep.Total.Retries, rep.Total.FailedOver,
				trips, state, rep.FaultsInjected, rep.EpochViolations)
		}
		if cfg.KeepResults {
			fmt.Printf("verify mismatches %d\n", rep.Mismatches)
		}
		fmt.Println()
	}
	check()
}
