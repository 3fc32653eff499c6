package workload

import (
	"fmt"
	"slices"

	"qei/internal/isa"
	"qei/internal/scheme"
)

// Open-loop latency experiment. The paper motivates QEI with
// latency-sensitive serving (Sec. II-B, Challenge 2: "the jitters and
// latency to serve each query are critical to the observed quality of
// service"), and argues that batching to hide device latency "can lead
// to much worse average latency and tail latency". This experiment
// drives the accelerator with an open-loop arrival process: queries
// arrive every interarrival cycles whether or not earlier ones
// finished, and per-query latency is recorded — average and tails.

// LatencyProfile summarizes an open-loop run.
type LatencyProfile struct {
	Scheme        string
	Interarrival  uint64
	Queries       int
	AvgLatency    float64
	P50, P95, P99 uint64
	Max           uint64
}

func (p LatencyProfile) String() string {
	return fmt.Sprintf("%s @1/%d: avg %.0f p50 %d p95 %d p99 %d max %d",
		p.Scheme, p.Interarrival, p.AvgLatency, p.P50, p.P95, p.P99, p.Max)
}

// OpenLoopLatency runs an arrival-driven query stream against a fresh
// machine: queries arrive every interarrival cycles (an open loop — the
// arrival process does not wait for completions, like traffic hitting a
// NIC), each probing the benchmark's structures. It returns the latency
// distribution observed at the accelerator's result queue.
func OpenLoopLatency(bench Benchmark, kind scheme.Kind, interarrival uint64, queries int) (LatencyProfile, error) {
	if interarrival == 0 {
		return LatencyProfile{}, fmt.Errorf("workload: zero interarrival")
	}
	params := scheme.ForKind(kind)
	s, err := open(bench, &params, nil)
	if err != nil {
		return LatencyProfile{}, err
	}
	s.warmLLC()

	// Flatten the probe stream.
	var probes []Probe
	for _, req := range s.plan.Requests {
		probes = append(probes, req.Probes...)
	}
	if len(probes) == 0 {
		return LatencyProfile{}, fmt.Errorf("workload: no probes")
	}
	if queries <= 0 || queries > len(probes) {
		queries = len(probes)
	}

	latencies := make([]uint64, 0, queries)
	profile := LatencyProfile{Scheme: kind.String(), Interarrival: interarrival, Queries: queries}
	for i, p := range probes[:queries] {
		arrive := uint64(i) * interarrival
		done, err := s.accel.IssueBlocking(&isa.QueryDesc{
			HeaderAddr: p.Header,
			KeyAddr:    p.Key,
			KeyLen:     p.KeyLen,
			Tag:        s.issue(p, true),
		}, arrive)
		if err != nil {
			return profile, err
		}
		latencies = append(latencies, done-arrive)
	}
	if mismatches, _ := verify(s.accel, s.pending); mismatches > 0 {
		return profile, fmt.Errorf("workload: %d of %d open-loop results wrong", mismatches, queries)
	}

	var sum uint64
	for _, l := range latencies {
		sum += l
	}
	profile.AvgLatency = float64(sum) / float64(len(latencies))
	slices.Sort(latencies)
	pct := func(p float64) uint64 {
		return latencies[int(p*float64(len(latencies)-1))]
	}
	profile.P50 = pct(0.50)
	profile.P95 = pct(0.95)
	profile.P99 = pct(0.99)
	profile.Max = latencies[len(latencies)-1]
	return profile, nil
}
