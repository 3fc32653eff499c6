package exp

import (
	"fmt"
	"math/rand"

	"qei"
)

// The "batch" experiment: level-wise vs windowed QueryBatch across
// structure kinds × batch sizes. Every cell verifies the level-wise
// results byte-for-byte against both the windowed batch and the
// sequential per-query path before reporting a speedup, so the numbers
// can only come from a functionally identical execution.

// batchKinds are the kinds the experiment sweeps — every built-in
// fixed-length-key kind with a level-wise plan.
var batchKinds = []qei.StructKind{
	qei.KindBTree, qei.KindBST, qei.KindSkipList, qei.KindCuckoo, qei.KindHashTable, qei.KindLinkedList,
}

// batchJob is one experiment cell.
type batchJob struct {
	kind qei.StructKind
	n    int
}

func batchJobsFor(s Scale) []batchJob {
	sizes := []int{16, 64}
	if s == FullScale {
		sizes = []int{16, 64, 256}
	}
	var jobs []batchJob
	for _, k := range batchKinds {
		for _, n := range sizes {
			jobs = append(jobs, batchJob{kind: k, n: n})
		}
	}
	return jobs
}

// batchTableSize picks the structure population: big enough that tree
// walks have real depth, short enough that the linked list's O(n) scan
// keeps the windowed oracle fast.
func batchTableSize(s Scale, kind qei.StructKind) int {
	if kind == qei.KindLinkedList {
		if s == FullScale {
			return 512
		}
		return 256
	}
	if s == FullScale {
		return 8192
	}
	return 2048
}

// batchGenKeys generates n distinct keyLen-byte keys with deterministic
// values (the experiment's structure population).
func batchGenKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	keys := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	for len(keys) < n {
		k := make([]byte, keyLen)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
		vals = append(vals, rng.Uint64()|1)
	}
	return keys, vals
}

// batchProbeSet draws the probe keys: mostly present keys in shuffled
// order, with duplicates (coalescing work) and absent keys (not-found
// paths) mixed in.
func batchProbeSet(table [][]byte, absent [][]byte, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && rng.Intn(8) == 0:
			probes = append(probes, probes[rng.Intn(len(probes))]) // duplicate
		case rng.Intn(8) == 0:
			probes = append(probes, absent[rng.Intn(len(absent))]) // miss
		default:
			probes = append(probes, table[rng.Intn(len(table))])
		}
	}
	return probes
}

// batchCounters are the level-wise engine counters each cell reports.
var batchCounters = []string{
	"qei/batch/levels",
	"qei/batch/translations_saved",
	"qei/batch/lines_deduped",
	"qei/batch/coalesced_probes",
	"qei/batch/deferred",
}

// batchCell is one measured experiment cell.
type batchCell struct {
	job       batchJob
	winCycles uint64
	lwCycles  uint64
	// counters holds every batchCounters metric of the level-wise run.
	counters map[string]uint64
}

func (c batchCell) speedup() float64 {
	if c.lwCycles == 0 {
		return 0
	}
	return float64(c.winCycles) / float64(c.lwCycles)
}

// runBatchCell measures one kind × batch-size cell: a windowed run, a
// level-wise run, and a sequential per-query oracle, each on its own
// freshly built machine so cache and TLB state are comparable. It
// errors if the three result sets are not identical.
func runBatchCell(s Scale, job batchJob) (batchCell, error) {
	const keyLen = 16
	seed := int64(1000*int(job.kind) + job.n)
	tableN := batchTableSize(s, job.kind)
	keys, values := batchGenKeys(tableN, keyLen, seed)
	absent, _ := batchGenKeys(job.n, keyLen, seed+1)
	// Absent keys must not collide with the table population.
	inTable := make(map[string]bool, tableN)
	for _, k := range keys {
		inTable[string(k)] = true
	}
	for i, k := range absent {
		for inTable[string(k)] {
			extra, _ := batchGenKeys(1, keyLen, seed+int64(100+i))
			k = extra[0]
		}
		absent[i] = k
	}
	probes := batchProbeSet(keys, absent, job.n, seed+2)

	cell := batchCell{job: job}

	// Sequential per-query oracle.
	so := qei.NewSystem(qei.CoreIntegrated)
	to, err := so.Build(job.kind, keys, values)
	if err != nil {
		return cell, err
	}
	oracle := make([]qei.Result, len(probes))
	for i, p := range probes {
		r, err := so.Query(to, p)
		if err != nil {
			return cell, err
		}
		oracle[i] = r
	}

	// Windowed batch.
	sw := qei.NewSystem(qei.CoreIntegrated)
	tw, err := sw.Build(job.kind, keys, values)
	if err != nil {
		return cell, err
	}
	winStart := sw.Now()
	winRes, err := sw.QueryBatch(tw, probes, qei.WithBatchMode(qei.BatchWindowed))
	if err != nil {
		return cell, err
	}
	cell.winCycles = sw.Now() - winStart

	// Level-wise batch.
	sl := qei.NewSystem(qei.CoreIntegrated, qei.WithMetrics())
	tl, err := sl.Build(job.kind, keys, values)
	if err != nil {
		return cell, err
	}
	lwStart := sl.Now()
	lwRes, err := sl.QueryBatch(tl, probes, qei.WithBatchMode(qei.BatchLevelWise))
	if err != nil {
		return cell, err
	}
	cell.lwCycles = sl.Now() - lwStart
	cell.counters = make(map[string]uint64, len(batchCounters))
	for _, name := range batchCounters {
		cell.counters[name] = 0
	}
	for _, m := range sl.Metrics() {
		if _, ok := cell.counters[m.Name]; ok {
			cell.counters[m.Name] = m.Value
		}
	}

	// The contract the speedup stands on: identical results on all
	// three paths.
	for i := range probes {
		for _, pair := range [][2]qei.Result{{lwRes[i], oracle[i]}, {winRes[i], oracle[i]}} {
			g, w := pair[0], pair[1]
			if g.Found != w.Found || g.Value != w.Value || (g.Err == nil) != (w.Err == nil) {
				return cell, fmt.Errorf("qei: batch %s/%d: probe %d diverges from per-query path (got found=%v value=%d, want found=%v value=%d)",
					job.kind, job.n, i, g.Found, g.Value, w.Found, w.Value)
			}
		}
	}
	return cell, nil
}

// batchSpeedup reproduces the level-wise batching evaluation: simulated
// makespan of the level-wise engine vs the windowed path per structure
// kind and batch size, with the engine's amortization counters.
func batchSpeedup(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Batch — level-wise vs windowed QueryBatch (simulated cycles)",
		Headers: []string{"kind", "batch", "windowed_cyc", "levelwise_cyc",
			"speedup_x", "levels", "trans_saved", "lines_deduped", "coalesced"},
	}
	rows, err := mapJobs(par, batchJobsFor(s),
		func(job batchJob) ([][]string, error) {
			c, err := runBatchCell(s, job)
			if err != nil {
				return nil, err
			}
			return [][]string{{
				job.kind.String(), f("%d", job.n),
				f("%d", c.winCycles), f("%d", c.lwCycles), f("%.2f", c.speedup()),
				f("%d", c.counters["qei/batch/levels"]), f("%d", c.counters["qei/batch/translations_saved"]),
				f("%d", c.counters["qei/batch/lines_deduped"]), f("%d", c.counters["qei/batch/coalesced_probes"]),
			}}, nil
		})
	t.Rows = rows
	return t, err
}

// RunBatchBench runs the batch sweep serially and returns one
// machine-readable record per cell — the "batch" rows of
// BENCH_bench.json.
func RunBatchBench(s Scale) ([]BenchResult, error) {
	var out []BenchResult
	for _, job := range batchJobsFor(s) {
		c, err := runBatchCell(s, job)
		if err != nil {
			return nil, err
		}
		r := BenchResult{
			Experiment:     "batch",
			Workload:       fmt.Sprintf("%s/%d", job.kind, job.n),
			Scheme:         qei.CoreIntegrated.String(),
			BaselineCycles: c.winCycles,
			Cycles:         c.lwCycles,
			Queries:        uint64(job.n),
			CyclesPerQuery: float64(c.lwCycles) / float64(job.n),
			Speedup:        c.speedup(),
			Counters:       c.counters,
		}
		out = append(out, r)
	}
	return out, nil
}
