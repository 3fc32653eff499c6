package exp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"qei"
	"qei/internal/workload"
)

// The "batch" experiment: QueryBatch's level-wise engine vs the
// paper's windowed QUERY_NB loop (List 2) across structure kinds ×
// batch sizes. Every cell verifies the level-wise results
// byte-for-byte against both the windowed loop and the sequential
// per-query path before reporting a speedup, so the numbers can only
// come from a functionally identical execution.

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

// runBatchCell measures one kind × batch-size cell: a windowed run, a
// level-wise run, and a sequential per-query oracle, each on its own
// freshly built machine so cache and TLB state are comparable. Its
// record is the level-wise run against the windowed baseline, with
// every batchCounters metric. It errors if the three result sets are
// not identical.
func runBatchCell(s Scale, job batchJob) (BenchResult, error) {
	const keyLen = 16
	seed := int64(1000*int(job.kind) + job.n)
	tableN := batchTableSize(s, job.kind)
	keys, values := workload.GenUniqueKeys(tableN, keyLen, seed)
	absent, _ := workload.GenUniqueKeys(job.n, keyLen, seed+1)
	// Absent keys must not collide with the table population.
	inTable := make(map[string]bool, tableN)
	for _, k := range keys {
		inTable[string(k)] = true
	}
	for i, k := range absent {
		for inTable[string(k)] {
			extra, _ := workload.GenUniqueKeys(1, keyLen, seed+int64(100+i))
			k = extra[0]
		}
		absent[i] = k
	}
	probes := batchProbeSet(keys, absent, job.n, seed+2)

	cell := BenchResult{
		Experiment: "batch",
		Workload:   fmt.Sprintf("%s/%d", job.kind, job.n),
		Scheme:     qei.CoreIntegrated.String(),
		Queries:    uint64(job.n),
	}

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

	// Windowed List-2 loop.
	sw := qei.NewSystem(qei.CoreIntegrated)
	tw, err := sw.Build(job.kind, keys, values)
	if err != nil {
		return cell, err
	}
	winStart := sw.Now()
	winRes, err := WindowedBatch(sw, tw, probes)
	if err != nil {
		return cell, err
	}
	cell.BaselineCycles = sw.Now() - winStart

	// Level-wise batch.
	sl := qei.NewSystem(qei.CoreIntegrated, qei.WithMetrics())
	tl, err := sl.Build(job.kind, keys, values)
	if err != nil {
		return cell, err
	}
	lwStart := sl.Now()
	lwRes, err := sl.QueryBatch(tl, probes)
	if err != nil {
		return cell, err
	}
	cell.Cycles = sl.Now() - lwStart
	cell.CyclesPerQuery = float64(cell.Cycles) / float64(job.n)
	if cell.Cycles != 0 {
		cell.Speedup = float64(cell.BaselineCycles) / float64(cell.Cycles)
	}
	cell.Counters = map[string]uint64{}
	for _, m := range sl.Metrics() {
		if slices.Contains(batchCounters, m.Name) {
			cell.Counters[m.Name] = m.Value
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

// WindowedBatch looks up every key in t the way the paper's software
// drives QUERY_NB (List 2, Sec. IV-A): it keeps up to QSTCapacity
// queries in flight through QueryAsync and, whenever the window is
// full, Waits on the oldest before issuing the next. Results are
// returned in key order. It is the windowed baseline the level-wise
// QueryBatch is measured against, and what qeitrace runs to show the
// QST-deep overlap.
func WindowedBatch(s *qei.System, t qei.Table, keys [][]byte) ([]qei.Result, error) {
	window := s.QSTCapacity()
	handles := make([]qei.AsyncHandle, len(keys))
	results := make([]qei.Result, len(keys))
	oldest := 0
	wait := func() error {
		r, err := s.Wait(handles[oldest])
		if err != nil {
			return fmt.Errorf("qei: windowed query %d: %w", oldest, err)
		}
		results[oldest] = r
		oldest++
		return nil
	}
	for i, k := range keys {
		if i-oldest >= window {
			if err := wait(); err != nil {
				return nil, err
			}
		}
		h, err := s.QueryAsync(t, k)
		if err != nil {
			return nil, fmt.Errorf("qei: windowed query %d: %w", i, err)
		}
		handles[i] = h
	}
	for oldest < len(keys) {
		if err := wait(); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// batchTable reproduces the level-wise batching evaluation from the
// batch records: simulated makespan of the level-wise engine vs the
// windowed List-2 loop per structure kind and batch size, with the
// engine's amortization counters.
func (m *memo) batchTable(s Scale, par int) (TableData, error) {
	t := TableData{
		Title: "Batch — level-wise vs windowed QueryBatch (simulated cycles)",
		Headers: []string{"kind", "batch", "windowed_cyc", "levelwise_cyc",
			"speedup_x", "levels", "trans_saved", "lines_deduped", "coalesced"},
	}
	rs, err := m.batch(s, par)
	for _, r := range rs {
		kind, _, _ := strings.Cut(r.Workload, "/")
		t.Rows = append(t.Rows, []string{
			kind, f("%d", r.Queries),
			f("%d", r.BaselineCycles), f("%d", r.Cycles), f("%.2f", r.Speedup),
			f("%d", r.Counters["qei/batch/levels"]), f("%d", r.Counters["qei/batch/translations_saved"]),
			f("%d", r.Counters["qei/batch/lines_deduped"]), f("%d", r.Counters["qei/batch/coalesced_probes"]),
		})
	}
	return t, err
}

// RunBatchBench runs the batch sweep across par workers (<= 0 means
// GOMAXPROCS) and returns one machine-readable record per cell, in
// sweep order — the "batch" rows of BENCH_bench.json.
func RunBatchBench(s Scale, par int) ([]BenchResult, error) {
	return new(memo).batch(s, par)
}
