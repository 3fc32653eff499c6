package exp

import (
	"fmt"

	"qei"
	"qei/internal/hwdesc"
	"qei/internal/machine"
	"qei/internal/scheme"
	"qei/internal/workload"
)

// The ablations: one design choice of the paper (or of DESIGN.md) per
// experiment, each swept on one workload. Small runs the Small*
// benchmarks, FullScale the Default* ones.

// pick returns small at Small scale and full at FullScale.
func pick(s Scale, small, full workload.Benchmark) workload.Benchmark {
	if s == FullScale {
		return full
	}
	return small
}

// ablationQSTSize sweeps the QST depth: the paper picks 10 entries as
// the balance point (50-90% occupancy, Sec. VI-A).
func ablationQSTSize(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — QST entries vs ROI cycles (Core-integrated, JVM)",
		Headers: []string{"qst_entries", "roi_cycles", "occupancy"},
	}
	b := pick(s, workload.SmallJVM(), workload.DefaultJVM())
	rows, err := mapJobs(par, []int{2, 5, 10, 20, 40},
		func(entries int) ([][]string, error) {
			p := scheme.ForKind(scheme.CoreIntegrated)
			p.QSTEntriesPerInstance = entries
			run, err := checked(workload.RunQEIWithParams(b, p, workload.ROIOnly,
				workload.WithWarmup(), workload.WithBatch(entries)))
			if err != nil {
				return nil, err
			}
			return [][]string{{f("%d", entries), f("%d", run.Cycles),
				f("%.2f", run.Accel.Occupancy())}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationRemoteCompare toggles the CHA comparators: without them the
// Core-integrated scheme must pull large keys through its L2.
func ablationRemoteCompare(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — remote (CHA) vs local comparison (RocksDB, 100B keys)",
		Headers: []string{"comparators", "roi_cycles", "remote_compares", "mem_lines"},
	}
	b := pick(s, workload.SmallRocksDB(), workload.DefaultRocksDB())
	rows, err := mapJobs(par, []bool{true, false},
		func(remote bool) ([][]string, error) {
			p := scheme.ForKind(scheme.CoreIntegrated)
			p.RemoteCompare = remote
			run, err := checked(workload.RunQEIWithParams(b, p, workload.ROIOnly, workload.WithWarmup()))
			if err != nil {
				return nil, err
			}
			label := "remote (CHA)"
			if !remote {
				label = "local (fetch)"
			}
			return [][]string{{label, f("%d", run.Cycles),
				f("%d", run.Accel.RemoteCompares), f("%d", run.Accel.MemLines)}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationTranslation compares the dedicated TLB with the core-MMU
// round trip on one CHA-placed accelerator.
func ablationTranslation(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — translation path (CHA placement, JVM)",
		Headers: []string{"translation", "roi_cycles"},
	}
	b := pick(s, workload.SmallJVM(), workload.DefaultJVM())
	rows, err := mapJobs(par, []scheme.Kind{scheme.CHATLB, scheme.CHANoTLB},
		func(k scheme.Kind) ([][]string, error) {
			run, err := checked(workload.RunQEI(b, k, workload.ROIOnly, workload.WithWarmup()))
			if err != nil {
				return nil, err
			}
			return [][]string{{scheme.ForKind(k).Translation.String(), f("%d", run.Cycles)}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationBatch sweeps the QUERY_B software batch size. The runs
// include the non-ROI work: a batch amortizes its issue and drain
// against the work between batches, which an ROI-only run lacks (every
// batch size reads the same cycles there).
func ablationBatch(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — QUERY_B batch size (DPDK, Core-integrated, full run)",
		Headers: []string{"batch", "cycles"},
	}
	b := pick(s, workload.SmallDPDK(), workload.DefaultDPDK())
	rows, err := mapJobs(par, []int{1, 2, 5, 10, 20},
		func(batch int) ([][]string, error) {
			run, err := checked(workload.RunQEI(b, scheme.CoreIntegrated, workload.Full,
				workload.WithWarmup(), workload.WithBatch(batch)))
			if err != nil {
				return nil, err
			}
			return [][]string{{f("%d", batch), f("%d", run.Cycles)}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationSkew compares uniform and Zipf-skewed (YCSB-like, s=0.99)
// query streams on the DPDK FIB: hot keys keep the software baseline in
// its private caches, so skew narrows the accelerator's advantage.
func ablationSkew(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — query-key skew (DPDK, Core-integrated)",
		Headers: []string{"distribution", "sw_cyc_per_query", "speedup_x"},
	}
	benches := []workload.Benchmark{
		pick(s, workload.SmallDPDK(), workload.DefaultDPDK()),
		pick(s, workload.SmallSkewedDPDK(), workload.DefaultSkewedDPDK()),
	}
	rows, err := mapJobs(par, benches,
		func(b workload.Benchmark) ([][]string, error) {
			sw, err := checked(workload.RunBaseline(b, workload.ROIOnly, workload.WithWarmup()))
			if err != nil {
				return nil, err
			}
			hw, err := checked(workload.RunQEI(b, scheme.CoreIntegrated, workload.ROIOnly, workload.WithWarmup()))
			if err != nil {
				return nil, err
			}
			return [][]string{{b.Name(), f("%.1f", float64(sw.Cycles)/float64(sw.Queries)),
				f("%.2f", float64(sw.Cycles)/float64(hw.Cycles))}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationIndex compares the two classic ordered indexes over identical
// 100-byte keys: the skip list (RocksDB memtable) against a B+ tree.
// The B+ tree's shallow, wide nodes need far fewer dependent fetches per
// query, so it suits the accelerator's pipelined CFAs better. The
// population is the same at both scales.
func ablationIndex(_ Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — index structure under QEI (same 100B keys)",
		Headers: []string{"structure", "accel_cycles_per_query", "lines_per_query"},
	}
	const queries = 300
	rows, err := mapJobs(par, []qei.StructKind{qei.KindSkipList, qei.KindBTree},
		func(kind qei.StructKind) ([][]string, error) {
			sys := qei.NewSystem(qei.CoreIntegrated)
			keys, vals := workload.GenUniqueKeys(4000, 100, 60)
			tb, err := sys.Build(kind, keys, vals)
			if err != nil {
				return nil, err
			}
			var total uint64
			for q := 0; q < queries; q++ {
				res, err := sys.Query(tb, keys[(q*13)%len(keys)])
				if err != nil {
					return nil, err
				}
				if !res.Found {
					return nil, fmt.Errorf("qei: %s lookup %d missed", kind, q)
				}
				total += res.Latency
			}
			st := sys.Stats()
			return [][]string{{kind.String(), f("%.0f", float64(total)/queries),
				f("%.1f", float64(st.MemLines)/float64(st.Queries))}}, nil
		})
	t.Rows = rows
	return t, err
}

// ablationHugePage compares the default fragmented layout with the
// physically contiguous (huge-page) layout prior accelerators assume
// (Sec. II-B, Challenge 3): with contiguity, translation would be
// trivial, but the paper argues cloud services cannot rely on it.
func ablationHugePage(s Scale, par int) (TableData, error) {
	t := TableData{
		Title:   "Ablation — fragmented vs contiguous physical layout",
		Headers: []string{"layout", "contiguous", "pages_mapped"},
	}
	b := pick(s, workload.SmallDPDK(), workload.DefaultDPDK())
	rows, err := mapJobs(par, []bool{false, true},
		func(contiguous bool) ([][]string, error) {
			d := hwdesc.Default()
			d.ContiguousFrames = contiguous
			m := machine.New(d)
			start := m.AS.Brk()
			if _, err := b.Build(m); err != nil {
				return nil, err
			}
			label := "fragmented (default)"
			if contiguous {
				label = "huge-page assumption"
			}
			return [][]string{{label,
				f("%v", m.AS.Contiguous(start, uint64(m.AS.Brk()-start))),
				f("%d", m.AS.MappedPages())}}, nil
		})
	t.Rows = rows
	return t, err
}
