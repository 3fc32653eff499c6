package machine

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"qei/internal/cache"
	"qei/internal/cpu"
	"qei/internal/dstruct"
	"qei/internal/faultinject"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/noc"
	"qei/internal/scheme"
	"qei/internal/tlb"
	"qei/internal/trace"
)

func TestNewDefaultGeometry(t *testing.T) {
	m := New(hwdesc.Default())
	if m.Desc.Cores != 24 {
		t.Fatalf("cores = %d, want 24", m.Desc.Cores)
	}
	if got := m.Mesh.Stops(); got != 24 {
		t.Fatalf("mesh stops = %d, want 24", got)
	}
	if got := m.Hier.LLC().Slices(); got != 24 {
		t.Fatalf("LLC slices = %d, want 24", got)
	}
	if len(m.TLB) != 24 {
		t.Fatalf("TLB hierarchies = %d, want 24", len(m.TLB))
	}
}

// TestNewDefaultAllocatesLLCOnly pins that a new machine builds its LLC
// slices' arrays and little else: the 24 cores' private caches (6.6 MiB
// of arrays) are built by their first fill. Not parallel: TotalAlloc
// counts every goroutine's allocations.
func TestNewDefaultAllocatesLLCOnly(t *testing.T) {
	d := hwdesc.Default()
	slice := d.LLCSlice.Config()
	// Per line: an 8-byte tag, a dirty flag and an 8-byte LRU stamp.
	llc := uint64(d.Cores) * slice.SizeBytes / slice.LineSize * (8 + 1 + 8)
	limit := llc + 1<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(d)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("New(hwdesc.Default()) allocated %.1f MiB, want at most %.1f MiB (the LLC's %.1f MiB + 1 MiB)",
			float64(got)/(1<<20), float64(limit)/(1<<20), float64(llc)/(1<<20))
	}
}

func TestCoreMemPortColdVsWarm(t *testing.T) {
	m := New(hwdesc.Default())
	a := m.AS.AllocLines(64)
	port := m.CoreMemPort(0)
	cold, err := port.Access(a, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := port.Access(a, false, cold)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("warm access (%d) not faster than cold (%d)", warm, cold)
	}
	// Warm = L1 TLB hit (1) + L1D hit (4).
	if warm != 5 {
		t.Fatalf("warm access = %d cycles, want 5", warm)
	}
}

// TestCoreMemPortReadRing pins when the port applies a ring walk at
// once: every line warm in the L1D and every page in the L1 TLB, lat
// their summed hit latency, and neither a tracer nor a fault injector
// attached. A declined call changes no counter.
func TestCoreMemPortReadRing(t *testing.T) {
	const lines, n = 64, 1000
	setup := func() (*Machine, mem.VAddr) {
		m := New(hwdesc.Default())
		return m, m.AS.AllocLines(lines * mem.LineSize)
	}
	warm := func(m *Machine, a mem.VAddr, upto int) {
		for i := 0; i < upto; i++ {
			if _, err := m.CoreMemPort(0).Access(a+mem.VAddr(i*mem.LineSize), false, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := func(m *Machine) [2]uint64 {
		l1, _, _, _ := m.Hier.L1D[0].Stats()
		tl, _, _ := m.TLB[0].L1.Stats()
		return [2]uint64{l1, tl}
	}
	for _, tc := range []struct {
		name  string
		warm  int
		lat   uint64
		setup func(m *Machine)
		take  bool
	}{
		{"warm", lines, 5, nil, true},
		{"cold line", lines - 1, 5, nil, false},
		{"other latency", lines, 6, nil, false},
		{"tracer", lines, 5, func(m *Machine) { m.SetTracer(trace.New(16)) }, false},
		{"fault injector", lines, 5, func(m *Machine) { m.AttachFaultInjection(faultinject.New(faultinject.Schedule{})) }, false},
	} {
		m, a := setup()
		warm(m, a, tc.warm)
		if tc.setup != nil {
			tc.setup(m)
		}
		before := counts(m)
		got := m.CoreMemPort(0).ReadRing(a, 8, mem.LineSize, lines*mem.LineSize, n, tc.lat)
		want := before
		if tc.take {
			want[0] += n
			want[1] += n
		}
		if got != tc.take || counts(m) != want {
			t.Errorf("%s: ReadRing = %v with L1D and L1 TLB hits %v, want %v with %v", tc.name, got, counts(m), tc.take, want)
		}
	}
}

func TestCoreMemPortFaults(t *testing.T) {
	m := New(hwdesc.Default())
	if _, err := m.CoreMemPort(0).Access(mem.VAddr(0xbad0000), false, 0); err == nil {
		t.Fatal("unmapped access did not fault")
	}
}

func TestNewCoreRunsTrace(t *testing.T) {
	m := New(hwdesc.Default())
	c := m.NewCore(1, nil)
	b := isa.NewBuilder()
	addr := m.AS.AllocLines(256)
	for i := 0; i < 4; i++ {
		b.Load(addr+mem.VAddr(i*64), 8, 0)
	}
	end := c.Run(b.Take())
	if end == 0 || c.Err() != nil {
		t.Fatalf("trace run failed: end=%d err=%v", end, c.Err())
	}
	if c.Stats().Loads != 4 {
		t.Fatalf("loads = %d", c.Stats().Loads)
	}
}

func TestCHALatencyBandMatchesTableI(t *testing.T) {
	// Tab. I: core↔CHA accel latency 40-60 cycles. Check that a round
	// trip between a core and a mid-distance slice plus the scheme's
	// port overhead lands in that band.
	m := New(hwdesc.Default())
	var total, n uint64
	for s := 0; s < m.Mesh.Stops(); s++ {
		total += m.Mesh.RoundTrip(0, noc.Stop(s))
		n++
	}
	avg := total / n
	// Average round trip plus the CHA port+reply overhead (18+10) should
	// be in the 40-60 band.
	withOverhead := avg + 28
	if withOverhead < 40 || withOverhead > 60 {
		t.Fatalf("CHA accel-core latency = %d, want within Tab. I band 40-60", withOverhead)
	}
}

func TestContiguousOption(t *testing.T) {
	d := hwdesc.Default()
	d.ContiguousFrames = true
	m := New(d)
	a := m.AS.Alloc(64*mem.PageSize, mem.PageSize)
	if !m.AS.Contiguous(a, 64*mem.PageSize) {
		t.Fatal("ContiguousFrames config not honored")
	}
}

func TestWarmLLCBringsLinesIn(t *testing.T) {
	m := New(hwdesc.Default())
	a := m.AS.AllocLines(64 * mem.LineSize)
	m.WarmLLC(a, a+64*mem.LineSize)
	llc := m.Hier.LLC()
	for i := 0; i < 64; i++ {
		pa, err := m.AS.Translate(a + mem.VAddr(i*mem.LineSize))
		if err != nil {
			t.Fatal(err)
		}
		if !llc.Slice(llc.SliceFor(pa)).Contains(pa) {
			t.Fatalf("line %d not resident after WarmLLC", i)
		}
	}
	// Private caches must stay untouched.
	for c := 0; c < m.Desc.Cores; c++ {
		h, mi, _, _ := m.Hier.L1D[c].Stats()
		if h+mi != 0 {
			t.Fatal("WarmLLC touched a private cache")
		}
	}
}

func TestWarmLLCSkipsUnmappedHoles(t *testing.T) {
	m := New(hwdesc.Default())
	a := m.AS.AllocLines(mem.PageSize)
	// Range extends past the mapped page into unmapped space; must not
	// panic and must warm the mapped part.
	m.WarmLLC(a, a+mem.VAddr(4*mem.PageSize))
	pa, _ := m.AS.Translate(a)
	llc := m.Hier.LLC()
	if !llc.Slice(llc.SliceFor(pa)).Contains(pa) {
		t.Fatal("mapped prefix not warmed")
	}
}

// TestMemStopsNoAliasing is the slice-aliasing regression for the
// hwdesc/dse materialization path: a built machine must own its
// MemStops, so mutating the caller's slice — or evaluating two machines
// built from one Description concurrently — cannot corrupt routing.
func TestMemStopsNoAliasing(t *testing.T) {
	d := hwdesc.Default()
	m1 := New(d)
	d.MemStops[0] = 23 // caller reuses and mutates its slice
	m2 := New(d)
	if m1.Desc.MemStops[0] == 23 || m1.Hier.MemStopFor(0) == 23 {
		t.Fatal("machine aliases the caller's MemStops slice")
	}
	if m2.Desc.MemStops[0] != 23 || m2.Hier.MemStopFor(0) != 23 {
		t.Fatal("second machine missed the caller's update")
	}
	m2.Desc.MemStops[0] = 5
	if d.MemStops[0] != 23 {
		t.Fatal("mutating a machine's stored Desc leaked into the caller's slice")
	}
}

// TestDefaultIsTabII pins the chip New builds from hwdesc.Default() to
// the Tab. II numbers, read back from the built components.
func TestDefaultIsTabII(t *testing.T) {
	m := New(hwdesc.Default())
	line := uint64(mem.LineSize)
	if got, want := m.Hier.L1D[0].Config(), (cache.Config{SizeBytes: 32 << 10, Ways: 8, LineSize: line, HitLatency: 4}); got != want {
		t.Errorf("L1D = %+v, want %+v", got, want)
	}
	if got, want := m.Hier.L2[0].Config(), (cache.Config{SizeBytes: 1 << 20, Ways: 16, LineSize: line, HitLatency: 14}); got != want {
		t.Errorf("L2 = %+v, want %+v", got, want)
	}
	llc := m.Hier.LLC()
	if llc.Slices() != 24 {
		t.Fatalf("LLC slices = %d, want 24", llc.Slices())
	}
	// 33 MB, 11-way, split into 24 slices.
	slice := cache.Config{SizeBytes: (33 << 20) / 24, Ways: 11, LineSize: line, HitLatency: 20}
	for i := 0; i < llc.Slices(); i++ {
		if got := llc.Slice(i).Config(); got != slice {
			t.Errorf("LLC slice %d = %+v, want %+v", i, got, slice)
		}
	}
	l1tlb := tlb.Config{Entries: 64, Ways: 4, HitLatency: 1}
	l2tlb := tlb.Config{Entries: 1024, Ways: 8, HitLatency: 7}
	for i, h := range m.TLB {
		if h.L1.Config() != l1tlb || h.L2.Config() != l2tlb {
			t.Errorf("core %d TLBs = %+v / %+v, want %+v / %+v", i, h.L1.Config(), h.L2.Config(), l1tlb, l2tlb)
		}
	}
	mesh := noc.Config{Cols: 6, Rows: 4, HopLatency: 1, RouterLatency: 2, LinkBytesPerCycle: 32}
	if got := m.Mesh.Config(); got != mesh {
		t.Errorf("mesh = %+v, want %+v", got, mesh)
	}
	// Consecutive lines interleave over the six memory controllers.
	for i, want := range []noc.Stop{0, 5, 9, 14, 18, 23} {
		if got := m.Hier.MemStopFor(mem.PAddr(uint64(i) * line)); got != want {
			t.Errorf("memory stop %d = %d, want %d", i, got, want)
		}
	}
	a := m.AS.AllocLines(1)
	if _, lat, err := m.TLB[0].Walker.Walk(a, 0); err != nil || lat != uint64(m.AS.WalkLevels())*30 {
		t.Errorf("page walk = %d cycles (%v), want 30 per level", lat, err)
	}
	p, err := hwdesc.ForScheme(scheme.CHATLB).SchemeParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.DedicatedTLB != l2tlb {
		t.Errorf("CHA-TLB dedicated TLB = %+v, want the L2 TLB's %+v", p.DedicatedTLB, l2tlb)
	}
}

// BenchmarkNewMachine builds the default 24-core machine: every
// experiment cell and served run starts with one.
func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		benchMachine = New(hwdesc.Default())
	}
}

// benchMachine keeps BenchmarkNewMachine's result live.
var benchMachine *Machine

// TestResetMatchesNew leaves a warm footprint in a machine with every
// sink attached, resets it, and requires the same footprint then to
// leave it equal, field for field, to a freshly built machine: memory,
// every cache and TLB array and counter, the mesh, and no sink. The
// zeroed frames a reset physical memory keeps are the one difference
// allowed (see sameMachine).
//
// More cycles take every cache and TLB down both of Reset's paths.
// Small DPDK's 2049 lines overflow the lists of filled sets of core
// 0's L1D, L2 and TLBs, which Reset then clears whole, while each LLC
// slice clears only its listed sets; after a 48-line footprint only
// the L1D's list overflows. The small footprint follows the large one,
// so the reset machine keeps frames the fresh one never made.
func TestResetMatchesNew(t *testing.T) {
	m := New(hwdesc.Default())
	m.RegisterMetrics(metrics.NewRegistry())
	m.SetTracer(trace.New(64))
	m.AttachFaultInjection(faultinject.New(faultinject.Schedule{}))
	warmDPDKFootprint(m)
	m.Hier.Mesh().ObserveWindow(1000)
	m.TLB[1].L1.Flush()
	warmSmall := func(m *Machine) {
		start := m.AS.AllocLines(48 * mem.LineSize)
		warmRange(m, start, start+48*mem.LineSize)
	}
	for _, warm := range []func(*Machine){warmDPDKFootprint, warmSmall, warmDPDKFootprint, warmSmall} {
		m.Reset()
		fresh := New(hwdesc.Default())
		warm(m)
		warm(fresh)
		if !sameMachine(m, fresh) {
			t.Fatal("a reset machine diverges from a fresh one under the same accesses")
		}
	}
}

// sameMachine reports whether a and b are equal field for field but
// for the zeroed frames a reset physical memory keeps materialized:
// their physical memories must reserve as many frames and hold the same
// bytes in each.
func sameMachine(a, b *Machine) bool {
	n := a.Phys.FramesAllocated()
	if b.Phys.FramesAllocated() != n {
		return false
	}
	fa, fb := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for f := uint64(1); f <= n; f++ {
		a.Phys.Read(mem.PAddr(f<<mem.PageShift), fa)
		b.Phys.Read(mem.PAddr(f<<mem.PageShift), fb)
		if !bytes.Equal(fa, fb) {
			return false
		}
	}
	pa, pb := *a.Phys, *b.Phys
	*a.Phys, *b.Phys = mem.Physical{}, mem.Physical{}
	defer func() { *a.Phys, *b.Phys = pa, pb }()
	return reflect.DeepEqual(a, b)
}

// BenchmarkMachineReset resets a default machine after each iteration
// leaves small DPDK's footprint in it (see warmDPDKFootprint): the cost
// a workload run pays instead of BenchmarkNewMachine.
func BenchmarkMachineReset(b *testing.B) {
	m := New(hwdesc.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		warmDPDKFootprint(m)
		b.StartTimer()
		m.Reset()
	}
}

// warmDPDKFootprint lays out a cuckoo table of small DPDK's shape (1024
// 16-byte keys, 512 buckets of 8 slots) in m and warms it (warmRange).
func warmDPDKFootprint(m *Machine) {
	const n = 1024
	keys, vals := make([][]byte, n), make([]uint64, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.AppendUint64(make([]byte, 8, 16), uint64(i)*0x9E3779B97F4A7C15)
		vals[i] = uint64(i)
	}
	start := m.AS.Brk()
	dstruct.BuildCuckoo(m.AS, n/2, 8, 101, keys, vals)
	warmRange(m, start, m.AS.Brk())
}

// warmRange installs [start, end) in the LLC and reads each of its
// lines once from core 0, as a warm paper cell leaves its machine.
func warmRange(m *Machine, start, end mem.VAddr) {
	m.WarmLLC(start, end)
	port := m.CoreMemPort(0)
	for a := start.Line(); a < end; a += mem.LineSize {
		if _, err := port.Access(a, false, 0); err != nil {
			panic(err)
		}
	}
}

// fillerShapes are the paper benchmarks' request work at small scale
// (internal/workload/benchmarks.go): ops per request, ops per scratch
// load and scratch lines.
var fillerShapes = []struct {
	name            string
	ops, every, lns int
}{
	{"dpdk", 1500, 8, 64},
	{"jvm", 11000, 10, 64},
	{"rocksdb", 23000, 6, 128},
	{"snort", 512000, 8, 128},
	{"flann", 57000, 7, 128},
}

// fillerCore returns a core of a default machine and a Filler block of
// the given shape over scratch lines of that machine, run once so the
// lines are warm.
func fillerCore(ops, every, lines int) (*cpu.Core, isa.Trace) {
	m := New(hwdesc.Default())
	b := isa.NewBuilder()
	b.Filler(ops, every, m.AS.AllocLines(uint64(lines)*mem.LineSize), lines, 0, 0)
	tr := b.Take()
	c := m.NewCore(0, nil)
	c.Run(tr)
	return c, tr
}

// TestCoreFillerAllocatesNothing pins the real port's share of the
// filler loop: a warmed Snort-shaped block, whose skips go through
// ReadRing, timed on a default machine without a host allocation.
func TestCoreFillerAllocatesNothing(t *testing.T) {
	c, tr := fillerCore(512000, 8, 128)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if got := testing.AllocsPerRun(5, func() { c.Run(tr) }); got != 0 {
		t.Fatalf("%v allocs per warmed block, want 0", got)
	}
}

// BenchmarkMachineFiller times one Filler block per iteration, shaped
// like each paper benchmark's request work, on a core of a default
// machine: the filler loop with the real port's L1 hits, which
// cpu.BenchmarkCoreFiller's fixed-latency port does not show.
func BenchmarkMachineFiller(b *testing.B) {
	for _, s := range fillerShapes {
		b.Run(s.name, func(b *testing.B) {
			c, tr := fillerCore(s.ops, s.every, s.lns)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRetire = c.Run(tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.ops), "ns/filler-op")
		})
	}
}

// benchRetire keeps BenchmarkMachineFiller's result live.
var benchRetire uint64
