package machine

import (
	"runtime"
	"testing"

	"qei/internal/cache"
	"qei/internal/isa"
	"qei/internal/mem"
	"qei/internal/noc"
)

func TestNewDefaultGeometry(t *testing.T) {
	m := NewDefault()
	if m.Cfg.Cores != 24 {
		t.Fatalf("cores = %d, want 24", m.Cfg.Cores)
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
	cfg := DefaultConfig()
	slice := cache.LLCSliceConfig()
	// Per line: an 8-byte tag, a dirty flag and an 8-byte LRU stamp.
	llc := uint64(cfg.Cores) * slice.SizeBytes / slice.LineSize * (8 + 1 + 8)
	limit := llc + 1<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewDefault()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("NewDefault allocated %.1f MiB, want at most %.1f MiB (the LLC's %.1f MiB + 1 MiB)",
			float64(got)/(1<<20), float64(limit)/(1<<20), float64(llc)/(1<<20))
	}
}

func TestCoreMemPortColdVsWarm(t *testing.T) {
	m := NewDefault()
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

func TestCoreMemPortFaults(t *testing.T) {
	m := NewDefault()
	if _, err := m.CoreMemPort(0).Access(mem.VAddr(0xbad0000), false, 0); err == nil {
		t.Fatal("unmapped access did not fault")
	}
}

func TestNewCoreRunsTrace(t *testing.T) {
	m := NewDefault()
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
	m := NewDefault()
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
	cfg := DefaultConfig()
	cfg.ContiguousFrames = true
	m := New(cfg)
	a := m.AS.Alloc(64*mem.PageSize, mem.PageSize)
	if !m.AS.Contiguous(a, 64*mem.PageSize) {
		t.Fatal("ContiguousFrames config not honored")
	}
}

func TestWarmLLCBringsLinesIn(t *testing.T) {
	m := NewDefault()
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
	for c := 0; c < m.Cfg.Cores; c++ {
		h, mi, _, _ := m.Hier.L1D[c].Stats()
		if h+mi != 0 {
			t.Fatal("WarmLLC touched a private cache")
		}
	}
}

func TestWarmLLCSkipsUnmappedHoles(t *testing.T) {
	m := NewDefault()
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

// TestConfigMemStopsNoAliasing is the slice-aliasing regression for the
// hwdesc/dse materialization path: a built machine must own its
// MemStops, so mutating the caller's slice — or evaluating two machines
// built from one Config concurrently — cannot corrupt routing.
func TestConfigMemStopsNoAliasing(t *testing.T) {
	cfg := DefaultConfig()
	m1 := New(cfg)
	cfg.MemStops[0] = 23 // caller reuses and mutates its slice
	m2 := New(cfg)
	if m1.Cfg.MemStops[0] == 23 {
		t.Fatal("machine aliases the caller's MemStops slice")
	}
	if m2.Cfg.MemStops[0] != 23 {
		t.Fatal("second machine missed the caller's update")
	}
	m2.Cfg.MemStops[0] = 5
	if cfg.MemStops[0] != 23 {
		t.Fatal("mutating a machine's stored Cfg leaked into the caller's slice")
	}
}

func TestConfigClone(t *testing.T) {
	cfg := DefaultConfig()
	cl := cfg.Clone()
	cl.MemStops[1] = 0
	if cfg.MemStops[1] == 0 {
		t.Fatal("Clone shares MemStops storage")
	}
}

// TestNormalizedFillsGeometryDefaults pins the zero-value contract that
// keeps golden cycles stable: a Config without explicit cache/TLB
// geometry normalizes to exactly the Tab. II arrays.
func TestNormalizedFillsGeometryDefaults(t *testing.T) {
	n := Config{Cores: 24, Mesh: DefaultConfig().Mesh,
		MemStops: DefaultConfig().MemStops, PageWalkLatency: 30}.Normalized()
	d := DefaultConfig().Normalized()
	if n.L1D != d.L1D || n.L2 != d.L2 || n.LLCSlice != d.LLCSlice {
		t.Errorf("cache defaults: %+v vs %+v", n, d)
	}
	if n.L1TLB != d.L1TLB || n.L2TLB != d.L2TLB {
		t.Errorf("TLB defaults: %+v vs %+v", n, d)
	}
	// Explicit geometry survives normalization.
	c := DefaultConfig()
	c.L1D.SizeBytes = 64 << 10
	if got := c.Normalized().L1D.SizeBytes; got != 64<<10 {
		t.Errorf("explicit L1D size normalized away: %d", got)
	}
}

// BenchmarkNewMachine builds the default 24-core machine: every
// experiment cell and served run starts with one.
func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		benchMachine = NewDefault()
	}
}

// benchMachine keeps BenchmarkNewMachine's result live.
var benchMachine *Machine
