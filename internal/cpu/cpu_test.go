package cpu

import (
	"errors"
	"testing"

	"qei/internal/isa"
	"qei/internal/mem"
)

// fixedMem returns the same latency for every access.
type fixedMem struct {
	lat      uint64
	accesses int
	failAt   int // fault on the Nth access (1-based); 0 = never
}

func (f *fixedMem) Access(a mem.VAddr, write bool, issue uint64) (uint64, error) {
	f.accesses++
	if f.failAt != 0 && f.accesses == f.failAt {
		return 0, errors.New("injected fault")
	}
	return f.lat, nil
}

// scriptedQuery returns preprogrammed completion cycles.
type scriptedQuery struct {
	blockingLat uint64
	acceptLat   uint64
	issued      []uint64
}

func (s *scriptedQuery) IssueBlocking(q *isa.QueryDesc, issue uint64) (uint64, error) {
	s.issued = append(s.issued, issue)
	return issue + s.blockingLat, nil
}

func (s *scriptedQuery) IssueNonBlocking(q *isa.QueryDesc, issue uint64) (uint64, error) {
	s.issued = append(s.issued, issue)
	return issue + s.acceptLat, nil
}

func TestIndependentLoadsOverlap(t *testing.T) {
	m := &fixedMem{lat: 100}
	c := New(DefaultConfig(), m, nil)
	b := isa.NewBuilder()
	// Eight independent loads: MLP should make total ≈ one latency, not 8x.
	for i := 0; i < 8; i++ {
		b.Load(mem.VAddr(0x1000*(i+1)), 8, 0)
	}
	end := c.Run(b.Take())
	if end > 100+20 {
		t.Fatalf("independent loads took %d cycles; they should overlap (~100)", end)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	m := &fixedMem{lat: 100}
	c := New(DefaultConfig(), m, nil)
	b := isa.NewBuilder()
	// Pointer chase: each load's address depends on the previous value.
	base := isa.Reg(0)
	for i := 0; i < 8; i++ {
		base = b.Load(mem.VAddr(0x1000*(i+1)), 8, base)
	}
	end := c.Run(b.Take())
	if end < 8*100 {
		t.Fatalf("dependent loads took %d cycles; must serialize (>=800)", end)
	}
}

func TestFrontendWidthBoundsALU(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{lat: 1}, nil)
	b := isa.NewBuilder()
	// 4000 independent single-cycle ops on a 4-wide machine: ~1000 cycles.
	for i := 0; i < 4000; i++ {
		b.ALU(0, 0)
	}
	end := c.Run(b.Take())
	if end < 990 || end > 1100 {
		t.Fatalf("4000 ALU ops on 4-wide core took %d cycles, want ~1000", end)
	}
	if ipc := c.Stats().IPC(); ipc < 3.5 || ipc > 4.1 {
		t.Fatalf("IPC = %.2f, want ~4", ipc)
	}
}

func TestMispredictionStallsFrontend(t *testing.T) {
	run := func(mispredict bool) uint64 {
		c := New(DefaultConfig(), &fixedMem{lat: 1}, nil)
		b := isa.NewBuilder()
		for i := 0; i < 100; i++ {
			r := b.ALU(0, 0)
			b.Branch(r, mispredict)
		}
		return c.Run(b.Take())
	}
	good := run(false)
	bad := run(true)
	if bad <= good+100*DefaultConfig().MispredictPenalty/2 {
		t.Fatalf("mispredicted run (%d) should be far slower than predicted (%d)", bad, good)
	}
}

func TestROBStallOnLongLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBEntries = 8
	m := &fixedMem{lat: 500}
	c := New(cfg, m, nil)
	b := isa.NewBuilder()
	b.Load(0x1000, 8, 0) // long load at ROB head
	for i := 0; i < 100; i++ {
		b.ALU(0, 0) // independent work
	}
	end := c.Run(b.Take())
	// With only 8 ROB entries, dispatch stalls behind the load: the ALU
	// stream cannot finish until the load retires at ~500.
	if end < 500 {
		t.Fatalf("run finished at %d; tiny ROB should stall behind the 500-cycle load", end)
	}
	st := c.Stats()
	if st.ROBStallCycles == 0 {
		t.Fatal("expected ROB stall cycles to be recorded")
	}
	// Stalled instructions queue behind the same full ROB; the lag is
	// charged once, so the counter cannot exceed the run itself.
	if st.ROBStallCycles > end {
		t.Fatalf("%d ROB stall cycles in a %d-cycle run", st.ROBStallCycles, end)
	}
}

func TestBigROBHidesLongLoad(t *testing.T) {
	cfg := DefaultConfig() // 224 entries
	m := &fixedMem{lat: 300}
	c := New(cfg, m, nil)
	b := isa.NewBuilder()
	b.Load(0x1000, 8, 0)
	for i := 0; i < 100; i++ {
		b.ALU(0, 0)
	}
	c.Run(b.Take())
	if c.Stats().ROBStallCycles != 0 {
		t.Fatalf("104 ops fit in a 224-entry ROB; got %d stall cycles", c.Stats().ROBStallCycles)
	}
}

func TestLoadQueueLimitsMLP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadQueueEntries = 4
	m := &fixedMem{lat: 100}
	c := New(cfg, m, nil)
	b := isa.NewBuilder()
	for i := 0; i < 16; i++ {
		b.Load(mem.VAddr(0x1000*(i+1)), 8, 0)
	}
	end := c.Run(b.Take())
	// 16 loads, 4 at a time, 100 cycles each → at least 4 serial batches.
	if end < 390 {
		t.Fatalf("16 loads with LQ=4 finished at %d; want >= ~400", end)
	}
	if c.Stats().LQStallCycles == 0 {
		t.Fatal("expected LQ stalls")
	}
}

func TestQueryBlockingActsLikeLoad(t *testing.T) {
	q := &scriptedQuery{blockingLat: 200}
	c := New(DefaultConfig(), &fixedMem{lat: 1}, q)
	b := isa.NewBuilder()
	r := b.QueryB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: 0x200})
	b.ALU(r, 0) // dependent on the query result
	end := c.Run(b.Take())
	if end < 200 {
		t.Fatalf("dependent op completed at %d, before the query returned", end)
	}
	if len(q.issued) != 1 {
		t.Fatalf("query port saw %d issues", len(q.issued))
	}
}

func TestQueryNonBlockingRetiresEarly(t *testing.T) {
	q := &scriptedQuery{blockingLat: 10_000, acceptLat: 3}
	c := New(DefaultConfig(), &fixedMem{lat: 1}, q)
	b := isa.NewBuilder()
	b.QueryNB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: 0x200, ResultAddr: 0x300})
	for i := 0; i < 10; i++ {
		b.ALU(0, 0)
	}
	end := c.Run(b.Take())
	if end > 50 {
		t.Fatalf("non-blocking query stalled the core until %d", end)
	}
}

func TestQueriesOverlapInQSTStyle(t *testing.T) {
	// Several blocking queries in flight at once: the core can issue them
	// back-to-back because each occupies only an LQ slot while pending.
	q := &scriptedQuery{blockingLat: 500}
	c := New(DefaultConfig(), &fixedMem{lat: 1}, q)
	b := isa.NewBuilder()
	for i := 0; i < 8; i++ {
		b.QueryB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: mem.VAddr(0x200 + i*64)})
	}
	end := c.Run(b.Take())
	if end > 600 {
		t.Fatalf("8 independent blocking queries took %d; should overlap (~500)", end)
	}
}

func TestFaultStopsCore(t *testing.T) {
	m := &fixedMem{lat: 1, failAt: 3}
	c := New(DefaultConfig(), m, nil)
	b := isa.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Load(mem.VAddr(0x1000*(i+1)), 8, 0)
	}
	c.Run(b.Take())
	if c.Err() == nil {
		t.Fatal("expected core to capture the injected fault")
	}
	if c.Stats().Instructions >= 10 {
		t.Fatal("core kept executing after the fault")
	}
}

func TestStatsCounts(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{lat: 1}, &scriptedQuery{})
	b := isa.NewBuilder()
	r := b.Load(0x1000, 8, 0)
	b.Store(0x2000, 8, r)
	b.Branch(r, true)
	b.QueryB(isa.QueryDesc{})
	b.QueryNB(isa.QueryDesc{})
	b.Nop(3)
	c.Run(b.Take())
	s := c.Stats()
	if s.Loads != 1 || s.Stores != 1 || s.Branches != 1 || s.Mispredicts != 1 || s.Queries != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Instructions != 8 {
		t.Fatalf("instructions = %d, want 8", s.Instructions)
	}
}

// BenchmarkCoreRun feeds a fixed 4096-op trace shaped like the
// workloads' non-ROI request work — a dependent ALU chain, independent
// scalar ops, well-predicted branches and a cache-resident load every
// 8th op — the bulk of every core's instruction stream.
func BenchmarkCoreRun(b *testing.B) {
	bl := isa.NewBuilder()
	chain := isa.Reg(0)
	for i := 0; i < 4096; i++ {
		switch {
		case i%8 == 0:
			chain = bl.Load(mem.VAddr(0x10000+(i*8)%4096), 8, 0)
		case i%3 == 0:
			chain = bl.ALU(chain, 0)
		case i%7 == 6:
			bl.Branch(chain, false)
		default:
			bl.ALU(0, 0)
		}
	}
	tr := bl.Take()
	c := New(DefaultConfig(), &fixedMem{lat: 4}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRetire = c.Run(tr)
	}
}

// benchRetire keeps BenchmarkCoreRun's result live.
var benchRetire uint64
