package cpu

import (
	"errors"
	"reflect"
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

// ReadRing makes the n reads at once if each would return lat and none
// faults.
func (f *fixedMem) ReadRing(_ mem.VAddr, _, _, _, n, lat uint64) bool {
	if lat != f.lat || f.failAt > f.accesses && f.failAt <= f.accesses+int(n) {
		return false
	}
	f.accesses += int(n)
	return true
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

// splitTrace is a mixed trace for the split tests: dependent ALU
// chains that retire several ops a cycle, a mispredicted branch, a
// burst of independent loads that overruns splitConfig's load queue, a
// multiply, stores, and QUERY_B/QUERY_NB ops.
func splitTrace() isa.Trace {
	b := isa.NewBuilder()
	r := b.ALUN(5, 0)
	for i := 0; i < 6; i++ {
		b.Load(mem.VAddr(0x1000*(i+1)), 8, r)
	}
	r = b.Mul(r, b.ALU(0, 0))
	b.Branch(r, true)
	q := b.QueryB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: 0x200})
	b.Store(0x3000, 8, q)
	b.QueryNB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: 0x240, ResultAddr: 0x300})
	for i := 0; i < 12; i++ {
		b.ALU(0, 0)
	}
	r = b.ALUN(3, q)
	b.Branch(r, false)
	b.Nop(3)
	b.Store(0x3040, 8, r)
	b.Load(0x4000, 8, r)
	return b.Take()
}

// splitConfig shrinks the load and store queues so splitTrace stalls
// on them. Its ROB holds the whole trace, so after one run
// retireRing[i] is op i's retire cycle; rob > 0 shrinks the ROB to
// that many entries instead, so dispatch stalls on it.
func splitConfig(rob int) Config {
	cfg := DefaultConfig()
	cfg.LoadQueueEntries = 4
	cfg.StoreQueueEntries = 2
	if rob > 0 {
		cfg.ROBEntries = rob
	}
	return cfg
}

func newSplitCore(rob int, port MemPort) *Core {
	return New(splitConfig(rob), port, &scriptedQuery{blockingLat: 60, acceptLat: 5})
}

// TestRunIndependentOfSplit pins that Run keeps no state of its own
// between calls: running a trace as t[:k] then t[k:] must leave the
// core exactly as one Run(t) does, for every k.
func TestRunIndependentOfSplit(t *testing.T) {
	tr := splitTrace()
	for _, rob := range []int{0, 8} {
		whole := newSplitCore(rob, &fixedMem{lat: 30})
		end := whole.Run(tr)
		if whole.Err() != nil {
			t.Fatal(whole.Err())
		}
		s := whole.Stats()
		if s.LQStallCycles == 0 || s.Mispredicts != 1 || s.Queries != 2 || (rob > 0) != (s.ROBStallCycles > 0) {
			t.Fatalf("rob=%d: trace does not exercise the core: %+v", rob, s)
		}
		for k := 1; k < len(tr); k++ {
			c := newSplitCore(rob, &fixedMem{lat: 30})
			first := c.Run(tr[:k])
			if rob == 0 && first != whole.retireRing[k-1] {
				t.Fatalf("k=%d: Run(t[:k]) = %d, want op %d's retire cycle %d", k, first, k-1, whole.retireRing[k-1])
			}
			if got := c.Run(tr[k:]); got != end {
				t.Fatalf("rob=%d k=%d: split run ended at %d, want %d", rob, k, got, end)
			}
			if c.Stats() != s || c.Now() != whole.Now() {
				t.Fatalf("rob=%d k=%d: stats %+v now %d, want %+v now %d", rob, k, c.Stats(), c.Now(), s, whole.Now())
			}
			if rob == 0 && !reflect.DeepEqual(c.retireRing, whole.retireRing) {
				t.Fatalf("k=%d: per-op retire cycles %v, want %v", k, c.retireRing[:len(tr)], whole.retireRing[:len(tr)])
			}
			// Every field: clocks, ring positions, register readiness.
			if !reflect.DeepEqual(c, whole) {
				t.Fatalf("rob=%d k=%d: core state %+v, want %+v", rob, k, *c, *whole)
			}
		}
	}

	// The same with Filler blocks in the trace. The ROB of 8 keeps the
	// blocks from a steady state; the default ROB lets them skip
	// periods, the last block up to its end.
	ftr, last := fillerSplitTrace()
	for _, rob := range []int{0, 8} {
		newCore := func() *Core {
			cfg := DefaultConfig()
			if rob > 0 {
				cfg.ROBEntries = rob
			}
			return New(cfg, &fixedMem{lat: 30}, &scriptedQuery{blockingLat: 60, acceptLat: 5})
		}
		if rob == 0 {
			probe := newCore()
			probe.Run(ftr[:last])
			before := probe.fill.skipped
			probe.Run(ftr[last : last+1])
			if probe.fill.skipped == before {
				t.Fatal("the last block skipped no ops; it must end in a skip")
			}
		}
		whole := newCore()
		end := whole.Run(ftr)
		if whole.Err() != nil {
			t.Fatal(whole.Err())
		}
		for k := 1; k < len(ftr); k++ {
			c := newCore()
			c.Run(ftr[:k])
			if got := c.Run(ftr[k:]); got != end {
				t.Fatalf("filler rob=%d k=%d: split run ended at %d, want %d", rob, k, got, end)
			}
			if !reflect.DeepEqual(c, whole) {
				t.Fatalf("filler rob=%d k=%d: core state %+v, want %+v", rob, k, *c, *whole)
			}
		}
	}
}

// fillerSplitTrace is splitTrace between Filler blocks: one with loads
// before it, then one without loads seeded by a QUERY_B and starting
// mid fetch group, and last, at the returned index, one of a whole
// number of periods (168 ops at the default issue width and a load
// every 8th op), so that a skip can run to its end.
func fillerSplitTrace() (isa.Trace, int) {
	b := isa.NewBuilder()
	b.Filler(3000, 8, 0x10000, 64, 128, 0)
	b.Append(splitTrace())
	q := b.QueryB(isa.QueryDesc{HeaderAddr: 0x100, KeyAddr: 0x280})
	b.ALU(0, 0)
	b.Filler(2500, 0, 0, 0, 0, q)
	b.ALU(0, 0)
	last := b.Len()
	b.Filler(168*20, 8, 0x10000, 64, 0, 0)
	b.Load(0x4000, 8, 0)
	return b.Take(), last
}

// TestRunStopsAtFault pins the fault contract: the faulting load ends
// the run, only the ops before it count, and a later Run does nothing.
func TestRunStopsAtFault(t *testing.T) {
	tr := splitTrace()
	m := &fixedMem{lat: 30, failAt: 4}
	c := newSplitCore(0, m)
	c.Run(tr)
	if c.Err() == nil {
		t.Fatal("the fourth access did not fault")
	}
	loads := 0
	faulting := -1
	for i := range tr {
		if tr[i].Kind == isa.Load {
			if loads++; loads == 4 {
				faulting = i
				break
			}
		}
	}
	s := c.Stats()
	if s.Instructions != uint64(faulting) {
		t.Fatalf("instructions = %d, want the %d ops before the faulting load", s.Instructions, faulting)
	}
	now, accesses := c.Now(), m.accesses
	if got := c.Run(tr); got != now || c.Stats() != s || m.accesses != accesses {
		t.Fatalf("Run after a fault changed the core: end %d (was %d), stats %+v (was %+v), %d accesses (was %d)",
			got, now, c.Stats(), s, m.accesses, accesses)
	}
}

// issueLog is fixedMem that also records each access's issue cycle.
type issueLog struct {
	fixedMem
	issues []uint64
}

func (l *issueLog) Access(a mem.VAddr, write bool, issue uint64) (uint64, error) {
	l.issues = append(l.issues, issue)
	return l.fixedMem.Access(a, write, issue)
}

// ReadRing declines, so every read logs its issue cycle.
func (l *issueLog) ReadRing(mem.VAddr, uint64, uint64, uint64, uint64, uint64) bool { return false }

// TestRestartShiftsFreshRun pins Restart's contract: after a faulted
// run, Restart(at) then Run times the trace exactly as a fresh core
// does, every memory access and the end moved by at, with Err and the
// stats started over.
func TestRestartShiftsFreshRun(t *testing.T) {
	tr := splitTrace()
	freshMem := &issueLog{fixedMem: fixedMem{lat: 30}}
	fresh := newSplitCore(8, freshMem)
	end := fresh.Run(tr)

	const at = 1_000_000
	port := &issueLog{fixedMem: fixedMem{lat: 30, failAt: 4}}
	c := newSplitCore(8, port)
	c.Run(tr)
	if c.Err() == nil {
		t.Fatal("the fourth access did not fault")
	}
	port.failAt, port.issues = 0, nil
	c.Restart(at)
	if got := c.Run(tr); got != at+end || c.Err() != nil {
		t.Fatalf("restarted run ended at %d (err %v), want %d", got, c.Err(), at+end)
	}
	want := fresh.Stats()
	want.Cycles += at
	if c.Stats() != want {
		t.Fatalf("restarted stats %+v, want %+v", c.Stats(), want)
	}
	if len(port.issues) != len(freshMem.issues) {
		t.Fatalf("%d accesses, want %d", len(port.issues), len(freshMem.issues))
	}
	for i, issue := range port.issues {
		if issue != at+freshMem.issues[i] {
			t.Fatalf("access %d issued at %d, want %d", i, issue, at+freshMem.issues[i])
		}
	}
}

// TestResetMatchesNew pins Reset's contract: a core that ran a filler
// trace under one configuration and then faulted, reset to another
// configuration and ports, times a trace exactly as a core New builds
// with them, and reset to its own configuration it allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	tr, _ := fillerSplitTrace()
	c := newSplitCore(8, &fixedMem{lat: 30, failAt: 40})
	c.Run(tr)
	if c.Err() == nil {
		t.Fatal("the run did not fault")
	}
	for _, rob := range []int{8, 224} {
		freshMem, port := &issueLog{fixedMem: fixedMem{lat: 30}}, &issueLog{fixedMem: fixedMem{lat: 30}}
		q := &scriptedQuery{blockingLat: 60, acceptLat: 5}
		fresh := New(splitConfig(rob), freshMem, q)
		c.Reset(splitConfig(rob), port, q)
		if got, want := c.Run(tr), fresh.Run(tr); got != want || c.Stats() != fresh.Stats() || c.Err() != nil {
			t.Fatalf("ROB %d: reset core ended at %d with %+v (err %v), a new one at %d with %+v",
				rob, got, c.Stats(), c.Err(), want, fresh.Stats())
		}
		if !reflect.DeepEqual(coreState(c), coreState(fresh)) || !reflect.DeepEqual(port.issues, freshMem.issues) {
			t.Fatalf("ROB %d: reset core's state or accesses differ from a new core's", rob)
		}
	}
	cfg := splitConfig(224)
	port := &fixedMem{lat: 30}
	if n := testing.AllocsPerRun(10, func() { c.Reset(cfg, port, nil) }); n != 0 {
		t.Errorf("Reset to the same sizes made %v allocations, want 0", n)
	}
}

// BenchmarkCoreRun feeds a fixed 4096-op trace of plain ops shaped
// like an expanded Filler block — a dependent ALU chain, independent
// scalar ops, well-predicted branches and a cache-resident load every
// 8th op — through Run's per-op loop.
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
