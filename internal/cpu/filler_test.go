package cpu

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qei/internal/isa"
	"qei/internal/mem"
)

// expandFiller appends op's block to b as plain ops, one builder call
// per op, the way request work was emitted before the Filler op
// existed: the reference the block op is checked against. b must be at
// register op.Dst. It returns the block's chain register.
func expandFiller(b *isa.Builder, op *isa.Op) isa.Reg {
	chain := op.Src1
	every := int(op.Size)
	loads := every > 0 && op.Lines > 0
	size := uint64(op.Lines) * mem.LineSize
	for i := 0; i < int(op.N); i++ {
		switch {
		case loads && i%every == 0:
			off := (uint64(op.Off) + uint64(i)*8) % size
			chain = b.Load(op.Addr+mem.VAddr(off), 8, 0)
		case i%3 == 0:
			chain = b.ALU(chain, 0)
		case i%7 == 6:
			b.Branch(chain, false)
		default:
			b.ALU(0, 0)
		}
	}
	return chain
}

// builderAt returns a builder whose next register is r.
func builderAt(r isa.Reg) *isa.Builder {
	b := isa.NewBuilder()
	for i := isa.Reg(1); i < r; i++ {
		b.Temp()
	}
	return b
}

var errInjected = errors.New("injected fault")

// access is one MemPort call.
type access struct {
	addr  mem.VAddr
	write bool
	issue uint64
}

// scriptPort is a MemPort whose latency is a function of the call, its
// address and its issue cycle, and that faults on its failAt'th call.
// It logs every call.
type scriptPort struct {
	lat    func(n int, a mem.VAddr, issue uint64) uint64
	failAt int
	log    []access
}

func (p *scriptPort) Access(a mem.VAddr, write bool, issue uint64) (uint64, error) {
	p.log = append(p.log, access{a, write, issue})
	if len(p.log) == p.failAt {
		return 0, errInjected
	}
	return p.lat(len(p.log), a, issue), nil
}

// portKinds are the latency scripts of the differential test: fixed,
// one that changes once mid-block, a direct-mapped cache whose hits and
// misses follow the addresses, and one that alternates with the issue
// cycle.
var portKinds = []struct {
	name string
	lat  func(r *rand.Rand) func(n int, a mem.VAddr, issue uint64) uint64
}{
	{"fixed", func(r *rand.Rand) func(int, mem.VAddr, uint64) uint64 {
		lat := uint64(1 + r.Intn(40))
		return func(int, mem.VAddr, uint64) uint64 { return lat }
	}},
	{"step", func(r *rand.Rand) func(int, mem.VAddr, uint64) uint64 {
		lo, hi, at := uint64(1+r.Intn(10)), uint64(5+r.Intn(60)), 20+r.Intn(600)
		return func(n int, _ mem.VAddr, _ uint64) uint64 {
			if n >= at {
				return hi
			}
			return lo
		}
	}},
	{"cache", func(r *rand.Rand) func(int, mem.VAddr, uint64) uint64 {
		tags := make([]mem.VAddr, 1<<(2+r.Intn(6)))
		return func(_ int, a mem.VAddr, _ uint64) uint64 {
			line := a.Line()
			set := &tags[uint64(line/mem.LineSize)%uint64(len(tags))]
			if *set == line+1 {
				return 4
			}
			*set = line + 1
			return 30
		}
	}},
	{"clock", func(r *rand.Rand) func(int, mem.VAddr, uint64) uint64 {
		span := uint64(200 + r.Intn(5000))
		return func(_ int, _ mem.VAddr, issue uint64) uint64 {
			return 4 + issue/span%2*7
		}
	}},
}

// randomConfig returns DefaultConfig half the time, and otherwise
// varies its widths, queue sizes and latencies.
func randomConfig(r *rand.Rand) Config {
	cfg := DefaultConfig()
	if r.Intn(2) == 0 {
		return cfg
	}
	cfg.IssueWidth = []int{1, 2, 3, 4, 4, 4, 5, 8}[r.Intn(8)]
	cfg.RetireWidth = 1 + r.Intn(4)
	cfg.ROBEntries = []int{8, 32, 100, 224, 224}[r.Intn(5)]
	cfg.LoadQueueEntries = []int{2, 9, 72, 72}[r.Intn(4)]
	cfg.StoreQueueEntries = []int{2, 56}[r.Intn(2)]
	cfg.ALULatency = uint64(1 + r.Intn(2))
	return cfg
}

// randomPrefix emits a random mix of every plain op kind, QUERY_B and
// QUERY_NB included, to leave a core in an arbitrary state.
func randomPrefix(r *rand.Rand, b *isa.Builder, n int) {
	reg := func() isa.Reg { return isa.Reg(r.Intn(isa.NumRegs)) }
	for i := 0; i < n; i++ {
		switch r.Intn(9) {
		case 0:
			b.Load(mem.VAddr(0x40000+r.Intn(1<<14)), 8, reg())
		case 1:
			b.Store(mem.VAddr(0x80000+r.Intn(1<<12)), 8, reg())
		case 2:
			b.Branch(reg(), r.Intn(4) == 0)
		case 3:
			b.Mul(reg(), reg())
		case 4:
			b.QueryB(isa.QueryDesc{Tag: uint64(i)})
		case 5:
			b.QueryNB(isa.QueryDesc{Tag: uint64(i)})
		case 6:
			b.Nop(1 + r.Intn(3))
		default:
			b.ALU(reg(), reg())
		}
	}
}

// randomFiller appends a random Filler block to b and returns its op.
func randomFiller(r *rand.Rand, b *isa.Builder) (isa.Op, isa.Reg) {
	n := r.Intn(8000)
	switch r.Intn(4) {
	case 0:
		n = r.Intn(300)
	case 1:
		n = r.Intn(30000)
	}
	lines := 1 + r.Intn(256)
	off := uint64(r.Intn(lines * mem.LineSize))
	if r.Intn(2) == 0 {
		off &^= 7
	}
	scratch := mem.VAddr(0x100000 + 64*r.Intn(1024))
	if r.Intn(10) == 0 {
		scratch = 0
	}
	every := r.Intn(13)
	if r.Intn(4) == 0 {
		every = 0
	}
	chain := b.Filler(n, every, scratch, lines, off, isa.Reg(r.Intn(isa.NumRegs)))
	ops := b.Ops()
	if n == 0 {
		return isa.Op{}, chain
	}
	return ops[len(ops)-1], chain
}

// coreState is a core's timing state, without its ports and scratch.
func coreState(c *Core) Core {
	s := *c
	s.mem, s.query, s.fill = nil, nil, fillScratch{}
	return s
}

// TestFillerMatchesExpansion is the differential test of the Filler
// op: from random core states, a random block timed by runFiller must
// leave the core exactly as its expansion into plain ops timed by Run
// does — every clock, ring slot, register and Stats field, and every
// memory-port call with its address and issue cycle — under ports whose
// latency varies and that fault part-way through. The builder's
// register numbering after the block must match the expansion's too.
func TestFillerMatchesExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var skipped, cut, faults int
	for trial := 0; trial < 1000; trial++ {
		cfg := randomConfig(r)
		kind := portKinds[trial%len(portKinds)]
		seed := r.Int63()
		prefix := isa.NewBuilder()
		randomPrefix(r, prefix, r.Intn(400))
		pre := prefix.Take()

		first := isa.Reg(1 + r.Intn(isa.NumRegs-1))
		b := builderAt(first)
		op, chain := randomFiller(r, b)
		if op.Kind != isa.Filler {
			continue
		}
		ref := builderAt(first)
		refChain := expandFiller(ref, &op)
		if next, refNext := b.Temp(), ref.Temp(); chain != refChain || next != refNext {
			t.Fatalf("trial %d (block %+v): builder leaves chain %d and next register %d, expansion %d and %d", trial, op, chain, next, refChain, refNext)
		}
		expanded := ref.Take()

		failAt := 0
		if r.Intn(3) == 0 {
			accesses := 0
			for i := range pre {
				if pre[i].Kind == isa.Load || pre[i].Kind == isa.Store {
					accesses++
				}
			}
			failAt = accesses + 1 + r.Intn(int(op.N)/max(int(op.Size), 1)+1)
		}
		newCore := func() (*Core, *scriptPort) {
			p := &scriptPort{lat: kind.lat(rand.New(rand.NewSource(seed))), failAt: failAt}
			return New(cfg, p, &scriptedQuery{blockingLat: uint64(seed % 700), acceptLat: 3}), p
		}
		got, gotPort := newCore()
		want, wantPort := newCore()
		got.Run(pre)
		want.Run(pre)
		got.Run(isa.Trace{op})
		want.Run(expanded)
		// A suffix after the block shows nothing is left out of step.
		got.Run(pre)
		want.Run(pre)

		if !reflect.DeepEqual(coreState(got), coreState(want)) {
			t.Fatalf("trial %d (%s port, %+v, block %+v): core state\n%+v\nwant\n%+v", trial, kind.name, cfg, op, coreState(got), coreState(want))
		}
		if !slices.Equal(gotPort.log, wantPort.log) {
			t.Fatalf("trial %d (%s port, block %+v): %d memory accesses, want %d", trial, kind.name, op, len(gotPort.log), len(wantPort.log))
		}
		skipped += got.fill.skipped
		cut += got.fill.cut
		if got.Err() != nil {
			faults++
		}
	}
	// The trials must reach every path: skips, skips cut short by a
	// latency or a fault, and faults.
	if skipped == 0 || cut == 0 || faults == 0 {
		t.Fatalf("trials skipped %d ops, cut %d skips and faulted %d times", skipped, cut, faults)
	}
	t.Logf("skipped %d ops, cut %d skips, %d faults", skipped, cut, faults)
}

// TestFillerSkipCutByFault pins the fault path inside a skip: a fault
// on a load the skip issues ends the block at that load, with the
// state, Err and Instructions op-by-op timing leaves.
func TestFillerSkipCutByFault(t *testing.T) {
	b := isa.NewBuilder()
	b.Filler(20000, 8, 0x10000, 64, 0, 0)
	tr := b.Take()
	// With a fixed latency the block is steady from early on, so load
	// 2000 (op 16 000) lies in a skip.
	lat := func(int, mem.VAddr, uint64) uint64 { return 4 }
	got := New(DefaultConfig(), &scriptPort{lat: lat, failAt: 2000}, nil)
	got.Run(tr)
	if got.fill.skipped == 0 || got.fill.cut != 1 {
		t.Fatalf("skipped %d ops and cut %d skips; the fault must fall in a skip", got.fill.skipped, got.fill.cut)
	}
	ref := isa.NewBuilder()
	expandFiller(ref, &tr[0])
	want := New(DefaultConfig(), &scriptPort{lat: lat, failAt: 2000}, nil)
	want.Run(ref.Take())
	if !errors.Is(got.Err(), errInjected) || got.Stats().Instructions != 8*1999 {
		t.Fatalf("err %v after %d instructions, want the fault after %d", got.Err(), got.Stats().Instructions, 8*1999)
	}
	if !reflect.DeepEqual(coreState(got), coreState(want)) {
		t.Fatalf("core state\n%+v\nwant\n%+v", coreState(got), coreState(want))
	}
}

// TestFillSteadyComparesState pins the steady-state check: a state
// that is the last boundary's moved by some cycles matches it, whatever
// its ring entries at or before the fetch clock hold, and a change to
// any other part of it does not.
func TestFillSteadyComparesState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(c *Core, f *fillBlock)
		same   bool
	}{
		{"moved", func(*Core, *fillBlock) {}, true},
		{"rob entry before fetch", func(c *Core, _ *fillBlock) { c.retireRing[c.robPos] -= 50 }, true},
		{"lq entry before fetch", func(c *Core, _ *fillBlock) { c.loadRing[c.lqPos] -= 50 }, true},
		{"rob entry at fetch", func(c *Core, _ *fillBlock) { c.retireRing[(c.robPos+200)%224] -= 5 }, true},
		{"rob entry after fetch moved to it", func(c *Core, _ *fillBlock) { c.retireRing[(c.robPos+201)%224]-- }, false},
		{"rob entry after fetch", func(c *Core, _ *fillBlock) { c.retireRing[c.robPos-1]++ }, false},
		{"lq entry after fetch", func(c *Core, _ *fillBlock) { c.loadRing[c.lqPos-1]++ }, false},
		{"fetch slot", func(c *Core, _ *fillBlock) { c.fetchSlots++ }, false},
		{"retire slot", func(c *Core, _ *fillBlock) { c.retireInCy++ }, false},
		{"max dispatch", func(c *Core, _ *fillBlock) { c.maxDispatch++ }, false},
		{"last retire", func(c *Core, _ *fillBlock) { c.lastRetire++ }, false},
		{"chain", func(_ *Core, f *fillBlock) { f.chain++ }, false},
	} {
		c := New(DefaultConfig(), &fixedMem{lat: 4}, nil)
		c.fill.grow(0, len(c.retireRing), len(c.loadRing))
		f := &fillBlock{chain: 1002}
		c.fetchCycle, c.fetchSlots = 1000, 2
		c.maxDispatch, c.lastRetire, c.retireInCy = 1003, 1010, 3
		c.robPos, c.lqPos = 17, 5
		// Oldest first from each ring's position, the entries climb from
		// before the fetch clock to after it: the 201st ROB entry is at
		// the fetch clock.
		for i := range c.retireRing {
			c.retireRing[(c.robPos+i)%len(c.retireRing)] = 800 + uint64(i)
		}
		for i := range c.loadRing {
			c.loadRing[(c.lqPos+i)%len(c.loadRing)] = 950 + 2*uint64(i)
		}
		c.fillSteady(f, false)

		const d = 37
		c.fetchCycle += d
		c.maxDispatch += d
		c.lastRetire += d
		f.chain += d
		for i := range c.retireRing {
			c.retireRing[i] += d
		}
		for i := range c.loadRing {
			c.loadRing[i] += d
		}
		tc.change(c, f)
		if got := c.fillSteady(f, true); got != tc.same {
			t.Errorf("%s: steady = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestFillerAllocatesNothing pins the filler loop: a warmed core times
// a 57 000-op block, skips included, without a host allocation.
func TestFillerAllocatesNothing(t *testing.T) {
	b := isa.NewBuilder()
	b.Filler(57000, 7, 0x10000, 128, 0, 0)
	tr := b.Take()
	c := New(DefaultConfig(), &fixedMem{lat: 4}, nil)
	c.Run(tr)
	if c.fill.skipped == 0 {
		t.Fatal("the block never reached a steady state")
	}
	if got := testing.AllocsPerRun(10, func() { c.Run(tr) }); got != 0 {
		t.Fatalf("%v allocs per warmed block, want 0", got)
	}
}

// BenchmarkCoreFiller times one Filler block per iteration, shaped like
// each paper benchmark's request work, on a memory port with a fixed
// L1-hit latency: the filler loop and its period skips.
func BenchmarkCoreFiller(b *testing.B) {
	for _, s := range []struct {
		name            string
		ops, every, lns int
	}{
		{"dpdk", 1500, 8, 64},
		{"jvm", 11000, 10, 64},
		{"rocksdb", 23000, 6, 128},
		{"flann", 57000, 7, 128},
	} {
		b.Run(s.name, func(b *testing.B) {
			bl := isa.NewBuilder()
			bl.Filler(s.ops, s.every, 0x10000, s.lns, 0, 0)
			tr := bl.Take()
			c := New(DefaultConfig(), &fixedMem{lat: 4}, nil)
			c.Run(tr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRetire = c.Run(tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.ops), "ns/filler-op")
		})
	}
}
