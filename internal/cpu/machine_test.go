package cpu_test

import (
	"math/rand"
	"reflect"
	"testing"

	"qei/internal/cpu"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
)

// fillerShapes are the request work of the six paper benchmarks at
// small scale, as internal/workload/benchmarks.go shapes each Filler
// block: ops per request, ops per scratch load and scratch lines.
var fillerShapes = []struct {
	name              string
	ops, every, lines int
}{
	{"dpdk", 1500, 8, 64},
	{"jvm", 11000, 10, 64},
	{"rocksdb", 23000, 6, 128},
	{"snort", 512000, 8, 128},
	{"flann", 57000, 7, 128},
	{"tuplespace", 100, 8, 64},
}

// ringCount is a memory port that counts the ReadRing calls the port
// it wraps takes and declines.
type ringCount struct {
	cpu.MemPort
	taken, declined int
}

func (p *ringCount) ReadRing(base mem.VAddr, off, step, size, n, lat uint64) bool {
	ok := p.MemPort.ReadRing(base, off, step, size, n, lat)
	if ok {
		p.taken++
	} else {
		p.declined++
	}
	return ok
}

const heapSize = 1 << 18

// machinePrefix returns a random mix of loads, stores, branches and
// ALU ops over a heap of heapSize bytes and the block's scratch lines:
// it warms some scratch lines, leaves others cold, and may evict
// scratch lines and pages from the L1D and the L1 TLB.
func machinePrefix(r *rand.Rand, heap, scratch mem.VAddr, lines int) isa.Trace {
	b := isa.NewBuilder()
	for i := r.Intn(4) * 400; i > 0; i-- {
		reg := isa.Reg(r.Intn(isa.NumRegs))
		switch r.Intn(6) {
		case 0:
			b.Load(heap+mem.VAddr(8*r.Intn(heapSize/8)), 8, reg)
		case 1:
			b.Store(heap+mem.VAddr(8*r.Intn(heapSize/8)), 8, reg)
		case 2:
			b.Load(scratch+mem.VAddr(mem.LineSize*r.Intn(lines)), 8, reg)
		case 3:
			b.Branch(reg, r.Intn(8) == 0)
		default:
			b.ALU(reg, reg)
		}
	}
	return b.Take()
}

// TestFillerMachineMatchesExpansion is the differential test of the
// real memory port's ReadRing: each paper benchmark's Filler block,
// timed on a core of a default machine, must leave the core, the
// machine's caches and its TLBs exactly as its expansion into plain
// ops, timed one Access per load on a core of a second machine, does.
// That covers every set's tags and LRU stamps, the stamp counters,
// hit, miss and eviction counts and the walkers' counts. Random
// prefixes between the blocks leave scratch lines cold or evicted, so
// the port both takes ring calls and declines them.
func TestFillerMachineMatchesExpansion(t *testing.T) {
	var taken, declined int
	for si, sh := range fillerShapes {
		for trial := 0; trial < 2; trial++ {
			r := rand.New(rand.NewSource(int64(100*si + trial)))
			got, want := machine.New(hwdesc.Default()), machine.New(hwdesc.Default())
			var heap, scratch mem.VAddr
			for _, m := range []*machine.Machine{got, want} {
				heap = m.AS.AllocLines(heapSize)
				scratch = m.AS.AllocLines(uint64(sh.lines) * mem.LineSize)
			}
			port := &ringCount{MemPort: got.CoreMemPort(0)}
			gotCore := cpu.New(cpu.DefaultConfig(), port, nil)
			wantCore := want.NewCore(0, nil)
			for req := 0; req < 3; req++ {
				pre := machinePrefix(r, heap, scratch, sh.lines)
				first := isa.Reg(1 + r.Intn(isa.NumRegs-1))
				b := cpu.BuilderAt(first)
				off := uint64(r.Intn(sh.lines) * mem.LineSize)
				// The last block is cut to a multiple of every shape's
				// period (84, 168 or 420 ops), so a skip may end it and
				// no later load refreshes the stamps the ring call left.
				ops := sh.ops
				if req == 2 && ops >= 840 {
					ops -= ops % 840
				}
				b.Filler(ops, sh.every, scratch, sh.lines, off, isa.Reg(r.Intn(isa.NumRegs)))
				block := b.Take()
				ref := cpu.BuilderAt(first)
				cpu.ExpandFiller(ref, &block[0])
				gotCore.Run(pre)
				wantCore.Run(pre)
				gotCore.Run(block)
				wantCore.Run(ref.Take())
				if gotCore.Err() != nil || wantCore.Err() != nil {
					t.Fatalf("%s trial %d: errors %v and %v", sh.name, trial, gotCore.Err(), wantCore.Err())
				}
				if !reflect.DeepEqual(cpu.StateOf(gotCore), cpu.StateOf(wantCore)) {
					t.Fatalf("%s trial %d block %d: core state\n%+v\nwant\n%+v", sh.name, trial, req, cpu.StateOf(gotCore), cpu.StateOf(wantCore))
				}
				gt, wt := got.TLB[0], want.TLB[0]
				if !reflect.DeepEqual(got.Hier.L1D[0], want.Hier.L1D[0]) || !reflect.DeepEqual(gt.L1, wt.L1) || !reflect.DeepEqual(gt.L2, wt.L2) {
					t.Fatalf("%s trial %d block %d: core 0 L1D or TLBs differ; L1D stats %v, want %v",
						sh.name, trial, req, l1dStats(got), l1dStats(want))
				}
			}
			if !reflect.DeepEqual(got.Hier, want.Hier) {
				t.Fatalf("%s trial %d: cache hierarchy differs; core 0 L1D stats %v, want %v",
					sh.name, trial, l1dStats(got), l1dStats(want))
			}
			if !reflect.DeepEqual(got.TLB, want.TLB) {
				t.Fatalf("%s trial %d: TLBs differ", sh.name, trial)
			}
			taken += port.taken
			declined += port.declined
		}
	}
	if taken == 0 || declined == 0 {
		t.Fatalf("the port took %d ring calls and declined %d; both paths must be reached", taken, declined)
	}
	t.Logf("%d ring calls taken, %d declined", taken, declined)
}

func l1dStats(m *machine.Machine) [4]uint64 {
	h, mi, e, w := m.Hier.L1D[0].Stats()
	return [4]uint64{h, mi, e, w}
}
