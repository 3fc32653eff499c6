package isa

import (
	"reflect"
	"testing"
	"unsafe"

	"qei/internal/mem"
)

func TestBuilderLoadDeps(t *testing.T) {
	b := NewBuilder()
	r1 := b.Load(0x1000, 8, 0)
	r2 := b.Load(0x2000, 8, r1)
	tr := b.Take()
	if len(tr) != 2 {
		t.Fatalf("trace length = %d", len(tr))
	}
	if tr[1].Src1 != r1 || tr[1].Dst != r2 {
		t.Fatalf("dependency not recorded: %+v", tr[1])
	}
}

func TestLoadRangeCoversLines(t *testing.T) {
	b := NewBuilder()
	// 100 bytes starting mid-line at 0x1020 touches lines 0x1000..0x1080.
	b.LoadRange(0x1020, 100, 0)
	tr := b.Take()
	if got := tr.Loads(); got != 3 {
		t.Fatalf("LoadRange emitted %d loads, want 3", got)
	}
	seen := map[mem.VAddr]bool{}
	for _, op := range tr {
		if op.Kind == Load {
			if op.Addr != op.Addr.Line() {
				t.Fatalf("load address %#x not line-aligned", uint64(op.Addr))
			}
			seen[op.Addr] = true
		}
	}
	for _, want := range []mem.VAddr{0x1000, 0x1040, 0x1080} {
		if !seen[want] {
			t.Fatalf("line %#x not loaded", uint64(want))
		}
	}
}

func TestLoadRangeZero(t *testing.T) {
	b := NewBuilder()
	r := b.LoadRange(0x1000, 0, 5)
	if r != 5 {
		t.Fatalf("zero-size LoadRange should return base reg, got %d", r)
	}
	if b.Len() != 0 {
		t.Fatal("zero-size LoadRange emitted ops")
	}
}

func TestTempWrapsSkippingZero(t *testing.T) {
	b := NewBuilder()
	seen := map[Reg]bool{}
	for i := 0; i < 3*NumRegs; i++ {
		r := b.Temp()
		if r == 0 {
			t.Fatal("Temp() returned the zero register")
		}
		seen[r] = true
	}
	if len(seen) != NumRegs-1 {
		t.Fatalf("Temp cycled through %d registers, want %d", len(seen), NumRegs-1)
	}
}

func TestQueryDescCopied(t *testing.T) {
	b := NewBuilder()
	q := QueryDesc{HeaderAddr: 1, KeyAddr: 2, ResultAddr: 3, Tag: 9}
	b.QueryNB(q)
	q.Tag = 42 // mutate the original
	tr := b.Take()
	if tr[0].Query.Tag != 9 {
		t.Fatal("builder aliased the caller's QueryDesc")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Nop: "nop", ALU: "alu", MulALU: "mul", Load: "load", Store: "store",
		Branch: "branch", QueryB: "query_b", QueryNB: "query_nb", Filler: "filler",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestOpSize pins the op at 32 bytes: a Filler block's fields fill
// the padding the other kinds leave.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Fatalf("Op is %d bytes, want 32", got)
	}
}

// TestFillerEmpty pins that an empty block appends nothing and leaves
// the seed as the chain, and that a block without scratch loads nothing.
func TestFillerEmpty(t *testing.T) {
	b := NewBuilder()
	if r := b.Filler(0, 8, 0x1000, 64, 0, 7); r != 7 || b.Len() != 0 {
		t.Fatalf("empty block returned %d and appended %d ops", r, b.Len())
	}
	b.Filler(100, 8, 0, 64, 64, 7)
	if op := b.Ops()[0]; op.Kind != Filler || op.N != 100 || op.Size != 0 || op.Lines != 0 || op.Off != 0 || op.Src1 != 7 {
		t.Fatalf("block without scratch = %+v, want one without loads", op)
	}
}

// emitMixed emits n rounds of every op kind, chained through registers
// so the register numbering is visible in the ops.
func emitMixed(b *Builder, n int) {
	r := Reg(0)
	for i := 0; i < n; i++ {
		r = b.Load(mem.VAddr(0x1000+64*i), 8, r)
		r = b.ALU(r, 0)
		r = b.Mul(r, r)
		b.Store(mem.VAddr(0x9000+8*i), 8, r)
		b.Branch(r, i%5 == 0)
		b.Nop(2)
		r = b.QueryB(QueryDesc{HeaderAddr: 0x40, KeyAddr: mem.VAddr(i), Tag: uint64(i)})
		b.QueryNB(QueryDesc{HeaderAddr: 0x40, KeyAddr: mem.VAddr(i), ResultAddr: 0x80, Tag: uint64(i)})
	}
}

func TestBuilderTakeKeepsRegistersResetRestarts(t *testing.T) {
	ref := NewBuilder()
	emitMixed(ref, 3)
	emitMixed(ref, 3)
	want := ref.Take()

	b := NewBuilder()
	emitMixed(b, 3)
	got := b.Take()
	emitMixed(b, 3)
	got = append(got, b.Ops()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a Take between emits changed the ops (register numbering must carry on)")
	}

	// After Reset the builder emits what a fresh one does.
	fresh := NewBuilder()
	emitMixed(fresh, 3)
	b.Reset()
	emitMixed(b, 3)
	if !reflect.DeepEqual(b.Ops(), fresh.Ops()) {
		t.Fatal("Reset did not restart register numbering")
	}
}

// TestBuilderQueryDescriptorsOutliveTheirUse emits enough queries to
// fill several descriptor blocks, then checks that a taken trace and a
// skeleton keep their descriptors while the builder is reset and
// reused, and that a warm builder's queries allocate nothing.
func TestBuilderQueryDescriptorsOutliveTheirUse(t *testing.T) {
	fresh := func() Trace {
		b := NewBuilder()
		emitMixed(b, 3*descBlock)
		return b.Take()
	}
	b := NewBuilder()
	emitMixed(b, 3*descBlock)
	skel := b.Snapshot()
	b.Reset()
	emitMixed(b, 3*descBlock)
	taken := b.Take()
	b.Reset()
	emitMixed(b, 5*descBlock)
	if want := fresh(); !reflect.DeepEqual(skel.Ops, want) || !reflect.DeepEqual(taken, want) {
		t.Fatal("a skeleton or a taken trace lost its query descriptors to later emits")
	}
	q := QueryDesc{HeaderAddr: 0x40, KeyAddr: 0x80}
	if n := testing.AllocsPerRun(10, func() {
		b.Reset()
		for i := 0; i < 4*descBlock; i++ {
			b.QueryB(q)
			b.QueryNB(q)
		}
	}); n != 0 {
		t.Errorf("a warm builder's queries made %v allocations, want 0", n)
	}
}

// TestBuilderReusedSlotsCarryNoStaleFields refills a builder's trace
// positions across six Resets: each position alternates between a
// QUERY_B, a mispredicted branch or a load and, the round after, an
// ALU, a Nop or a store, so every plain kind lands on every rich one.
// Each round must hold the ops a fresh builder emits, with no field
// left over from the op that last used the position.
func TestBuilderReusedSlotsCarryNoStaleFields(t *testing.T) {
	const rounds, n = 6, 4096
	emit := func(b *Builder, round int) {
		for i := 0; i < n; i++ {
			if round%2 == 0 {
				switch i % 3 {
				case 0:
					b.QueryB(QueryDesc{HeaderAddr: 0x40, KeyAddr: mem.VAddr(i)})
				case 1:
					b.Branch(Reg(1+i%(NumRegs-1)), true)
				default:
					b.Load(mem.VAddr(0x1000+8*i), 8, Reg(1+i%(NumRegs-1)))
				}
				continue
			}
			switch (i + round/2) % 3 {
			case 0:
				b.ALU(0, 0)
			case 1:
				b.Nop(1)
			default:
				b.Store(0x2000, 4, 0)
			}
		}
	}
	b := NewBuilder()
	for round := 0; round < rounds; round++ {
		b.Reset()
		emit(b, round)
		fresh := NewBuilder()
		emit(fresh, round)
		if !reflect.DeepEqual(b.Ops(), fresh.Ops()) {
			t.Fatalf("round %d: ops differ from a fresh builder's", round)
		}
		if round%2 == 0 {
			continue
		}
		for i, op := range b.Ops() {
			plain := Op{Kind: op.Kind}
			switch op.Kind {
			case ALU:
				plain.Dst = op.Dst
			case Store:
				plain.Addr, plain.Size = 0x2000, 4
			}
			if op != plain {
				t.Fatalf("round %d op %d = %+v, want %+v: a field survived from the position's last op", round, i, op, plain)
			}
		}
	}
}

// emitFillerShape emits 4096 ops shaped like an expanded Filler block:
// a dependent ALU chain, independent scalar ops, well-predicted
// branches and a load every 8th op.
func emitFillerShape(bl *Builder) {
	chain := Reg(0)
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
}

// BenchmarkBuilderEmit emits the 4096-op mix of emitFillerShape into a
// builder that is Reset every iteration: the cost of building the ops
// alone. The builder's trace is grown before the timer starts, so an
// iteration allocates nothing.
func BenchmarkBuilderEmit(b *testing.B) {
	bl := NewBuilder()
	emitFillerShape(bl)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bl.Reset()
		emitFillerShape(bl)
	}
}
