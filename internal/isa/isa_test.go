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

// recordingSink keeps a copy of every op it is handed (the builder
// reuses the buffer after Run returns) and the size of each hand-off.
type recordingSink struct {
	ops   Trace
	calls []int
}

func (s *recordingSink) Run(t Trace) uint64 {
	s.ops = append(s.ops, t...)
	s.calls = append(s.calls, len(t))
	return 0
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

// opsPerMixedRound is the number of ops one emitMixed round emits.
const opsPerMixedRound = 9

func TestBuilderStreamMatchesAccumulated(t *testing.T) {
	for _, rounds := range []int{1, 455, 456, 1500} { // 456*9 > streamChunk
		ref := NewBuilder()
		emitMixed(ref, rounds)
		want := ref.Take()
		if len(want) != rounds*opsPerMixedRound {
			t.Fatalf("%d rounds emitted %d ops, want %d", rounds, len(want), rounds*opsPerMixedRound)
		}

		sink := &recordingSink{}
		b := NewBuilder()
		b.StreamTo(sink)
		emitMixed(b, rounds)
		b.Flush()
		if !reflect.DeepEqual(sink.ops, want) {
			t.Fatalf("%d rounds: streamed ops differ from the accumulated trace", rounds)
		}
		for i, n := range sink.calls {
			if n > streamChunk || (i < len(sink.calls)-1 && n != streamChunk) {
				t.Fatalf("%d rounds: hand-off sizes %v, want full buffers of %d then the rest", rounds, sink.calls, streamChunk)
			}
		}
		if b.Len() != 0 {
			t.Fatalf("%d rounds: %d ops still buffered after Flush", rounds, b.Len())
		}
	}
}

func TestBuilderStreamAppendLongerThanBuffer(t *testing.T) {
	long := NewBuilder()
	emitMixed(long, 2*streamChunk/opsPerMixedRound+100)
	skel := long.Snapshot()
	tail := long.Take()

	ref := NewBuilder()
	emitMixed(ref, 10)
	ref.Append(tail)
	ref.AppendSkeleton(skel)
	ref.ALU(0, 0)
	want := ref.Take()

	sink := &recordingSink{}
	b := NewBuilder()
	b.StreamTo(sink)
	emitMixed(b, 10)
	b.Append(tail)
	b.AppendSkeleton(skel)
	b.ALU(0, 0)
	b.Flush()
	if !reflect.DeepEqual(sink.ops, want) {
		t.Fatal("streamed Append/AppendSkeleton differ from the accumulated trace")
	}
	full := len(want) / streamChunk
	for i, n := range sink.calls {
		if i < full && n != streamChunk || i == full && n != len(want)%streamChunk || i > full {
			t.Fatalf("hand-offs = %v, want %d buffers of %d then %d", sink.calls, full, streamChunk, len(want)%streamChunk)
		}
	}
}

// TestBuilderFlushEmptyDoesNotCallSink covers a fresh builder, one
// whose ops were dropped by Reset, and one whose last op filled the
// buffer exactly (so push already handed it over).
func TestBuilderFlushEmptyDoesNotCallSink(t *testing.T) {
	sink := &recordingSink{}
	b := NewBuilder()
	b.StreamTo(sink)
	b.Flush()
	b.ALU(0, 0)
	b.Reset()
	b.Flush()
	if len(sink.calls) != 0 {
		t.Fatalf("Flush with nothing buffered called the sink %d times", len(sink.calls))
	}
	for i := 0; i < 3*streamChunk; i++ {
		b.ALU(0, 0)
	}
	if want := []int{streamChunk, streamChunk, streamChunk}; !reflect.DeepEqual(sink.calls, want) {
		t.Fatalf("hand-offs = %v, want %v", sink.calls, want)
	}
	b.Flush()
	if len(sink.calls) != 3 {
		t.Fatalf("Flush of an empty buffer called the sink: hand-offs %v", sink.calls)
	}
}

func TestBuilderFlushKeepsRegistersResetRestarts(t *testing.T) {
	ref := NewBuilder()
	emitMixed(ref, 3)
	emitMixed(ref, 3)
	want := ref.Take()

	sink := &recordingSink{}
	b := NewBuilder()
	b.StreamTo(sink)
	emitMixed(b, 3)
	b.Flush()
	emitMixed(b, 3)
	b.Flush()
	if !reflect.DeepEqual(sink.ops, want) {
		t.Fatal("a Flush between emits changed the ops (register numbering must carry on)")
	}

	// After Reset the builder emits what a fresh one does.
	fresh := NewBuilder()
	emitMixed(fresh, 3)
	sink.ops = nil
	b.Reset()
	emitMixed(b, 3)
	b.Flush()
	if !reflect.DeepEqual(sink.ops, fresh.Take()) {
		t.Fatal("Reset did not restart register numbering")
	}
}

// TestBuilderReusedSlotsCarryNoStaleFields refills the stream buffer's
// positions across six flushes: each position alternates between a
// QUERY_B, a mispredicted branch or a load and, the round after, an
// ALU, a Nop or a store, so every plain kind lands on every rich one.
// The sink must see the ops an accumulating builder holds, with no
// field left over from the op that last used the position.
func TestBuilderReusedSlotsCarryNoStaleFields(t *testing.T) {
	const rounds = 6
	emit := func(b *Builder) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < streamChunk; i++ {
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
	}
	ref := NewBuilder()
	emit(ref)
	want := ref.Take()

	sink := &recordingSink{}
	b := NewBuilder()
	b.StreamTo(sink)
	emit(b)
	b.Flush()
	if len(sink.calls) != rounds {
		t.Fatalf("hand-offs = %v, want %d full buffers", sink.calls, rounds)
	}
	for i, op := range sink.ops {
		plain := Op{Kind: op.Kind}
		switch op.Kind {
		case ALU:
			plain.Dst = op.Dst
		case Store:
			plain.Addr, plain.Size = 0x2000, 4
		}
		if (i/streamChunk)%2 == 1 && op != plain {
			t.Fatalf("op %d = %+v, want %+v: a field survived from the position's last op", i, op, plain)
		}
	}
	if !reflect.DeepEqual(sink.ops, want) {
		t.Fatal("streamed ops differ from the accumulated trace")
	}
}

// countingSink counts the ops it is handed.
type countingSink struct{ n int }

func (s *countingSink) Run(t Trace) uint64 {
	s.n += len(t)
	return 0
}

// BenchmarkBuilderStream streams 4096 ops per iteration shaped like an
// expanded Filler block — a dependent ALU chain, independent scalar
// ops, well-predicted branches and a load every 8th op — into a sink
// that only counts them: the cost of building the ops alone.
func BenchmarkBuilderStream(b *testing.B) {
	sink := &countingSink{}
	bl := NewBuilder()
	bl.StreamTo(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
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
	bl.Flush()
}
