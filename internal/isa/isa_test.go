package isa

import (
	"reflect"
	"testing"

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

func TestCounts(t *testing.T) {
	b := NewBuilder()
	b.Load(0x10, 8, 0)
	b.ALU(0, 0)
	b.ALUN(4, 0)
	b.Mul(0, 0)
	b.Branch(0, false)
	b.Nop(2)
	tr := b.Take()
	c := tr.Counts()
	if c[Load] != 1 || c[ALU] != 5 || c[MulALU] != 1 || c[Branch] != 1 || c[Nop] != 2 {
		t.Fatalf("counts = %v", c)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Nop: "nop", ALU: "alu", MulALU: "mul", Load: "load", Store: "store",
		Branch: "branch", QueryB: "query_b", QueryNB: "query_nb",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
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
