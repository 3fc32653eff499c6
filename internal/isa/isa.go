// Package isa defines the dynamic micro-operation format consumed by the
// simulated out-of-order core (package cpu).
//
// The software baselines in this reproduction are not compiled x86
// binaries; they are query routines that walk the simulated data
// structures functionally and, as a side effect, emit the dynamic
// instruction stream a compiled -O3 loop would execute: dependent loads
// for pointer chasing, ALU ops for hashing and index arithmetic, compare
// and branch ops for the loop control flow the paper identifies as the
// frontend bottleneck (Sec. II-A). QEI's QUERY_B/QUERY_NB instructions
// (Sec. IV-A) are two additional micro-op kinds.
package isa

import "qei/internal/mem"

// Reg is an architectural register number. The trace generators use a
// small conventional file; register 0 is hardwired zero/unused.
type Reg uint8

// NumRegs is the size of the architectural register file visible to
// traces.
const NumRegs = 64

// Kind enumerates micro-op classes.
type Kind uint8

const (
	// Nop consumes a frontend slot only.
	Nop Kind = iota
	// ALU is a single-cycle integer operation.
	ALU
	// MulALU is a multi-cycle integer operation (multiplies in hash
	// functions).
	MulALU
	// Load reads from memory into Dst.
	Load
	// Store writes a register to memory.
	Store
	// Branch is a conditional branch; Mispredict marks dynamic instances
	// the predictor gets wrong.
	Branch
	// QueryB is the blocking QEI query instruction: behaves like a
	// long-latency load whose value is produced by the accelerator.
	QueryB
	// QueryNB is the non-blocking QEI query instruction: behaves like a
	// store and retires once the accelerator accepts it.
	QueryNB
)

func (k Kind) String() string {
	switch k {
	case Nop:
		return "nop"
	case ALU:
		return "alu"
	case MulALU:
		return "mul"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case QueryB:
		return "query_b"
	case QueryNB:
		return "query_nb"
	default:
		return "unknown"
	}
}

// QueryDesc carries the operands of a QUERY micro-op to the accelerator:
// the data-structure header address, the key address, and (non-blocking
// only) the result address (Sec. IV-A).
type QueryDesc struct {
	HeaderAddr mem.VAddr
	KeyAddr    mem.VAddr
	ResultAddr mem.VAddr // zero for blocking queries
	// KeyLen overrides the header's key length when non-zero — used for
	// variable-length probes such as trie scans over packet payloads.
	KeyLen uint32
	// Tag is an opaque identifier the workload uses to match results.
	Tag uint64
}

// Op is one dynamic micro-operation.
type Op struct {
	Kind Kind
	// Dst is the destination register (0 = none).
	Dst Reg
	// Src1, Src2 are source registers (0 = none).
	Src1, Src2 Reg
	// Addr is the effective virtual address for Load/Store.
	Addr mem.VAddr
	// Size is the access size in bytes for Load/Store (for stats; timing
	// is per line).
	Size uint8
	// Mispredict marks a branch the predictor missed.
	Mispredict bool
	// Query carries QUERY operands; nil otherwise.
	Query *QueryDesc
}

// Trace is a dynamic instruction sequence.
type Trace []Op

// Counts summarizes a trace by kind.
func (t Trace) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for i := range t {
		m[t[i].Kind]++
	}
	return m
}

// Loads returns the number of memory-read micro-ops (the paper's
// "memory accesses per query" metric counts these).
func (t Trace) Loads() int {
	n := 0
	for i := range t {
		if t[i].Kind == Load {
			n++
		}
	}
	return n
}

// Sink consumes ops in program order. A Trace handed to Run is only
// valid for the duration of the call: the builder reuses its storage.
// *cpu.Core is a Sink (package isa cannot import cpu); its Run is the
// core's only loop.
type Sink interface {
	Run(Trace) uint64
}

// streamChunk is the number of ops a streaming Builder buffers before
// handing them to its sink: 4096 ops = 128 KiB, large enough to
// amortise the Run call and small enough to stay cache-resident.
const streamChunk = 4096

// Builder accumulates a trace with a tiny register-allocation convention,
// making the query-routine generators readable. By default it keeps
// every op until Take, Ops or Reset; after StreamTo it instead hands its
// ops to a sink in order through a fixed-size buffer, so an arbitrarily
// long trace never becomes one slice.
type Builder struct {
	ops     Trace
	nextReg Reg
	sink    Sink // nil: accumulate
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder {
	return &Builder{nextReg: 1}
}

// StreamTo makes the builder hand its ops to sink: whenever streamChunk
// ops are buffered they are passed to sink.Run and the buffer empties.
// Flush hands over the remainder. Register numbering carries on across
// flushes (only Reset restarts it), so the sink sees exactly the ops,
// in the same order, that an accumulating builder would hold.
func (b *Builder) StreamTo(sink Sink) {
	b.sink = sink
	if cap(b.ops) < streamChunk {
		b.ops = make(Trace, 0, streamChunk)
	}
}

// Flush hands the buffered ops to the sink and empties the buffer. It
// does not call the sink when nothing is buffered, and does nothing on
// a builder that does not stream.
func (b *Builder) Flush() {
	if b.sink == nil || len(b.ops) == 0 {
		return
	}
	b.sink.Run(b.ops)
	b.ops = b.ops[:0]
}

// slot appends a zeroed op and returns it for the emitter to fill in
// place: building the op on the stack and copying it into the buffer
// costs a store-forwarding stall per op. The emitter calls filled once
// the op is complete.
func (b *Builder) slot() *Op {
	b.ops = append(b.ops, Op{})
	return &b.ops[len(b.ops)-1]
}

// filled hands a full stream buffer to the sink.
func (b *Builder) filled() {
	if len(b.ops) == streamChunk && b.sink != nil {
		b.Flush()
	}
}

// Temp allocates a fresh register, wrapping within the file (past results
// that far back are dead in these loop bodies).
func (b *Builder) Temp() Reg {
	r := b.nextReg
	b.nextReg++
	if b.nextReg >= NumRegs {
		b.nextReg = 1
	}
	return r
}

// Load appends a load of size bytes at addr depending on base, returning
// the destination register.
func (b *Builder) Load(addr mem.VAddr, size uint8, base Reg) Reg {
	dst := b.Temp()
	op := b.slot()
	op.Kind, op.Dst, op.Src1, op.Addr, op.Size = Load, dst, base, addr, size
	b.filled()
	return dst
}

// LoadLine appends a whole-cacheline load (QEI granularity) at addr.
func (b *Builder) LoadLine(addr mem.VAddr, base Reg) Reg {
	return b.Load(addr.Line(), mem.LineSize, base)
}

// LoadRange appends loads covering [addr, addr+size) one cacheline at a
// time, each depending on base, and returns a register that depends on
// all of them (modelling a memcmp-style reduction).
func (b *Builder) LoadRange(addr mem.VAddr, size uint64, base Reg) Reg {
	if size == 0 {
		return base
	}
	acc := base
	first := uint64(addr) &^ (mem.LineSize - 1)
	last := (uint64(addr) + size - 1) &^ (mem.LineSize - 1)
	for line := first; line <= last; line += mem.LineSize {
		r := b.Load(mem.VAddr(line), mem.LineSize, base)
		acc = b.ALU(acc, r)
	}
	return acc
}

// Store appends a store of src to addr.
func (b *Builder) Store(addr mem.VAddr, size uint8, src Reg) {
	op := b.slot()
	op.Kind, op.Src1, op.Addr, op.Size = Store, src, addr, size
	b.filled()
}

// ALU appends a single-cycle op combining two registers.
func (b *Builder) ALU(a, c Reg) Reg {
	dst := b.Temp()
	op := b.slot()
	op.Kind, op.Dst, op.Src1, op.Src2 = ALU, dst, a, c
	b.filled()
	return dst
}

// ALUN appends n dependent single-cycle ops seeded by src.
func (b *Builder) ALUN(n int, src Reg) Reg {
	r := src
	for i := 0; i < n; i++ {
		r = b.ALU(r, 0)
	}
	return r
}

// Mul appends a multi-cycle integer op.
func (b *Builder) Mul(a, c Reg) Reg {
	dst := b.Temp()
	op := b.slot()
	op.Kind, op.Dst, op.Src1, op.Src2 = MulALU, dst, a, c
	b.filled()
	return dst
}

// Branch appends a conditional branch depending on cond.
func (b *Builder) Branch(cond Reg, mispredict bool) {
	op := b.slot()
	op.Kind, op.Src1, op.Mispredict = Branch, cond, mispredict
	b.filled()
}

// QueryB appends a blocking QEI query and returns the result register.
func (b *Builder) QueryB(q QueryDesc) Reg {
	dst := b.Temp()
	qd := q
	op := b.slot()
	op.Kind, op.Dst, op.Query = QueryB, dst, &qd
	b.filled()
	return dst
}

// QueryNB appends a non-blocking QEI query.
func (b *Builder) QueryNB(q QueryDesc) {
	qd := q
	op := b.slot()
	op.Kind, op.Query = QueryNB, &qd
	b.filled()
}

// Nop appends n frontend-only micro-ops (models surrounding scalar work
// with no memory behaviour).
func (b *Builder) Nop(n int) {
	for i := 0; i < n; i++ {
		b.slot() // a zeroed op is a Nop
		b.filled()
	}
}

// Append concatenates a prebuilt trace, flushing each time a streaming
// builder's buffer fills.
func (b *Builder) Append(t Trace) {
	for b.sink != nil && len(b.ops)+len(t) >= streamChunk {
		n := streamChunk - len(b.ops)
		b.ops = append(b.ops, t[:n]...)
		t = t[n:]
		b.Flush()
	}
	b.ops = append(b.ops, t...)
}

// Take returns the accumulated trace and resets the builder.
func (b *Builder) Take() Trace {
	t := b.ops
	b.ops = nil
	return t
}

// Ops returns the ops accumulated since the last Reset (on a streaming
// builder, since the last flush) without giving up the backing array:
// the caller may read them until the builder's next emit or Reset,
// after which the storage is reused. Take hands the storage over
// instead.
func (b *Builder) Ops() Trace { return b.ops }

// Reset empties the builder for reuse, keeping the trace's backing
// array and restarting register numbering exactly as a fresh builder
// would (NewBuilder starts at register 1, and register numbering feeds
// the core's dependence tracking — so a Reset builder emits
// byte-identical traces to a new one). Ops not yet flushed to a sink
// are dropped, and the sink stays attached. Any Trace previously
// obtained from Ops is invalidated.
func (b *Builder) Reset() {
	b.ops = b.ops[:0]
	b.nextReg = 1
}

// Len reports the number of ops buffered: accumulated since the last
// Reset, or on a streaming builder not yet flushed.
func (b *Builder) Len() int { return len(b.ops) }

// Skeleton is a memoized builder prefix: the ops emitted so far plus the
// register-allocation state they leave behind. Replaying a skeleton into
// a freshly Reset builder is byte-identical to re-emitting the same
// calls, which is what makes per-structure trace-prefix caching safe
// under the determinism contract.
type Skeleton struct {
	Ops     Trace
	NextReg Reg
}

// Snapshot captures the builder's buffered ops as a Skeleton. The ops
// are copied, so the skeleton stays valid across Reset. Only an
// accumulating builder holds a whole prefix to capture.
func (b *Builder) Snapshot() Skeleton {
	return Skeleton{Ops: append(Trace(nil), b.ops...), NextReg: b.nextReg}
}

// AppendSkeleton replays a memoized prefix: the ops are appended (and
// flushed like Append's) and the register allocator is advanced to the
// state it had when the skeleton was captured.
func (b *Builder) AppendSkeleton(s Skeleton) {
	b.Append(s.Ops)
	b.nextReg = s.NextReg
}
