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

import (
	"fmt"
	"math"

	"qei/internal/mem"
)

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
	// Filler is a block of N ops of a request's surrounding work,
	// described instead of listed (Builder.Filler emits it). Op i of
	// the block, for i in [0, N), is:
	//   - a Load into a fresh register, if Size > 0 and i%Size == 0;
	//   - else an ALU op on the chain register into a fresh one, if
	//     i%3 == 0;
	//   - else a well-predicted Branch on the chain, if i%7 == 6;
	//   - else an ALU op with no sources into a fresh register.
	// Loads and chain ops make their result the chain, which starts as
	// Src1. Fresh registers are numbered from Dst on, wrapping as
	// Builder.Temp does. The j-th load reads 8 bytes at Addr + (Off +
	// 8·Size·j) mod (Lines·mem.LineSize); a block with no Lines has no
	// loads.
	Filler
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
	case Filler:
		return "filler"
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

// Op is one dynamic micro-operation. A Filler op gives some fields a
// meaning of their own (see Filler). N, Lines and Off fill what would
// otherwise be padding, so every op stays 32 bytes.
type Op struct {
	Kind Kind
	// Dst is the destination register (0 = none).
	Dst Reg
	// Src1, Src2 are source registers (0 = none).
	Src1, Src2 Reg
	// N is a Filler block's op count.
	N uint32
	// Addr is the effective virtual address for Load/Store.
	Addr mem.VAddr
	// Size is the access size in bytes for Load/Store (for stats; timing
	// is per line), and a Filler block's load period.
	Size uint8
	// Mispredict marks a branch the predictor missed.
	Mispredict bool
	// Lines is the size of a Filler block's scratch area in cachelines.
	Lines uint16
	// Off is the offset in bytes of a Filler block's first load in its
	// scratch area.
	Off uint32
	// Query carries QUERY operands; nil otherwise.
	Query *QueryDesc
}

// Trace is a dynamic instruction sequence.
type Trace []Op

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

// Builder accumulates a trace with a tiny register-allocation convention,
// making the query-routine generators readable. It keeps every op until
// Take or Reset; the caller reads them with Ops and hands them to the
// core (cpu.Core.Run).
type Builder struct {
	ops     Trace
	nextReg Reg
	// descs holds the QUERY ops' descriptors in blocks of descBlock, so
	// an op's pointer stays valid as more are added, and nDescs counts
	// those in use. Reset reuses them from the first; Take hands the
	// blocks in use over with the trace.
	descs  [][]QueryDesc
	nDescs int
}

// descBlock is the number of query descriptors in one of a builder's
// blocks.
const descBlock = 64

// desc stores q in the builder's descriptor blocks and returns it.
func (b *Builder) desc(q QueryDesc) *QueryDesc {
	i := b.nDescs / descBlock
	if i == len(b.descs) {
		b.descs = append(b.descs, make([]QueryDesc, descBlock))
	}
	d := &b.descs[i][b.nDescs%descBlock]
	b.nDescs++
	*d = q
	return d
}

// NewBuilder returns an empty trace builder.
func NewBuilder() *Builder {
	return &Builder{nextReg: 1}
}

// slot appends a zeroed op and returns it for the emitter to fill in
// place: building the op on the stack and copying it into the trace
// costs a store-forwarding stall per op.
func (b *Builder) slot() *Op {
	b.ops = append(b.ops, Op{})
	return &b.ops[len(b.ops)-1]
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
}

// ALU appends a single-cycle op combining two registers.
func (b *Builder) ALU(a, c Reg) Reg {
	dst := b.Temp()
	op := b.slot()
	op.Kind, op.Dst, op.Src1, op.Src2 = ALU, dst, a, c
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
	return dst
}

// Branch appends a conditional branch depending on cond.
func (b *Builder) Branch(cond Reg, mispredict bool) {
	op := b.slot()
	op.Kind, op.Src1, op.Mispredict = Branch, cond, mispredict
}

// QueryB appends a blocking QEI query and returns the result register.
func (b *Builder) QueryB(q QueryDesc) Reg {
	dst := b.Temp()
	op := b.slot()
	op.Kind, op.Dst, op.Query = QueryB, dst, b.desc(q)
	return dst
}

// QueryNB appends a non-blocking QEI query.
func (b *Builder) QueryNB(q QueryDesc) {
	op := b.slot()
	op.Kind, op.Query = QueryNB, b.desc(q)
}

// Nop appends n frontend-only micro-ops (models surrounding scalar work
// with no memory behaviour).
func (b *Builder) Nop(n int) {
	for i := 0; i < n; i++ {
		b.slot() // a zeroed op is a Nop
	}
}

// Filler appends a block of n ops of request work (see the Filler kind)
// and returns the chain register it leaves: its last load or chain op,
// or seed when n is 0, which appends nothing. Every load'th op loads 8
// bytes from the scratch area of lines cachelines at scratch, the first
// at byte off and each next one 8·every bytes on, wrapping at the end;
// every == 0, a zero scratch or no lines leave out the loads. Register
// numbering advances as if each op had been emitted on its own.
func (b *Builder) Filler(n, every int, scratch mem.VAddr, lines int, off uint64, seed Reg) Reg {
	if n <= 0 {
		return seed
	}
	if every <= 0 || scratch == 0 || lines == 0 {
		every, scratch, lines, off = 0, 0, 0, 0
	}
	if n > math.MaxUint32 || every > math.MaxUint8 || lines > math.MaxUint16 || off > 0 && off >= uint64(lines)*mem.LineSize {
		panic(fmt.Sprintf("isa: filler block out of range: %d ops, load period %d, %d lines, offset %d", n, every, lines, off))
	}
	first := b.nextReg
	op := b.slot()
	op.Kind, op.Dst, op.Src1, op.N = Filler, first, seed, uint32(n)
	op.Addr, op.Size, op.Lines, op.Off = scratch, uint8(every), uint16(lines), uint32(off)
	// Every op but a branch takes a fresh register. The chain is the
	// last load or chain op, one of the last three ops; those after it
	// that are not branches took the registers after its.
	temps := n - fillerBranches(n, every)
	b.nextReg = regAfter(first, temps)
	chain := temps - 1
	for i := n - 1; !fillerChains(i, every); i-- {
		if i%7 != 6 {
			chain--
		}
	}
	return regAfter(first, chain)
}

// fillerChains reports whether a Filler block's op i, with load period
// every, loads or extends the chain.
func fillerChains(i, every int) bool {
	return every > 0 && i%every == 0 || i%3 == 0
}

// fillerBranches counts the branches among a Filler block's first m ops
// with load period every. The op kinds repeat every lcm(21, every) ops,
// so it counts one such period and the remainder.
func fillerBranches(m, every int) int {
	p := 21
	if every > 0 {
		p = p / gcd(p, every) * every
	}
	return m/p*branchesBelow(p, every) + branchesBelow(m%p, every)
}

// branchesBelow counts the branches among a Filler block's first m ops
// op by op: the ops at i%7 == 6 that neither load nor extend the chain.
func branchesBelow(m, every int) int {
	n := 0
	for i := 6; i < m; i += 7 {
		if !fillerChains(i, every) {
			n++
		}
	}
	return n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// regAfter is the register Temp returns k calls after it returns first.
func regAfter(first Reg, k int) Reg {
	return Reg((int(first)-1+k)%(NumRegs-1) + 1)
}

// Append concatenates a prebuilt trace.
func (b *Builder) Append(t Trace) {
	b.ops = append(b.ops, t...)
}

// Take returns the accumulated trace and empties the builder, handing
// over the backing array and the query descriptors. Unlike Reset it
// keeps register numbering.
func (b *Builder) Take() Trace {
	t := b.ops
	b.ops = nil
	b.descs = b.descs[(b.nDescs+descBlock-1)/descBlock:]
	b.nDescs = 0
	return t
}

// Ops returns the ops accumulated since the last Reset without giving
// up the backing array: the caller may read them until the builder's
// next emit or Reset, after which the storage is reused. Take hands the
// storage over instead.
func (b *Builder) Ops() Trace { return b.ops }

// Reset empties the builder for reuse, keeping the trace's backing
// array and restarting register numbering exactly as a fresh builder
// would (NewBuilder starts at register 1, and register numbering feeds
// the core's dependence tracking — so a Reset builder emits
// byte-identical traces to a new one). Any Trace previously obtained
// from Ops is invalidated, its query descriptors included.
func (b *Builder) Reset() {
	b.ops = b.ops[:0]
	b.nextReg = 1
	b.nDescs = 0
}

// Len reports the number of ops accumulated since the last Reset.
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

// Snapshot captures the builder's ops as a Skeleton. The ops and their
// query descriptors are copied, so the skeleton stays valid across
// Reset.
func (b *Builder) Snapshot() Skeleton {
	ops := append(Trace(nil), b.ops...)
	for i := range ops {
		if q := ops[i].Query; q != nil {
			cp := *q
			ops[i].Query = &cp
		}
	}
	return Skeleton{Ops: ops, NextReg: b.nextReg}
}

// AppendSkeleton replays a memoized prefix: the ops are appended and
// the register allocator is advanced to the state it had when the
// skeleton was captured.
func (b *Builder) AppendSkeleton(s Skeleton) {
	b.Append(s.Ops)
	b.nextReg = s.NextReg
}
