// Package cfa implements the configurable finite automaton (CFA) model at
// the heart of QEI (Sec. III).
//
// A CFA has fixed transition structure but configurable parameters: one
// CFA ("program", in firmware terms) exists per data-structure type, and
// every in-flight query executes its type's CFA with its own parameters
// (key, header metadata, cursor state). The paper's abstraction reduces
// every query to five steps built from three micro-operation kinds —
// memory access (cacheline granularity), arithmetic, and comparison —
// and that is exactly the vocabulary a state handler here may emit.
//
// The CFA Execution Engine (package qei) owns all timing: a state handler
// only decides *what* micro-operations the transition needs and *which*
// state comes next. Handlers perform functional reads of simulated memory
// to steer the walk, mirroring how the hardware's intermediate-data field
// staged the fetched cacheline before the next transition (Sec. IV-B).
//
// New data structures are supported by registering a new Program in a
// Registry — the software analogue of the paper's firmware update path
// for the microcoded CEE (Sec. IV-B). Registry.Validate enforces the
// hardware limits: at most 256 states, type codes unique, reserved states
// respected.
package cfa

import (
	"fmt"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// StateID names a CFA state. The QST stores it in one byte, capping each
// CFA at 256 states (Sec. IV-B).
type StateID uint8

// Reserved states shared by all CFAs.
const (
	// StateStart is the entry state: the engine has just accepted the
	// query and fetched nothing.
	StateStart StateID = 0
	// StateDone and StateException are terminal.
	StateDone      StateID = 254
	StateException StateID = 255
)

// OpKind enumerates the micro-operation vocabulary of the DPU
// (Sec. IV-B): memory access, arithmetic (plain and hash), comparison.
type OpKind int

const (
	// OpMemRead fetches Bytes bytes starting at Addr (charged per
	// cacheline; QEI reads at 64 B granularity).
	OpMemRead OpKind = iota
	// OpCompare compares Bytes bytes of in-memory data at Addr against
	// the staged key (64 bits per comparator cycle). The integration
	// scheme decides whether it runs on a local comparator or remotely in
	// the CHA owning Addr.
	OpCompare
	// OpALU is Bytes/8 cycles of plain arithmetic on intermediate data.
	OpALU
	// OpHash runs the hashing unit over Bytes bytes of staged key.
	OpHash
)

func (k OpKind) String() string {
	switch k {
	case OpMemRead:
		return "mem"
	case OpCompare:
		return "cmp"
	case OpALU:
		return "alu"
	case OpHash:
		return "hash"
	default:
		return "op?"
	}
}

// Op is one micro-operation request.
type Op struct {
	Kind  OpKind
	Addr  mem.VAddr
	Bytes uint64
}

// MemRead builds a memory micro-op covering [addr, addr+bytes).
func MemRead(addr mem.VAddr, bytes uint64) Op {
	return Op{Kind: OpMemRead, Addr: addr, Bytes: bytes}
}

// Compare builds a comparison micro-op over bytes at addr.
func Compare(addr mem.VAddr, bytes uint64) Op {
	return Op{Kind: OpCompare, Addr: addr, Bytes: bytes}
}

// ALU builds an arithmetic micro-op of the given width.
func ALU(bytes uint64) Op { return Op{Kind: OpALU, Bytes: bytes} }

// HashOp builds a hashing micro-op over bytes of key.
func HashOp(bytes uint64) Op { return Op{Kind: OpHash, Bytes: bytes} }

// Request is what a state transition asks of the engine: perform these
// micro-ops (in parallel if Parallel, else back-to-back), then re-invoke
// the CFA in state Next. Terminal requests set Done/Fault instead.
type Request struct {
	Ops      []Op
	Parallel bool
	Next     StateID

	// Terminal outcome (when Next == StateDone or StateException).
	Found bool
	Value uint64
	Fault error
}

// Fail builds an exception terminal request (Sec. IV-D).
func Fail(err error) Request {
	return Request{Next: StateException, Fault: err}
}

// Query is the per-query execution context: the QST entry's architectural
// content (key address, staged key, parsed header) plus the walker cursor
// kept in the entry's 64 B intermediate-data field.
type Query struct {
	AS         *mem.AddressSpace
	HeaderAddr mem.VAddr
	Header     dstruct.Header
	KeyAddr    mem.VAddr
	Key        []byte // staged by the engine after the key fetch

	// Cursor fields — the contents of the QST "data" scratch field.
	Node    mem.VAddr // current node / bucket / automaton state
	AltNode mem.VAddr // second candidate (cuckoo), fail target (trie)
	Level   int       // skip-list level / bucket slot index
	Pos     int       // input position (trie scan)

	// Matches accumulates trie-scan outputs (result streaming). Staging
	// starts it empty with no storage, so a result that keeps it never
	// shares it with a later query.
	Matches []uint64

	// ops backs the Ops of the request the current transition returns
	// (Continue, Finish), and stored is the compare buffer a stored key
	// is read into. Both are storage the query owns and reuses from
	// transition to transition, as the hardware reuses the QST entry's
	// data field; staging keeps them.
	ops    []Op
	stored []byte
}

// Continue builds a non-terminal request. The ops are copied into
// storage the query owns, so the request's Ops stay valid until the
// query's next transition.
func (q *Query) Continue(next StateID, parallel bool, ops ...Op) Request {
	q.ops = append(q.ops[:0], ops...)
	return Request{Ops: q.ops, Parallel: parallel, Next: next}
}

// Finish builds a successful terminal request; its ops live in the
// query's storage, like Continue's.
func (q *Query) Finish(found bool, value uint64, ops ...Op) Request {
	q.ops = append(q.ops[:0], ops...)
	return Request{Ops: q.ops, Next: StateDone, Found: found, Value: value}
}

// compareBuf returns the query's compare buffer, n bytes long. Its
// contents stay valid until the next compareBuf or readStored.
func (q *Query) compareBuf(n int) []byte {
	if cap(q.stored) < n {
		q.stored = make([]byte, n)
	}
	q.stored = q.stored[:n]
	return q.stored
}

// readStored reads n bytes of a stored key at addr into the query's
// compare buffer.
func (q *Query) readStored(addr mem.VAddr, n int) ([]byte, error) {
	buf := q.compareBuf(n)
	return buf, q.AS.Read(addr, buf)
}

// Program is the firmware for one data-structure type: a named set of
// state handlers.
type Program interface {
	// TypeCode is the header type byte this CFA serves.
	TypeCode() uint8
	// Name is a human-readable identifier for diagnostics.
	Name() string
	// NumStates reports how many states the CFA defines (≤ 256).
	NumStates() int
	// Step executes the transition out of state for q. The engine calls
	// Step(q, StateStart) after staging the header and key.
	Step(q *Query, state StateID) Request
}

// Registry maps header type codes to CFA programs — the CEE's microcode
// store.
type Registry struct {
	programs map[uint8]Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{programs: make(map[uint8]Program)}
}

// DefaultRegistry returns a registry preloaded with the seven built-in
// CFAs (linked list, chained hash, cuckoo, skip list, BST, trie,
// B+-tree).
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, p := range []Program{
		LinkedListProgram{}, HashTableProgram{}, CuckooProgram{},
		SkipListProgram{}, BSTProgram{}, TrieProgram{}, BTreeProgram{},
	} {
		if err := r.Register(p); err != nil {
			panic(err)
		}
	}
	return r
}

// Register validates and installs a program (firmware update, Sec. IV-B).
func (r *Registry) Register(p Program) error {
	if err := ValidateProgram(p); err != nil {
		return err
	}
	if _, dup := r.programs[p.TypeCode()]; dup {
		return fmt.Errorf("%w: type code %d already registered", ErrInvalidProgram, p.TypeCode())
	}
	r.programs[p.TypeCode()] = p
	return nil
}

// Lookup finds the program for a type code.
func (r *Registry) Lookup(typeCode uint8) (Program, bool) {
	p, ok := r.programs[typeCode]
	return p, ok
}

// Len reports how many programs are installed.
func (r *Registry) Len() int { return len(r.programs) }

// ValidateProgram enforces the hardware constraints on firmware.
func ValidateProgram(p Program) error {
	if p.TypeCode() == dstruct.TypeInvalid {
		return fmt.Errorf("%w: program %q uses reserved type code 0", ErrInvalidProgram, p.Name())
	}
	if p.NumStates() < 1 || p.NumStates() > 254 {
		return fmt.Errorf("%w: program %q declares %d states; hardware supports 1..254 (+2 reserved)",
			ErrInvalidProgram, p.Name(), p.NumStates())
	}
	return nil
}
