package cfa

import (
	"errors"
	"testing"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// probeFW is a configurable custom program for exercising the deep
// validation pass. The default behavior (zero fields) terminates
// immediately: one ALU op, then DONE, under custom type code 77.
type probeFW struct {
	states   int
	typeCode uint8
	behavior func(q *Query, state StateID) Request
}

func (p probeFW) TypeCode() uint8 {
	if p.typeCode != 0 {
		return p.typeCode
	}
	return 77
}
func (p probeFW) Name() string { return "test-probe" }
func (p probeFW) NumStates() int {
	if p.states != 0 {
		return p.states
	}
	return 1
}
func (p probeFW) Step(q *Query, state StateID) Request {
	if p.behavior != nil {
		return p.behavior(q, state)
	}
	return Request{Ops: []Op{ALU(8)}, Next: StateDone}
}

func TestValidateProgramDeepAcceptsMinimalCustom(t *testing.T) {
	if err := ValidateProgramDeep(probeFW{}); err != nil {
		t.Fatalf("minimal terminating program rejected: %v", err)
	}
}

func TestValidateProgramDeepAcceptsBuiltins(t *testing.T) {
	for _, p := range []Program{
		LinkedListProgram{}, HashTableProgram{}, CuckooProgram{},
		SkipListProgram{}, BSTProgram{}, TrieProgram{}, BTreeProgram{},
	} {
		if err := ValidateProgramDeep(p); err != nil {
			t.Fatalf("builtin %s rejected: %v", p.Name(), err)
		}
	}
}

func TestValidateProgramDeepRejectsPathological(t *testing.T) {
	giantOp := func(q *Query, s StateID) Request {
		return Request{Ops: []Op{MemRead(q.Header.Root, 1<<30)}, Next: StateDone}
	}
	panics := func(q *Query, s StateID) Request {
		panic("firmware bug")
	}
	cases := []struct {
		name string
		prog Program
	}{
		{"too-many-states", probeFW{states: 300}},
		{"never-reaches-done", probeFW{behavior: func(q *Query, s StateID) Request {
			return Request{Next: 1} // spins between declared states forever
		}}},
		{"exception-only", probeFW{behavior: func(q *Query, s StateID) Request {
			return Fail(errors.New("no done path"))
		}}},
		{"giant-op-bytes", probeFW{behavior: giantOp}},
		{"panics", probeFW{behavior: panics}},
		// A program reporting a built-in type code is explored over that
		// structure's miniature, under the same walk guards.
		{"giant-op-bytes-builtin-type", probeFW{typeCode: dstruct.TypeBST, behavior: giantOp}},
		{"panics-builtin-type", probeFW{typeCode: dstruct.TypeBST, behavior: panics}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateProgramDeep(tc.prog)
			if err == nil {
				t.Fatal("pathological program accepted")
			}
			if !errors.Is(err, ErrInvalidProgram) {
				t.Fatalf("rejection %v does not wrap ErrInvalidProgram", err)
			}
		})
	}
}

func TestRegisterCollisionWrapsErrInvalidProgram(t *testing.T) {
	r := DefaultRegistry()
	err := r.Register(LinkedListProgram{})
	if err == nil {
		t.Fatal("duplicate type code accepted")
	}
	if !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("collision error %v does not wrap ErrInvalidProgram", err)
	}
}

// tableFW is firmware decoded from fuzz bytes: byte 0 is the type code,
// byte 1 the declared state count, and each following 5-byte record
// drives one state — next state, op kind (mem/cmp/alu/hash/none),
// address offset in lines from the header's Root, byte count, and flags
// (bit 0 panics, bit 1 issues the op in parallel, bit 2 reports a hit on
// DONE). A byte count of 0xFF asks for a 1 GiB op. State s runs record
// s mod the record count; with no records the program finishes at once.
type tableFW struct {
	typeCode uint8
	states   int
	recs     [][5]byte
}

func decodeTableFW(data []byte) tableFW {
	var p tableFW
	if len(data) > 0 {
		p.typeCode = data[0]
	}
	if len(data) > 1 {
		p.states = int(data[1])
	}
	for rest := data[min(len(data), 2):]; len(rest) >= 5 && len(p.recs) < 32; rest = rest[5:] {
		p.recs = append(p.recs, [5]byte(rest[:5]))
	}
	return p
}

func (p tableFW) TypeCode() uint8 { return p.typeCode }
func (p tableFW) Name() string    { return "fuzz-table" }
func (p tableFW) NumStates() int  { return p.states }
func (p tableFW) Step(q *Query, s StateID) Request {
	if len(p.recs) == 0 {
		return q.Finish(false, 0)
	}
	r := p.recs[int(s)%len(p.recs)]
	next, kind, off, size, flags := StateID(r[0]), r[1]%5, r[2], uint64(r[3]), r[4]
	if flags&1 != 0 {
		panic("fuzz firmware panicked")
	}
	if size == 0xFF {
		size = 1 << 30
	}
	addr := q.Header.Root + mem.VAddr(off)*mem.LineSize
	var ops []Op
	switch kind {
	case 0:
		ops = append(ops, MemRead(addr, size))
	case 1:
		ops = append(ops, Compare(addr, size))
	case 2:
		ops = append(ops, ALU(size))
	case 3:
		ops = append(ops, HashOp(size))
	}
	if next == StateException {
		return Fail(errors.New("fuzz firmware exception"))
	}
	return Request{Ops: ops, Parallel: flags&2 != 0, Next: next, Found: flags&4 != 0}
}

// FuzzValidateProgramDeep checks the admission contract on arbitrary
// table-driven firmware: ValidateProgramDeep never panics, and every
// rejection wraps ErrInvalidProgram. Its seed corpus (testdata/fuzz)
// includes a built-in type code with a panicking step and with a 1 GiB
// op.
func FuzzValidateProgramDeep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		err := ValidateProgramDeep(decodeTableFW(data))
		if err != nil && !errors.Is(err, ErrInvalidProgram) {
			t.Fatalf("rejection %v does not wrap ErrInvalidProgram", err)
		}
	})
}
