package qei

import (
	"fmt"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Firmware extension API. The CEE is microcoded: new data-structure
// types install as firmware without hardware changes (Sec. IV-B). This
// file re-exports the CFA vocabulary so applications can define their
// own query automata against the public API and register them on a
// System — see examples/lpm_router for a complete longest-prefix-match
// routing table added this way.

// Firmware is a CFA program: the microcode for one data-structure type.
// Implementations provide a type code (the header's type byte), a state
// count (≤ 254), and a Step function mapping (query, state) to the
// micro-operations of the transition and the next state.
type Firmware = cfa.Program

// FirmwareQuery is the per-query context handed to Step: the parsed
// header, the staged key, simulated-memory access for functional reads,
// and scratch cursor fields (Node, AltNode, Level, Pos) that live in the
// QST entry's intermediate-data field.
type FirmwareQuery = cfa.Query

// FirmwareRequest is a transition's outcome.
type FirmwareRequest = cfa.Request

// FirmwareState identifies a CFA state (one byte in the QST).
type FirmwareState = cfa.StateID

// Addr is a virtual address in the simulated address space — the type of
// FirmwareQuery's Node/AltNode cursor fields and of every pointer stored
// inside simulated structures.
type Addr = mem.VAddr

// FirmwareOp is one micro-operation of the DPU vocabulary.
type FirmwareOp = cfa.Op

// Reserved firmware states.
const (
	// FirmwareStart is the entry state.
	FirmwareStart = cfa.StateStart
	// FirmwareDone and FirmwareException are terminal.
	FirmwareDone      = cfa.StateDone
	FirmwareException = cfa.StateException
)

// FirmwareMemRead builds a memory micro-op covering [addr, addr+bytes).
func FirmwareMemRead(addr, bytes uint64) FirmwareOp {
	return cfa.MemRead(mem.VAddr(addr), bytes)
}

// FirmwareCompare builds a comparison micro-op over bytes at addr.
func FirmwareCompare(addr, bytes uint64) FirmwareOp {
	return cfa.Compare(mem.VAddr(addr), bytes)
}

// FirmwareALU builds an arithmetic micro-op of the given width.
func FirmwareALU(bytes uint64) FirmwareOp { return cfa.ALU(bytes) }

// FirmwareHash builds a hashing-unit micro-op over bytes of key.
func FirmwareHash(bytes uint64) FirmwareOp { return cfa.HashOp(bytes) }

// FirmwareContinue builds q's non-terminal transition outcome. The ops
// are copied into storage q owns, so the outcome's ops stay valid until
// q's next transition and a step allocates nothing for them.
func FirmwareContinue(q *FirmwareQuery, next FirmwareState, parallel bool, ops ...FirmwareOp) FirmwareRequest {
	return q.Continue(next, parallel, ops...)
}

// FirmwareFinish builds q's successful terminal outcome; its ops live
// in q's storage, as FirmwareContinue's do.
func FirmwareFinish(q *FirmwareQuery, found bool, value uint64, ops ...FirmwareOp) FirmwareRequest {
	return q.Finish(found, value, ops...)
}

// FirmwareFail builds an exception outcome (Sec. IV-D).
func FirmwareFail(err error) FirmwareRequest { return cfa.Fail(err) }

// RegisterFirmware installs a new CFA on this system's CEE after the
// full admission pass: the hardware constraints (≤ 254 states, non-zero
// type code), a collision check against everything already installed —
// including the built-in programs, which firmware must not silently
// shadow — and the behavioral validation probe (the program must drive
// a minimal structure to FirmwareDone within hardware bounds). Every
// rejection wraps ErrFirmwareInvalid. Queries against headers carrying
// the firmware's type code execute it.
func (s *System) RegisterFirmware(p Firmware) error {
	if existing, ok := s.reg.Lookup(p.TypeCode()); ok {
		return fmt.Errorf("%w: type code %d already serves %q", ErrFirmwareInvalid,
			p.TypeCode(), existing.Name())
	}
	if err := cfa.ValidateProgramDeep(p); err != nil {
		return err
	}
	return s.reg.Register(p)
}

// WriteTableHeader lays out a Fig. 4 metadata header for a
// custom-firmware structure whose body the application built with Write,
// and returns a KindCustom Table handle for Query. label names the
// structure for diagnostics (Table.Name reports it); typeCode selects
// the firmware; root points at the structure; keyLen is the stored key
// length; aux and aux2 are firmware-specific parameters.
func (s *System) WriteTableHeader(label string, typeCode uint8, root uint64, keyLen int, size, aux, aux2 uint64) (Table, error) {
	if typeCode == 0 {
		return Table{}, fmt.Errorf("qei: type code 0 is reserved")
	}
	if keyLen <= 0 || keyLen > 0xffff {
		return Table{}, fmt.Errorf("qei: key length %d out of range", keyLen)
	}
	hdr := dstruct.WriteHeader(s.m.AS, dstruct.Header{
		Root:   mem.VAddr(root),
		Type:   typeCode,
		KeyLen: uint16(keyLen),
		Size:   size,
		Aux:    aux,
		Aux2:   aux2,
	})
	return Table{header: hdr, Kind: KindCustom, Label: label, KeyLen: keyLen}, nil
}

// ValidateFirmware runs the same admission pass RegisterFirmware
// applies (minus the registry collision check, which needs a System):
// static hardware constraints plus the behavioral probe proving the
// program reaches FirmwareDone on a minimal structure within bounded
// transitions and micro-op sizes. Rejections wrap ErrFirmwareInvalid.
func ValidateFirmware(p Firmware) error { return cfa.ValidateProgramDeep(p) }
