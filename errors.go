package qei

import (
	"errors"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/hwdesc"
	"qei/internal/qei"
	"qei/internal/serve"
)

// Sentinel errors of the query lifecycle. Callers branch with
// errors.Is; every error carrying per-query context wraps one of these.
var (
	// ErrQSTFull is returned by QueryAsync when every QST entry is
	// occupied: drain a completion with Wait (or use QueryBatch, which
	// handles the bound internally) and reissue.
	ErrQSTFull = qei.ErrQSTFull
	// ErrAborted is returned by Wait and Poll for a query flushed by
	// Interrupt before completing; reissue it (Sec. IV-D).
	ErrAborted = qei.ErrAborted
	// ErrResultPending is returned by Wait and Poll while the completion
	// flag has not been written yet — the List-2 poll loop's "not done"
	// arm.
	ErrResultPending = errors.New("qei: async result not yet written")
	// ErrUnknownHandle is returned by Wait and Poll for a handle this
	// system never issued, or one whose result Wait or Poll already
	// returned (the system forgets a query once it is retired).
	ErrUnknownHandle = errors.New("qei: unknown async handle")
	// ErrQueryTimeout is carried by Result.Err when the per-query cycle
	// budget watchdog (WithQueryCycleBudget) killed a stuck or looping
	// CFA walk. Treat the structure as suspect; a caller wanting an
	// answer anyway runs QuerySoftware, as resilient serving does.
	ErrQueryTimeout = qei.ErrQueryTimeout
	// ErrStructCorrupt is carried by Result.Err when the accelerator
	// found the guest structure inconsistent — a pointer into unmapped
	// memory, a pointer cycle, or bytes the firmware could not interpret
	// (Sec. IV-D surfaces these architecturally rather than wandering).
	ErrStructCorrupt = qei.ErrStructCorrupt
	// ErrUnsupportedOp is returned by BuildMutable for a structure kind
	// without software mutators (hash tables and tries).
	ErrUnsupportedOp = errors.New("qei: operation not supported by this structure kind")
	// ErrTableFull is returned by MutableTable.Insert when a cuckoo
	// insertion keeps failing even after the online rehash doubled the
	// bucket array (pathological key sets); it wraps
	// dstruct.ErrTableFull so internal callers agree.
	ErrTableFull = dstruct.ErrTableFull
	// ErrAdmissionStall is returned (wrapped) by RunServing and
	// ReplayServing when the serving admission controller wedges: a
	// tenant is over its in-flight bound — or the backend reports
	// itself full — while nothing is in flight to drain. That is never
	// a load condition (load waits, or sheds under a resilience
	// deadline); it means the backend's capacity accounting is broken.
	ErrAdmissionStall = serve.ErrAdmissionStall
	// ErrUnknownKind is returned by Build and BuildMutable for a
	// StructKind they have no builder for (KindInvalid, KindCustom,
	// undefined values), by QuerySoftware for a table whose header type
	// code has no software walker (custom firmware), and by
	// ParseStructKind — hence by the serving backends' builders — for an
	// unrecognized kind name.
	ErrUnknownKind = errors.New("qei: no builder for structure kind")
	// ErrFirmwareInvalid is returned by RegisterFirmware and
	// ValidateFirmware for firmware that fails admission: reserved or
	// colliding type codes, state counts outside 1..254, out-of-range
	// micro-ops, or a program the validation probe could not drive to
	// FirmwareDone. It also appears as Result.Err when registered
	// firmware misbehaves at run time (panicking handler, oversized op).
	ErrFirmwareInvalid = cfa.ErrInvalidProgram
	// ErrBadConfig is returned by LoadMachineSpec and the CLIs'
	// -machine flag for a machine description that does not validate:
	// unknown preset, unreadable or malformed JSON, unknown fields, or
	// inconsistent geometry (more cores than mesh stops, a cache size not
	// divisible by its ways, an out-of-range memory stop). The message
	// names the offending field.
	ErrBadConfig = hwdesc.ErrBadConfig
)
