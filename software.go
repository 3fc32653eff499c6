package qei

import (
	"fmt"

	"qei/internal/cpu"
)

// QuerySoftware executes one query on the software baseline walker,
// timed on a simulated core that shares the machine's memory system —
// the reference path the accelerator is compared against, and the
// "baseline" serving backend's execution engine. The issue clock
// advances by the software execution's cycle count. Walker errors
// (corrupt structure bytes) are returned as errors; tables of custom
// firmware kinds have no software walker and return ErrUnknownKind.
func (s *System) QuerySoftware(t Table, key []byte) (Result, error) {
	// The software walker reads the structure too: pin the epoch across
	// the walk so writers cannot reclaim nodes under it.
	if pinned, ok := s.pinQuery(); ok {
		defer s.gc.Unpin(pinned)
	}
	k := t.Kind.info()
	if k == nil || k.walk == nil {
		return Result{}, fmt.Errorf("qei: %w: %s has no software walker", ErrUnknownKind, t.Name())
	}
	res, tr, err := k.walk(s.m.AS, t.header, key)
	if err != nil {
		return Result{}, err
	}

	// Time the software path on a simulated core sharing the machine's
	// memory system — architecturally ordinary code.
	core := cpu.New(cpu.DefaultConfig(), s.m.CoreMemPort(0), nil)
	res.Latency = core.Run(tr)
	if err := core.Err(); err != nil {
		return Result{}, err
	}
	s.now += res.Latency
	return res, nil
}
