package qei

import (
	"errors"
	"fmt"
	"slices"

	"qei/internal/baseline"
	"qei/internal/cpu"
)

// QuerySoftware executes one query on the software baseline walker,
// timed on a simulated core that shares the machine's memory system —
// the reference path the accelerator is compared against, and the
// "baseline" serving backend's execution engine. The issue clock
// advances by the software execution's cycle count. Walker errors
// (corrupt structure bytes) are returned as errors. The header's type
// code selects the walker, as it selects the CFA program; a custom
// firmware type has no software walker and returns ErrUnknownKind.
func (s *System) QuerySoftware(t Table, key []byte) (Result, error) {
	// The software walker reads the structure too: pin the epoch across
	// the walk so writers cannot reclaim nodes under it.
	if pinned, ok := s.pinQuery(); ok {
		defer s.gc.Unpin(pinned)
	}
	br, err := s.sw.Query(s.m.AS, t.header, key)
	if errors.Is(err, baseline.ErrNoWalker) {
		return Result{}, fmt.Errorf("qei: %w: %s has no software walker", ErrUnknownKind, t.Name())
	}
	if err != nil {
		return Result{}, err
	}
	// The walker's Matches are its own storage, reused by its next walk.
	res := Result{Found: br.Found, Value: br.Value, Matches: slices.Clone(br.Matches)}

	// Time the software path on a simulated core sharing the machine's
	// memory system — architecturally ordinary code. The core restarts
	// at the issue clock, so the walk's cache and TLB accesses carry the
	// cycles they happen at.
	if s.swCore == nil {
		s.swCore = cpu.New(cpu.DefaultConfig(), s.m.CoreMemPort(0), nil)
	}
	s.swCore.Restart(s.now)
	done := s.swCore.Run(br.Trace)
	if err := s.swCore.Err(); err != nil {
		return Result{}, err
	}
	res.Latency = done - s.now
	s.now = done
	return res, nil
}
