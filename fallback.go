package qei

import (
	"errors"
	"fmt"

	"qei/internal/cpu"
	"qei/internal/mem"
	"qei/internal/trace"
)

// FallbackPolicy configures graceful degradation for blocking queries
// (WithFallback): after AfterFaults faulting accelerator executions of
// the same query, the System transparently re-executes it on the
// software baseline walker, timed on a simulated core — the Tailwind
// shape: the accelerator is an optimization, never a single point of
// failure. Fallback results carry FellBack=true and are counted in the
// qei/fallback_total metric.
type FallbackPolicy struct {
	// AfterFaults is the number of faulting accelerator executions
	// tolerated (each may already include the engine's internal
	// retry-from-root attempts) before the software path takes over.
	// Values below 1 are treated as 1: fall back on the first fault.
	AfterFaults int
}

func (p FallbackPolicy) afterFaults() int {
	if p.AfterFaults < 1 {
		return 1
	}
	return p.AfterFaults
}

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

// softwareFallback re-executes a faulted query on the software baseline
// walker, advancing the issue clock by the software execution's cycle
// count. accelRes is the accelerator's final faulting result; it is
// returned unchanged when the software path cannot serve the query
// (custom firmware has no baseline walker, or the key is unreadable).
func (s *System) softwareFallback(t Table, keyAddr uint64, keyLen int, accelRes Result) (Result, error) {
	key := make([]byte, keyLen)
	if err := s.m.AS.Read(mem.VAddr(keyAddr), key); err != nil {
		return accelRes, nil
	}

	start := s.now
	res, err := s.QuerySoftware(t, key)
	if errors.Is(err, ErrUnknownKind) {
		// Custom firmware has no software baseline walker; the
		// accelerator fault is the final architectural outcome.
		return accelRes, nil
	}
	s.fallbacks++
	if err != nil {
		// The software walker hit the same corruption: surface it as
		// the architectural outcome of the fallback.
		return Result{FellBack: true, Err: fmt.Errorf("qei: software fallback: %w", err)}, nil
	}
	res.FellBack = true
	s.tracer.Span("qei", "fallback", start, s.now, trace.PidQST(0), 0,
		map[string]string{"table": t.Name()})
	return res, nil
}
