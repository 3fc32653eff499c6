package cfa

import "qei/internal/mem"

// ExecResult is the outcome of a functional CFA execution.
type ExecResult struct {
	Found bool
	Value uint64
	// Matches holds all trie-scan match values.
	Matches []uint64
	// Transitions counts state-handler invocations (CFA steps).
	Transitions int
	// Ops tallies issued micro-ops by kind.
	Ops map[OpKind]int
	// MemLines is the total cachelines fetched by OpMemRead ops — the
	// accelerator-side analogue of the baseline's load count.
	MemLines int
}

// Run executes a query functionally against the registry: it stages the
// header and key the way the engine does, then walks the CFA to a
// terminal state, tallying micro-ops without timing. The timed engine in
// package qei layers scheduling and latency on the same guarded walk.
func Run(reg *Registry, as *mem.AddressSpace, headerAddr, keyAddr mem.VAddr, keyLen int) (ExecResult, error) {
	res := ExecResult{Ops: make(map[OpKind]int)}
	var q Query
	prog, err := Stage(reg, as, headerAddr, keyAddr, keyLen, &q)
	if err != nil {
		return res, err
	}
	// The engine's metadata fetch is itself one line read.
	res.Ops[OpMemRead]++
	res.MemLines++

	w := NewWalk(prog, &q, false)
	for {
		req, err := w.Next()
		res.Transitions++
		for _, op := range req.Ops {
			res.Ops[op.Kind]++
			if op.Kind == OpMemRead {
				res.MemLines += mem.LinesTouched(op.Addr, op.Bytes)
			}
		}
		if err != nil {
			return res, err
		}
		if req.Next == StateDone {
			res.Found = req.Found
			res.Value = req.Value
			res.Matches = q.Matches
			return res, nil
		}
	}
}
