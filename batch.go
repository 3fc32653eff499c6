package qei

import (
	"fmt"

	"qei/internal/isa"
	"qei/internal/mem"
)

// QueryBatch looks up every key in t as one batch. Results are returned
// in key order; per-query faults are reported in Result.Err, and the
// issue clock ends at the last completion.
//
// The batch is submitted as one batched instruction to the level-wise
// engine: the accelerator walks every query in lock-step rounds,
// translating each distinct page once per batch, streaming each round's
// deduplicated node lines in ascending address order, and coalescing
// duplicate keys onto one probe. It walks every kind the firmware
// registry knows, trie scans and custom firmware included, and batches
// of any size. Results are byte-identical to the per-query path: any
// query that deviates from the clean walk (a fault, the watchdog, a
// corrupt pointer) is re-executed on the per-query path,
// retry-from-root included.
//
// The keys and result lines live in guest memory the System reuses
// from batch to batch. The batch occupies one QST entry however many
// keys it holds, so len(keys) may exceed QSTCapacity by any factor and
// QueryBatch never returns ErrQSTFull. Software that wants the paper's
// windowed QUERY_NB shape (List 2) runs its own loop over QueryAsync
// and Wait.
func (s *System) QueryBatch(t Table, keys [][]byte) ([]Result, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	// The whole batch is one in-flight window: pin the epoch at
	// admission, release once every result is architectural.
	if pinned, ok := s.pinQuery(); ok {
		defer s.gc.Unpin(pinned)
	}

	// The descriptors live in storage the System reuses from batch to
	// batch; the accelerator reads them only inside ExecuteBatch.
	if cap(s.batchDescs) < len(keys) {
		s.batchDescs = make([]isa.QueryDesc, len(keys))
		s.batchDescPtrs = make([]*isa.QueryDesc, len(keys))
	}
	descs, ptrs := s.batchDescs[:len(keys)], s.batchDescPtrs[:len(keys)]
	issue := s.now
	keyAddr := s.batchKeys.stage(s.m.AS, t, keys...)
	for i, k := range keys {
		descs[i] = s.queryDesc(t, uint64(keyAddr), len(k), s.takeLine(0))
		ptrs[i] = &descs[i]
		keyAddr += mem.VAddr(keySpan(t, k))
	}
	// The result lines go back before QueryBatch returns, last key's
	// first, so the next batch takes them in the same key order.
	defer func() {
		for i := len(descs) - 1; i >= 0; i-- {
			s.freeLine(descs[i].ResultAddr)
		}
	}()

	done, deferred, err := s.accel.ExecuteBatch(ptrs, issue)
	if err != nil {
		return nil, fmt.Errorf("qei: batch: %w", err)
	}
	if done > s.now {
		s.now = done
	}

	// deferred is in ascending order: every other position resolved in
	// the batch.
	results := make([]Result, len(keys))
	for i, d := 0, 0; i < len(keys); i++ {
		if d < len(deferred) && deferred[d] == i {
			d++
			continue
		}
		tag := descs[i].Tag
		r, ok := s.accel.Result(tag)
		if !ok {
			return nil, fmt.Errorf("qei: batch result for key %d missing", i)
		}
		s.accel.Forget(tag)
		results[i] = result(r, issue)
	}
	// Deferred queries re-run on the unchanged per-query path, key order
	// preserved.
	for _, i := range deferred {
		r, err := s.QueryAt(t, uint64(descs[i].KeyAddr), len(keys[i]))
		if err != nil {
			return nil, fmt.Errorf("qei: batch query %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}
