package qei

import (
	"errors"
	"fmt"

	"qei/internal/isa"
	"qei/internal/mem"
)

// BatchMode selects how QueryBatch executes a batch.
type BatchMode int

const (
	// BatchAuto picks per structure kind and batch size (PlanBatch).
	BatchAuto BatchMode = iota
	// BatchWindowed runs the batch as independent non-blocking queries,
	// keeping up to a QST window in flight (the original path).
	BatchWindowed
	// BatchLevelWise runs the batch through the level-wise engine: one
	// batched instruction that walks the whole batch level by level,
	// amortizing translations and streaming deduplicated node lines.
	BatchLevelWise
)

func (m BatchMode) String() string {
	switch m {
	case BatchWindowed:
		return "windowed"
	case BatchLevelWise:
		return "level-wise"
	default:
		return "auto"
	}
}

// BatchOption configures a QueryBatch call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	mode BatchMode
}

// WithBatchMode overrides the automatic windowed/level-wise choice.
func WithBatchMode(m BatchMode) BatchOption {
	return func(c *batchConfig) { c.mode = m }
}

// BatchPlan describes how a batch over one structure kind executes.
type BatchPlan struct {
	Kind StructKind
	// Mode is the resolved execution mode (never BatchAuto).
	Mode BatchMode
	// Grouping names the level-wise rounds' shape: tree and skip-list
	// batches group by level, hash batches by bucket phase, list batches
	// by scan chunk; windowed batches have no grouping.
	Grouping string
}

// minLevelWiseBatch is the batch size below which level-wise grouping
// has nothing to amortize and the windowed path wins.
const minLevelWiseBatch = 4

// PlanBatch resolves the execution plan for a batch of n keys against a
// structure of the given kind. Pointer-chasing kinds group level-wise:
// trees and skip lists walk one level per round (the FPGA level-wise
// B+-tree batch shape), hash structures phase their bucket probes
// (cuckoo's two candidate buckets become two batched rounds), linked
// lists advance in lock-step chunks. Tries (variable-length scans with
// little cross-query sharing), custom firmware, and tiny batches stay
// on the windowed path.
func PlanBatch(kind StructKind, n int) BatchPlan {
	if k := kind.info(); n >= minLevelWiseBatch && k != nil && k.grouping != "" {
		return BatchPlan{Kind: kind, Mode: BatchLevelWise, Grouping: k.grouping}
	}
	return BatchPlan{Kind: kind, Mode: BatchWindowed, Grouping: "windowed"}
}

// QueryBatch looks up every key in t as one batch. Results are returned
// in key order; per-query faults are reported in Result.Err, and the
// issue clock ends at the last completion. The execution strategy is
// chosen by PlanBatch (override with WithBatchMode):
//
//   - The windowed path issues non-blocking QUERY_NB queries, keeping up
//     to a QST's worth in flight and running the List-2 poll loop to
//     drain completions — the batch shape of the paper's Fig. 10
//     evaluation.
//   - The level-wise path submits the whole batch as one batched
//     instruction: the accelerator walks every query in lock-step
//     rounds, translating each distinct page once per batch, streaming
//     each round's deduplicated node lines in ascending address order,
//     and coalescing duplicate keys onto one probe. Results are
//     byte-identical to the per-query path — any query that deviates
//     (fault, watchdog, corrupt pointer) is transparently re-executed on
//     the per-query path, retry-from-root included.
//
// Over-capacity contract (windowed path): len(keys) may exceed the QST
// capacity by any factor. The batch admits at most a QST's worth of
// queries at a time and drains its own oldest completion
// before each further issue, so QueryBatch never returns ErrQSTFull for
// its own queries — the bound is handled internally, and every key gets
// exactly one result, in key order (pinned by TestQueryBatchOverCapacity).
// When queries outside the batch already occupy QST entries, the batch
// additionally waits for those foreign completions as needed; ErrQSTFull
// surfaces (satisfying errors.Is) only if the foreign entries can never
// complete.
func (s *System) QueryBatch(t Table, keys [][]byte, opts ...BatchOption) ([]Result, error) {
	cfg := batchConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	mode := cfg.mode
	if mode == BatchAuto {
		mode = PlanBatch(t.Kind, len(keys)).Mode
	}
	if mode == BatchLevelWise {
		return s.queryBatchLevelWise(t, keys)
	}
	return s.queryBatchWindowed(t, keys)
}

// queryBatchLevelWise submits the batch as one batched instruction to
// the level-wise engine, then re-executes any queries the engine
// deferred on the standard per-query path (preserving its exact
// retry-from-root semantics).
func (s *System) queryBatchLevelWise(t Table, keys [][]byte) ([]Result, error) {
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
	for i, k := range keys {
		keyAddr := s.Write(k)
		resAddr := s.m.AS.AllocLines(mem.LineSize)
		descs[i] = isa.QueryDesc{
			HeaderAddr: mem.VAddr(t.HeaderAddr()),
			KeyAddr:    mem.VAddr(keyAddr),
			ResultAddr: resAddr,
			Tag:        s.nextTag(),
		}
		if t.Kind == KindTrie {
			descs[i].KeyLen = uint32(len(k))
		}
		ptrs[i] = &descs[i]
	}

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
		results[i] = Result{
			Found:   r.Found,
			Value:   r.Value,
			Matches: r.Matches,
			Latency: r.Done - issue,
			Err:     r.Fault,
		}
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

// queryBatchWindowed is the original windowed non-blocking path.
func (s *System) queryBatchWindowed(t Table, keys [][]byte) ([]Result, error) {
	window := s.QSTCapacity()
	if window < 1 {
		// A zero-capacity QST (every entry foreign, or a degenerate
		// machine description) still reaches the issue path below, where
		// ErrQSTFull surfaces with its documented errors.Is contract
		// instead of panicking on an empty drain.
		window = 1
	}

	results := make([]Result, len(keys))
	type inflight struct {
		idx int
		h   AsyncHandle
	}
	queue := make([]inflight, 0, window)
	drain := func() error {
		q := queue[0]
		queue = queue[1:]
		r, err := s.Wait(q.h)
		if err != nil {
			return fmt.Errorf("qei: batch query %d: %w", q.idx, err)
		}
		results[q.idx] = r
		return nil
	}

	for i, k := range keys {
		if len(queue) >= window {
			if err := drain(); err != nil {
				return nil, err
			}
		}
		h, err := s.QueryAsync(t, k)
		for errors.Is(err, ErrQSTFull) {
			// Queries outside this batch may occupy QST entries: drain
			// our oldest completion (or, with none of ours in flight,
			// spin the clock to the next foreign completion), then
			// reissue.
			if len(queue) > 0 {
				if derr := drain(); derr != nil {
					return nil, derr
				}
			} else if next, ok := s.accel.NextNBDone(s.now); ok {
				s.now = next
			} else {
				// Every QST entry is held by foreign queries that can
				// never complete: surface the architectural condition with
				// its context. The wrapped chain keeps the documented
				// errors.Is(err, ErrQSTFull) contract (pinned by
				// TestQueryBatchForeignStall).
				return nil, fmt.Errorf("qei: batch query %d: QST held by foreign entries that never complete: %w", i, err)
			}
			h, err = s.QueryAsync(t, k)
		}
		if err != nil {
			return nil, fmt.Errorf("qei: batch query %d: %w", i, err)
		}
		queue = append(queue, inflight{idx: i, h: h})
	}
	for len(queue) > 0 {
		if err := drain(); err != nil {
			return nil, err
		}
	}
	return results, nil
}
