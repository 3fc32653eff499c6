package cfa

import (
	"bytes"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Batch-aware firmware mode. The level-wise batch engine (package qei)
// executes one CFA transition per query per round and groups the
// round's memory micro-ops across the whole batch: one translation per
// distinct page, node lines deduplicated and fetched in ascending
// streaming order. Most firmware batches well as-is — a transition per
// round naturally walks tree and skip-list structures one level at a
// time, hash chains and linked lists in lock-step chunks — but a
// program whose single transition fans out over multiple independent
// memory sites serializes poorly when the engine phases the batch.
// Such firmware implements BatchProgram to expose an alternative
// stepping structure for batch mode.

// stAltComp is the batch-mode cuckoo state probing the alternative
// bucket (phase two). It extends the shared state numbering of
// programs.go; per-query mode never enters it.
const stAltComp StateID = 6

// BatchProgram is the optional batch-aware mode of a CFA program.
// BatchStep must be functionally equivalent to Step — identical
// found/value/fault outcomes for any query — but may phase the walk
// differently so that each transition touches one memory site, letting
// the level-wise engine group that site's accesses across the batch.
// A walk in batch mode (NewWalk) falls back to Step for programs
// without it.
type BatchProgram interface {
	Program
	// BatchStep executes the batch-mode transition out of state for q.
	BatchStep(q *Query, state StateID) Request
}

// cuckooFindIn scans one bucket's slots for the staged key, returning
// the stored value on a match. Shared by the per-query Step (which
// probes both buckets in one transition) and the batch-mode phases.
func cuckooFindIn(q *Query, base mem.VAddr) (uint64, bool, error) {
	occOff, valOff, keyOff := dstruct.CuckooEntryFieldOffsets()
	entrySize := dstruct.CuckooEntrySize(int(q.Header.KeyLen))
	for s := 0; s < int(q.Header.Subtype); s++ {
		ea := base + mem.VAddr(uint64(s)*entrySize)
		occ, err := q.AS.ReadU64(ea + mem.VAddr(occOff))
		if err != nil {
			return 0, false, err
		}
		if occ&1 == 0 {
			continue
		}
		stored, err := q.readStored(ea+mem.VAddr(keyOff), int(q.Header.KeyLen))
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(stored, q.Key) {
			v, err := q.AS.ReadU64(ea + mem.VAddr(valOff))
			return v, err == nil, err
		}
	}
	return 0, false, nil
}

// BatchStep implements BatchProgram: the two candidate buckets are
// probed as two phased transitions — all primary buckets in one round,
// the misses' alternative buckets in the next — instead of the
// per-query mode's single both-buckets transition. Outcomes are
// identical to Step: the primary bucket is searched first, and only a
// miss consults the alternative bucket.
func (p CuckooProgram) BatchStep(q *Query, state StateID) Request {
	bucketBytes := dstruct.CuckooBucketSize(int(q.Header.KeyLen), int(q.Header.Subtype))
	switch state {
	case StateStart, stHash:
		return p.Step(q, state)

	case stComp:
		// Phase one: the primary bucket only.
		v, found, err := cuckooFindIn(q, q.Node)
		if err != nil {
			return Fail(err)
		}
		cmp := Compare(q.Node, bucketBytes)
		if found {
			return q.Finish(true, v, cmp)
		}
		return q.Continue(stAltComp, false, cmp)

	case stAltComp:
		// Phase two: the alternative bucket, misses only.
		v, found, err := cuckooFindIn(q, q.AltNode)
		if err != nil {
			return Fail(err)
		}
		return q.Finish(found, v, Compare(q.AltNode, bucketBytes))

	default:
		return Fail(errBadState(p.Name(), state))
	}
}
