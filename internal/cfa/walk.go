package cfa

import (
	"errors"
	"fmt"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Firmware is untrusted input (Sec. IV-B: the CEE is microcoded and
// firmware-updatable), and a bad walk must end in an exception software
// sees, never a trap (Sec. IV-D). Every loop that steps a program — the
// timed engine's per-query and level-wise paths, the functional Run, and
// the exploration behind validation — drives it through one Walk, which
// owns every firmware guard.

// maxTransitions bounds every walk: firmware that has not reached a
// terminal state after this many transitions is runaway.
const maxTransitions = 1 << 20

// Sentinels of the walk guards that are not firmware rejections; the
// timed engine maps them onto its architectural faults.
var (
	// ErrRunaway reports a walk that reached the transition bound.
	ErrRunaway = errors.New("cfa: runaway firmware")
	// ErrPointerCycle reports a walk that repeated a configuration
	// exactly: the structure's pointers loop.
	ErrPointerCycle = errors.New("cfa: pointer cycle")
	// ErrNoProgram reports a header whose type code has no program.
	ErrNoProgram = errors.New("cfa: no CFA firmware")
)

// Stage prepares q the way the engine's QST entry does: it reads the
// structure header at headerAddr, looks up the header type's program in
// reg, binds q to the header (see Query.Bind) and stages the key at
// keyAddr (see Query.StageKey). The program is nil, and q untouched,
// when the header is unreadable or its type has no program
// (ErrNoProgram); a non-nil program with an error means only the key
// was unreadable.
func Stage(reg *Registry, as *mem.AddressSpace, headerAddr, keyAddr mem.VAddr, keyLen int, q *Query) (Program, error) {
	hdr, err := dstruct.ReadHeader(as, headerAddr)
	if err != nil {
		return nil, err
	}
	prog, ok := reg.Lookup(hdr.Type)
	if !ok {
		return nil, fmt.Errorf("%w for type %s", ErrNoProgram, dstruct.TypeName(hdr.Type))
	}
	q.Bind(as, headerAddr, hdr)
	return prog, q.StageKey(keyAddr, keyLen)
}

// Bind starts a new query on q against the structure whose header hdr
// was read at headerAddr: every architectural and cursor field is
// cleared, Matches included, and only q's own storage (the key buffer,
// the ops and compare buffers) is kept for reuse.
func (q *Query) Bind(as *mem.AddressSpace, headerAddr mem.VAddr, hdr dstruct.Header) {
	*q = Query{AS: as, HeaderAddr: headerAddr, Header: hdr,
		Key: q.Key[:0], ops: q.ops[:0], stored: q.stored[:0]}
}

// StageKey reads the query key at keyAddr into q.Key, reusing its
// storage and growing it as needed: keyLen bytes, or the header's KeyLen
// when keyLen is 0 (a descriptor's KeyLen overrides the header's, e.g.
// for a trie scan).
func (q *Query) StageKey(keyAddr mem.VAddr, keyLen int) error {
	if keyLen == 0 {
		keyLen = int(q.Header.KeyLen)
	}
	if cap(q.Key) < keyLen {
		q.Key = make([]byte, keyLen)
	}
	q.KeyAddr, q.Key = keyAddr, q.Key[:keyLen]
	return q.AS.Read(keyAddr, q.Key)
}

// walkConfig is the complete mutable configuration of a walk: the
// automaton state plus the QST cursor. A step is deterministic given
// this tuple and guest memory, and guest memory is static during a
// query — so an exactly repeated configuration proves an infinite
// pointer cycle. Matches can only grow, so its length stands in for it.
type walkConfig struct {
	state      StateID
	node, alt  mem.VAddr
	level, pos int
	matches    int
}

// Walk is one guarded execution of a program over a query. It is a
// value, so an engine keeps it in per-query storage it already owns
// (the level-wise engine holds one per batched query, hence the narrow
// counters). Callers own timing and fault injection around each Next.
type Walk struct {
	prog  Program
	q     *Query
	state StateID
	batch bool // step with BatchStep when prog is a BatchProgram
	steps int32
	// Brent's cycle detection over the walk configuration: O(1) memory,
	// catches a looping structure long before the transition bound.
	tortoise    walkConfig
	power, span int32
}

// NewWalk starts a walk of prog over q at StateStart. batch selects the
// program's batch mode (BatchProgram.BatchStep) when it has one.
func NewWalk(prog Program, q *Query, batch bool) Walk {
	w := Walk{prog: prog, q: q, batch: batch, power: 1}
	w.tortoise = w.config()
	return w
}

func (w *Walk) config() walkConfig {
	q := w.q
	return walkConfig{state: w.state, node: q.Node, alt: q.AltNode,
		level: q.Level, pos: q.Pos, matches: len(q.Matches)}
}

// Next takes one transition. The caller charges req.Ops, then: a
// non-nil err ends the walk with that fault, req.Next == StateDone ends
// it with req.Found/req.Value (and the query's Matches), and anything
// else continues. The guards, in order: the transition bound
// (ErrRunaway), on the first transition a header whose type code is not
// the program's (an exception's Fault), the panic barrier and the MaxOpBytes check over all of
// the request's ops (both ErrInvalidProgram, with no ops to charge),
// terminal classification (an exception's Fault), and pointer-cycle
// detection (ErrPointerCycle).
func (w *Walk) Next() (req Request, err error) {
	if w.steps >= maxTransitions {
		return Request{}, fmt.Errorf("%w: %s after %d transitions", ErrRunaway, w.prog.Name(), w.steps)
	}
	w.steps++
	if w.steps == 1 && w.q.Header.Type != w.prog.TypeCode() {
		req = Fail(fmt.Errorf("cfa: %s CFA invoked on %s header", w.prog.Name(), dstruct.TypeName(w.q.Header.Type)))
		return req, req.Fault
	}
	if req, err = w.step(); err != nil {
		return Request{}, err
	}
	for _, op := range req.Ops {
		if op.Bytes > MaxOpBytes {
			return Request{}, fmt.Errorf("%w: firmware %s op of %d bytes in state %d",
				ErrInvalidProgram, w.prog.Name(), op.Bytes, w.state)
		}
	}
	switch req.Next {
	case StateDone:
		return req, nil
	case StateException:
		if req.Fault == nil {
			return req, fmt.Errorf("%w: firmware %s raised an exception without a fault in state %d",
				ErrInvalidProgram, w.prog.Name(), w.state)
		}
		return req, req.Fault
	}
	w.state = req.Next
	cur := w.config()
	if cur == w.tortoise {
		return req, fmt.Errorf("%w in firmware %s (period ≤ %d)", ErrPointerCycle, w.prog.Name(), w.span+1)
	}
	if w.span == w.power {
		w.tortoise, w.power, w.span = cur, w.power*2, 0
	}
	w.span++
	return req, nil
}

// step invokes the firmware handler behind a panic barrier: a handler
// that panics (out-of-range index, nil deref) becomes a rejection, not
// a process crash.
func (w *Walk) step() (req Request, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: firmware %s panicked in state %d: %v",
				ErrInvalidProgram, w.prog.Name(), w.state, r)
		}
	}()
	if w.batch {
		if bp, ok := w.prog.(BatchProgram); ok {
			return bp.BatchStep(w.q, w.state), nil
		}
	}
	return w.prog.Step(w.q, w.state), nil
}
