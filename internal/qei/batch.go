package qei

import (
	"bytes"
	"fmt"
	"slices"

	"qei/internal/cache"
	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/isa"
	"qei/internal/mem"
	"qei/internal/trace"
)

// Level-wise batched execution (the batch optimizer under QueryBatch).
//
// The per-query path runs each query as an independent QST entry:
// every query pays its own header fetch, address translations, and
// dependent pointer-chase loads. ExecuteBatch instead treats the
// whole batch as ONE batched instruction against one structure and
// advances every query in lock-step rounds — one CFA transition per
// query per round — so that per-round memory traffic can be grouped
// across the batch, in the spirit of level-wise B+-tree batch search on
// FPGAs:
//
//   - the structure header is fetched once per batch, not per query;
//   - each round's node lines are deduplicated across queries and
//     issued in ascending-address streaming order, one line per cycle;
//   - translations are shared batch-wide: one TLB/page-walk per
//     distinct page per batch instead of per query (the QST entry's
//     page cache covers the whole batch);
//   - duplicate keys are coalesced onto a single representative walk;
//   - programs that opt into cfa.BatchProgram restructure a fan-out
//     transition into phased rounds (cuckoo probes all primary buckets
//     in one round, the misses' alternative buckets in the next).
//
// Functional behaviour is anchored to the per-query path by
// construction: the engine drives the SAME firmware transitions over
// the same guest memory, and any query that deviates from the clean
// walk — injected fault, watchdog, structural anomaly, firmware
// exception — is handed back (deferred) to the caller, who re-executes
// it on the unchanged per-query path, retry-from-root included. A
// batched query therefore either completes with exactly the
// per-query result or is never resolved by the batch engine at all.

// batchCursor is the lock-step walk state of one representative query.
// Cursors live in the accelerator's batchPool and keep their query
// buffers and page set from batch to batch.
type batchCursor struct {
	qd   *isa.QueryDesc
	q    cfa.Query
	walk cfa.Walk // batch-mode walk over q
	res  Result
	// pages are the virtual pages this query touched — the translations
	// the per-query path would have paid for (saved-translation
	// accounting).
	pages    stampMap
	done     bool
	deferred bool
	// dups are batch positions of duplicate keys coalesced onto this
	// walk.
	dups []int
	// sameHash is the index in batchPool.reps of the previous
	// representative whose key hashes like this one's, or -1.
	sameHash int
}

// lineOwner records that cursor c needs line from the current round's
// fetch set. The pairs are scanned only when a fetch fails.
type lineOwner struct {
	line uint64
	c    *batchCursor
}

// batchWrite is one result record of the writeback phase.
type batchWrite struct {
	addr mem.VAddr
	tag  uint64
	c    *batchCursor
	dup  bool
}

// batchPool is the level-wise engine's working storage. The accelerator
// owns it and reuses every buffer from batch to batch and round to
// round, the way the level-wise FPGA search keeps each level's working
// set in fixed buffers, so a warmed batch allocates only what its
// results keep (trie-scan Matches).
type batchPool struct {
	cursors  []*batchCursor // every cursor made so far; a batch uses a prefix
	reps     []*batchCursor // representative walks, in submission order
	active   []*batchCursor // representatives still walking this round
	cursorAt []*batchCursor // representative resolving each batch position
	repOf    stampMap       // key hash -> index in reps of its newest representative
	pages    stampMap       // pages the batch translated (or queued) so far
	lineSeen stampMap       // lines already in this round's fetch set
	owners   []lineOwner
	lines    []uint64
	writes   []batchWrite
	deferred []int
}

// cursor returns pooled cursor i, emptied for a new walk.
func (bp *batchPool) cursor(i int) *batchCursor {
	for len(bp.cursors) <= i {
		bp.cursors = append(bp.cursors, &batchCursor{})
	}
	c := bp.cursors[i]
	c.pages.reset()
	c.res = Result{}
	c.done, c.deferred = false, false
	c.dups = c.dups[:0]
	return c
}

// stageBatch stages every descriptor's key onto a pooled cursor and
// coalesces duplicate keys onto representative walks: bp.reps gets the
// representatives, bp.cursorAt the one resolving each position, and
// bp.deferred the positions whose key could not be staged. Staging the
// first query reads the shared header; the rest stage only their keys.
// The program is nil when the header cannot be staged at all.
func (a *Accelerator) stageBatch(qds []*isa.QueryDesc) cfa.Program {
	bp := &a.batch
	bp.reps, bp.deferred = bp.reps[:0], bp.deferred[:0]
	bp.cursorAt = slices.Grow(bp.cursorAt[:0], len(qds))[:len(qds)]
	clear(bp.cursorAt)
	bp.repOf.reset()

	c := bp.cursor(0)
	prog, err := cfa.Stage(a.reg, a.m.AS, qds[0].HeaderAddr, qds[0].KeyAddr, int(qds[0].KeyLen), &c.q)
	if prog == nil {
		return nil
	}
	as, hdr := c.q.AS, c.q.Header
	for i, qd := range qds {
		if i > 0 {
			c = bp.cursor(len(bp.reps))
			c.q.Bind(as, qd.HeaderAddr, hdr)
			err = c.q.StageKey(qd.KeyAddr, int(qd.KeyLen))
		}
		if err != nil {
			bp.deferred = append(bp.deferred, i)
			continue
		}
		h := dstruct.Hash(c.q.Key, 0)
		c.sameHash = -1
		if j, ok := bp.repOf.get(h); ok {
			c.sameHash = int(j)
		}
		if rep := bp.repWithKey(c.sameHash, c.q.Key); rep != nil {
			rep.dups = append(rep.dups, i)
			bp.cursorAt[i] = rep
			a.stats.BatchCoalescedProbes++
			continue
		}
		c.qd = qd
		c.walk = cfa.NewWalk(prog, &c.q, true)
		bp.repOf.put(h, uint64(len(bp.reps)))
		bp.reps = append(bp.reps, c)
		bp.cursorAt[i] = c
	}
	return prog
}

// repWithKey follows the sameHash chain from representative j and
// returns the one whose key is key, or nil.
func (bp *batchPool) repWithKey(j int, key []byte) *batchCursor {
	for ; j >= 0; j = bp.reps[j].sameHash {
		if bytes.Equal(bp.reps[j].q.Key, key) {
			return bp.reps[j]
		}
	}
	return nil
}

// ExecuteBatch runs a batch of queries against one structure (all
// descriptors share HeaderAddr) through the level-wise engine, starting
// at issue. Every descriptor must carry a ResultAddr; results are
// recorded under each descriptor's Tag and written to its ResultAddr
// exactly as the non-blocking path does. It returns the cycle the
// batched instruction completed and the batch positions of queries the
// engine deferred to the per-query path; that slice is the engine's own
// storage, valid until the next ExecuteBatch.
func (a *Accelerator) ExecuteBatch(qds []*isa.QueryDesc, issue uint64) (uint64, []int, error) {
	if len(qds) == 0 {
		return issue, nil, nil
	}
	for _, qd := range qds {
		if qd.ResultAddr == 0 {
			return 0, nil, fmt.Errorf("qei: batched query %d without result address", qd.Tag)
		}
		if qd.HeaderAddr != qds[0].HeaderAddr {
			return 0, nil, fmt.Errorf("qei: batched query %d targets a different structure", qd.Tag)
		}
	}

	ins := a.pickInstance(qds[0])
	a.stats.BatchBatches++

	// One batched issue transaction carries every descriptor.
	payload := 24 * uint64(len(qds))
	arrive := issue + a.p.PortOverhead + a.requestHop(ins, payload, issue+a.p.PortOverhead)
	if a.stats.FirstIssue == 0 || arrive < a.stats.FirstIssue {
		a.stats.FirstIssue = arrive
	}

	// The batch occupies one QST entry for its whole duration.
	slot := ins.qstSeq % uint64(len(ins.qstRing))
	start := arrive
	if free := ins.qstRing[slot]; free > start {
		a.stats.QSTStallCycles += free - start
		start = free
	}
	ins.qstSeq++

	a.fi.Arm()
	defer a.fi.Disarm()

	sc := &a.sc
	sc.reset()
	bp := &a.batch
	// bp.pages tracks pages translated (or queued for translation) by
	// the batch so far; a query touching one of them saved a translation
	// the per-query path would have performed.
	bp.pages.reset()
	touchPage := func(pages *stampMap, line uint64) {
		page := uint64(mem.VAddr(line).Page())
		if pages != nil && !pages.add(page) {
			return
		}
		if !bp.pages.add(page) {
			a.stats.BatchTranslationsSaved++
		}
	}

	deferAll := func(t uint64) (uint64, []int, error) {
		bp.deferred = bp.deferred[:0]
		for i := range qds {
			bp.deferred = append(bp.deferred, i)
		}
		a.stats.BatchDeferred += uint64(len(qds))
		ins.qstRing[slot] = t
		a.noteFinish(start, t)
		return t, bp.deferred, nil
	}

	// The structure header is fetched ONCE for the whole batch.
	t := start
	hlat, err := a.dataAccess(ins, qds[0].HeaderAddr, cache.Read, t, sc)
	a.stats.MemOps++
	a.stats.MemLines++
	t += hlat
	if err != nil {
		return deferAll(t)
	}
	sc.markFetched(uint64(qds[0].HeaderAddr.Line()))
	if a.stageBatch(qds) == nil {
		return deferAll(t)
	}
	for _, qd := range qds {
		touchPage(nil, uint64(qd.HeaderAddr.Line()))
	}

	bp.active = append(bp.active[:0], bp.reps...)
	round := 0
	for len(bp.active) > 0 {
		round++
		a.stats.BatchLevels++
		roundStart := t

		// Phase 1: CEE transitions, one active query per cycle. Compute
		// micro-ops (compares, hashes, ALU) operate on data staged by the
		// previous round and are charged at the query's transition slot;
		// memory reads are collected for the batched fetch phase.
		bp.lines, bp.owners = bp.lines[:0], bp.owners[:0]
		bp.lineSeen.reset()
		computeEnd := t
		for k, c := range bp.active {
			ceeT := t + uint64(k)
			if a.cycleBudget != 0 && ceeT-start >= a.cycleBudget {
				c.deferred = true
				continue
			}
			if a.fi.SpuriousFault() {
				c.deferred = true
				continue
			}
			ins.lastCEECycle = ceeT
			a.stats.Transitions++
			// A walk guard or firmware exception defers the query after
			// its ops are charged; the per-query path reports it.
			req, err := c.walk.Next()

			var serial, parallel uint64
			for _, op := range req.Ops {
				if op.Kind == cfa.OpMemRead {
					a.stats.MemOps++
					first, last := opLines(op)
					for line := first; line <= last; line += mem.LineSize {
						touchPage(&c.pages, line)
						if sc.wasFetched(line) {
							// Staged by an earlier round; the QST batch
							// entry still holds it.
							a.stats.BatchLinesDeduped++
							continue
						}
						if bp.lineSeen.add(line) {
							bp.lines = append(bp.lines, line)
						} else {
							a.stats.BatchLinesDeduped++
						}
						bp.owners = append(bp.owners, lineOwner{line: line, c: c})
					}
					continue
				}
				if op.Kind == cfa.OpCompare && !a.coveredByStaged(op, sc) {
					// The per-query path translates the remote operand per
					// query; the batch shares the page cache.
					first, last := opLines(op)
					for line := first; line <= last; line += mem.LineSize {
						touchPage(&c.pages, line)
					}
				}
				lat, err := a.chargeOp(ins, op, ceeT+1, sc, uint64(len(c.q.Key)))
				if err != nil {
					c.deferred = true
					break
				}
				serial += lat
				if lat > parallel {
					parallel = lat
				}
			}
			if c.deferred {
				continue
			}
			opsLat := serial
			if req.Parallel {
				opsLat = parallel
			}
			if end := ceeT + 1 + opsLat; end > computeEnd {
				computeEnd = end
			}

			switch {
			case err != nil:
				// Architectural faults go through the per-query path so its
				// retry-from-root applies.
				c.deferred = true
			case req.Next == cfa.StateDone:
				c.res = Result{Found: req.Found, Value: req.Value, Matches: c.q.Matches}
				c.done = true
			}
		}

		// Phase 2: the round's fetch set, deduplicated above, streams in
		// ascending address order at one line per cycle; each distinct
		// page translates once batch-wide.
		slices.Sort(bp.lines)
		fetchStart := t + uint64(len(bp.active))
		fetchEnd := fetchStart
		for j, line := range bp.lines {
			at := fetchStart + uint64(j)
			lat, err := a.dataAccess(ins, mem.VAddr(line), cache.Read, at, sc)
			a.stats.MemLines++
			if err != nil {
				for _, o := range bp.owners {
					if o.line == line {
						o.c.deferred = true
					}
				}
				continue
			}
			sc.markFetched(line)
			if end := at + lat; end > fetchEnd {
				fetchEnd = end
			}
		}
		if computeEnd > fetchEnd {
			t = computeEnd
		} else {
			t = fetchEnd
		}

		if a.tr != nil {
			a.tr.Span("qst", fmt.Sprintf("batch/level%d", round), roundStart, t,
				trace.PidQST(ins.idx), int(slot), nil)
		}

		// The walks that neither finished nor deviated go on to the next
		// round, in order.
		kept := bp.active[:0]
		for _, c := range bp.active {
			if !c.deferred && !c.done {
				kept = append(kept, c)
			}
		}
		bp.active = kept
	}

	// Result writeback: one 16-byte flag+value record per query
	// (duplicates included), streamed in ascending address order — the
	// same encoding the non-blocking path uses, so polling software sees
	// no difference.
	bp.writes = bp.writes[:0]
	for _, c := range bp.reps {
		if c.deferred || !c.done {
			continue
		}
		bp.writes = append(bp.writes, batchWrite{addr: c.qd.ResultAddr, tag: c.qd.Tag, c: c})
		for _, di := range c.dups {
			bp.writes = append(bp.writes, batchWrite{addr: qds[di].ResultAddr, tag: qds[di].Tag, c: c, dup: true})
		}
	}
	slices.SortFunc(bp.writes, func(x, y batchWrite) int {
		switch {
		case x.addr < y.addr:
			return -1
		case x.addr > y.addr:
			return 1
		}
		return 0
	})
	batchDone := t
	for j, w := range bp.writes {
		at := t + uint64(j)
		if w.dup {
			touchPage(nil, uint64(w.addr.Line()))
		} else {
			touchPage(&w.c.pages, uint64(w.addr.Line()))
		}
		wlat, err := a.dataAccess(ins, w.addr, cache.Write, at, sc)
		if err == nil {
			a.writeResult(w.addr, w.c.res)
		}
		res := w.c.res
		res.Done = at + wlat
		a.results[w.tag] = res
		a.stats.Queries++
		a.stats.BatchQueries++
		if res.Done > batchDone {
			batchDone = res.Done
		}
		a.querySpan(start, res.Done, ins, slot, false)
	}

	ins.qstRing[slot] = batchDone
	a.noteFinish(start, batchDone)

	// Deferred positions, in submission order: representatives that
	// deviated plus duplicates riding on a deviated representative (key
	// staging failures are already in bp.deferred).
	for i, c := range bp.cursorAt {
		if c != nil && (c.deferred || !c.done) {
			bp.deferred = append(bp.deferred, i)
		}
	}
	slices.Sort(bp.deferred)
	a.stats.BatchDeferred += uint64(len(bp.deferred))
	return batchDone, bp.deferred, nil
}
