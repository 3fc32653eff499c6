package qei

import (
	"fmt"
	"slices"

	"qei/internal/cache"
	"qei/internal/cfa"
	"qei/internal/isa"
	"qei/internal/mem"
	"qei/internal/trace"
)

// Level-wise batched execution (the batch optimizer under QueryBatch).
//
// The windowed path runs each query of a batch as an independent QST
// entry: every query pays its own header fetch, address translations,
// and dependent pointer-chase loads. ExecuteBatch instead treats the
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
type batchCursor struct {
	qd   *isa.QueryDesc
	q    cfa.Query
	walk cfa.Walk // batch-mode walk over q
	res  Result
	// pages are the virtual pages this query touched — the translations
	// the per-query path would have paid for (saved-translation
	// accounting).
	pages    map[uint64]bool
	done     bool
	deferred bool
	// dups are batch positions of duplicate keys coalesced onto this
	// walk.
	dups []int
}

// ExecuteBatch runs a batch of queries against one structure (all
// descriptors share HeaderAddr) through the level-wise engine, starting
// at issue. Every descriptor must carry a ResultAddr; results are
// recorded under each descriptor's Tag and written to its ResultAddr
// exactly as the non-blocking path does. It returns the cycle the
// batched instruction completed and the batch positions of queries the
// engine deferred to the per-query path.
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
	// batchPages tracks pages translated (or queued for translation) by
	// the batch so far; a query touching one of them saved a translation
	// the per-query path would have performed.
	batchPages := make(map[uint64]bool, 64)
	touchPage := func(pages map[uint64]bool, line uint64) {
		page := mem.VAddr(line).Page()
		if pages != nil {
			if pages[page] {
				return
			}
			pages[page] = true
		}
		if batchPages[page] {
			a.stats.BatchTranslationsSaved++
		} else {
			batchPages[page] = true
		}
	}

	deferAll := func(t uint64) (uint64, []int, error) {
		all := make([]int, len(qds))
		for i := range qds {
			all[i] = i
		}
		a.stats.BatchDeferred += uint64(len(all))
		ins.qstRing[slot] = t
		a.noteFinish(start, t)
		return t, all, nil
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
	// Staging the first query reads the shared header; the rest stage
	// only their keys.
	prog, q0, err0 := cfa.Stage(a.reg, a.m.AS, qds[0].HeaderAddr, qds[0].KeyAddr, int(qds[0].KeyLen), nil)
	if prog == nil {
		return deferAll(t)
	}
	for _, qd := range qds {
		touchPage(nil, uint64(qd.HeaderAddr.Line()))
	}

	// Stage the keys and coalesce duplicates onto representative walks.
	var cursors []*batchCursor
	repOf := make(map[string]*batchCursor, len(qds))
	cursorAt := make([]*batchCursor, len(qds)) // rep resolving each position
	var deferred []int
	for i, qd := range qds {
		q, err := q0, err0
		if i > 0 {
			err = q.StageKey(qd.KeyAddr, int(qd.KeyLen), nil)
		}
		if err != nil {
			deferred = append(deferred, i)
			continue
		}
		if rep, ok := repOf[string(q.Key)]; ok {
			rep.dups = append(rep.dups, i)
			cursorAt[i] = rep
			a.stats.BatchCoalescedProbes++
			continue
		}
		c := &batchCursor{qd: qd, q: q, pages: make(map[uint64]bool, 8)}
		c.walk = cfa.NewWalk(prog, &c.q, true)
		repOf[string(q.Key)] = c
		cursorAt[i] = c
		cursors = append(cursors, c)
	}

	active := cursors
	round := 0
	for len(active) > 0 {
		round++
		a.stats.BatchLevels++
		roundStart := t

		// Phase 1: CEE transitions, one active query per cycle. Compute
		// micro-ops (compares, hashes, ALU) operate on data staged by the
		// previous round and are charged at the query's transition slot;
		// memory reads are collected for the batched fetch phase.
		var lines []uint64
		lineSeen := make(map[uint64]bool, 64)
		lineOwners := make(map[uint64][]*batchCursor, 64)
		next := make([]*batchCursor, 0, len(active))
		computeEnd := t
		for k, c := range active {
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
						touchPage(c.pages, line)
						if sc.wasFetched(line) {
							// Staged by an earlier round; the QST batch
							// entry still holds it.
							a.stats.BatchLinesDeduped++
							continue
						}
						if lineSeen[line] {
							a.stats.BatchLinesDeduped++
						} else {
							lineSeen[line] = true
							lines = append(lines, line)
						}
						lineOwners[line] = append(lineOwners[line], c)
					}
					continue
				}
				if op.Kind == cfa.OpCompare && !a.coveredByStaged(op, sc) {
					// The per-query path translates the remote operand per
					// query; the batch shares the page cache.
					first, last := opLines(op)
					for line := first; line <= last; line += mem.LineSize {
						touchPage(c.pages, line)
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
			default:
				next = append(next, c)
			}
		}

		// Phase 2: the round's fetch set, deduplicated above, streams in
		// ascending address order at one line per cycle; each distinct
		// page translates once batch-wide.
		slices.Sort(lines)
		fetchStart := t + uint64(len(active))
		fetchEnd := fetchStart
		for j, line := range lines {
			at := fetchStart + uint64(j)
			lat, err := a.dataAccess(ins, mem.VAddr(line), cache.Read, at, sc)
			a.stats.MemLines++
			if err != nil {
				for _, c := range lineOwners[line] {
					c.deferred = true
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
				trace.PidQST(a.instanceIndex(ins)), int(slot), nil)
		}

		// next is freshly allocated each round, so filtering it in place
		// cannot alias the cursors list.
		filtered := next[:0]
		for _, c := range next {
			if !c.deferred && !c.done {
				filtered = append(filtered, c)
			}
		}
		active = filtered
	}

	// Result writeback: one 16-byte flag+value record per query
	// (duplicates included), streamed in ascending address order — the
	// same encoding the non-blocking path uses, so polling software sees
	// no difference.
	type wreq struct {
		addr mem.VAddr
		tag  uint64
		c    *batchCursor
		dup  bool
	}
	var writes []wreq
	for _, c := range cursors {
		if c.deferred || !c.done {
			continue
		}
		writes = append(writes, wreq{addr: c.qd.ResultAddr, tag: c.qd.Tag, c: c})
		for _, di := range c.dups {
			writes = append(writes, wreq{addr: qds[di].ResultAddr, tag: qds[di].Tag, c: c, dup: true})
		}
	}
	slices.SortFunc(writes, func(x, y wreq) int {
		switch {
		case x.addr < y.addr:
			return -1
		case x.addr > y.addr:
			return 1
		}
		return 0
	})
	batchDone := t
	for j, w := range writes {
		at := t + uint64(j)
		if w.dup {
			touchPage(nil, uint64(w.addr.Line()))
		} else {
			touchPage(w.c.pages, uint64(w.addr.Line()))
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
	// deviated plus duplicates riding on a deviated representative.
	for i := range qds {
		c := cursorAt[i]
		if c == nil {
			continue // key staging failed; already recorded
		}
		if c.deferred || !c.done {
			deferred = append(deferred, i)
		}
	}
	slices.Sort(deferred)
	a.stats.BatchDeferred += uint64(len(deferred))
	return batchDone, deferred, nil
}
