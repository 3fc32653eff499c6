// Package baseline implements the software query routines the paper
// compares QEI against: -O3-compiled loops running on the out-of-order
// core model.
//
// Each routine plays two roles at once. Functionally, it walks the data
// structure's bytes in simulated memory and produces the query result
// (verified against the dstruct reference implementations). As a side
// effect it emits the dynamic micro-op trace that walk costs on a real
// core: line-granular loads with true addresses and dependences (pointer
// chasing serializes, independent probes overlap), the ALU work of
// hashing and memcmp, and the data-dependent branches that make these
// loops frontend-hostile (Sec. II-A). The traces are then fed to
// cpu.Core for timing.
//
// Branch modelling: loop-back branches predict well; the final
// iteration's exit branch and the key-match branch mispredict, as a
// TAGE-like predictor would on data-dependent exits. This yields roughly
// one to two mispredictions per query, matching the paper's
// characterization of query loops as frontend-bound for linked
// structures.
//
// The single entry point, Querier.Query, reads the structure's metadata
// header and lets its type code pick the routine — the same byte that
// selects the CFA program on the accelerator (Sec. IV-B). A Querier is
// a reusable arena that amortizes the builder, the key scratch buffer,
// and the constant per-structure trace prefix across millions of
// queries.
package baseline

import (
	"bytes"
	"errors"
	"fmt"

	"qei/internal/dstruct"
	"qei/internal/isa"
	"qei/internal/mem"
)

// ErrNoWalker reports a header whose type code has no software routine
// (a custom firmware type).
var ErrNoWalker = errors.New("baseline: no software walker")

// Result is the outcome of one software query: the functional answer and
// the dynamic trace it cost. A trie scan lists every match in Matches
// and, like the accelerator, leaves the last one in Value.
type Result struct {
	Value   uint64
	Found   bool
	Matches []uint64
	Trace   isa.Trace
}

// callOverheadOps is the per-query scalar overhead of the surrounding
// code (call, argument marshaling, result handling) emitted around every
// query routine. The paper notes each query easily reaches hundreds of
// dynamic instructions; this is the non-loop share.
const callOverheadOps = 12

func emitCallOverhead(b *isa.Builder) {
	b.Nop(callOverheadOps / 2)
	b.ALUN(callOverheadOps/2, 0)
}

// emitKeyCompare emits the memcmp of keyLen bytes against the probe key:
// the stored key's cachelines are loaded (dependent on nodeReady) and
// reduced; the result register carries the comparison outcome.
func emitKeyCompare(b *isa.Builder, keyAddr mem.VAddr, keyLen uint16, nodeReady isa.Reg) isa.Reg {
	r := b.LoadRange(keyAddr, uint64(keyLen), nodeReady)
	// word-wise compare ALU ops
	return b.ALUN((int(keyLen)+7)/8, r)
}

// emitHash emits the software hash computation over the (register-
// resident) probe key.
func emitHash(b *isa.Builder, keyLen int) isa.Reg {
	alu, mul := dstruct.HashOps(keyLen)
	r := b.ALUN(alu, 0)
	for i := 0; i < mul; i++ {
		r = b.Mul(r, 0)
	}
	return r
}

// prefixSkel caches the constant per-query trace prefix for one
// structure: call overhead, the descriptor-line load, and (for hashed
// tables) the key hash and bucket-index arithmetic. These ops depend
// only on the header address and the header's type and key length —
// never on structure contents, which updates mutate — so replaying the
// skeleton is byte-identical to re-emitting it.
type prefixSkel struct {
	skel isa.Skeleton
	cur  isa.Reg // descriptor-load destination register
	idx  isa.Reg // bucket-index register (hashed prefixes only)
}

// Querier is a reusable arena for the query routines: one trace builder,
// one stored-key scratch buffer, the probed-slot and match buffers of a
// trie scan, and a per-structure prefix cache, so a warmed query
// allocates nothing. The zero Querier is ready to use. The cache is
// keyed by header address, so a Querier serves one address space, where
// headers are never freed.
//
// The Trace and Matches that Query returns share the arena's storage
// and are valid only until the next query on the same Querier — callers
// must copy (isa.Builder.Append does) or consume them first. A Querier
// is not safe for concurrent use.
type Querier struct {
	b       isa.Builder
	key     []byte
	slots   []mem.VAddr
	matches []uint64
	skels   map[mem.VAddr]prefixSkel
}

// Query runs one query for key on the structure whose header is at
// headerAddr, with the routine the header's type code selects; a trie
// scans key as its input. A type code with no routine returns
// ErrNoWalker.
func (q *Querier) Query(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (Result, error) {
	h, err := dstruct.ReadHeader(as, headerAddr)
	if err != nil {
		return Result{}, err
	}
	switch h.Type {
	case dstruct.TypeLinkedList:
		// Load the list descriptor (head pointer) — one line.
		cur, _ := q.emitPrefix(headerAddr, h)
		return q.walkChain(as, h.KeyLen, h.Root, cur, key)
	case dstruct.TypeHashTable:
		// Hash the key, load the bucket head, then walk the chain (the
		// "hash table of linked lists" combined structure).
		_, idx := q.emitPrefix(headerAddr, h)
		slot := dstruct.HashBucketSlot(h, key)
		head := q.b.Load(slot, 8, idx) // bucket head pointer load
		headU, err := as.ReadU64(slot)
		if err != nil {
			return Result{}, err
		}
		return q.walkChain(as, h.KeyLen, mem.VAddr(headU), head, key)
	case dstruct.TypeCuckoo:
		return q.cuckoo(as, headerAddr, h, key)
	case dstruct.TypeSkipList:
		return q.skipList(as, headerAddr, h, key)
	case dstruct.TypeBST:
		return q.bst(as, headerAddr, h, key)
	case dstruct.TypeTrie:
		return q.scanTrie(as, headerAddr, h, key)
	case dstruct.TypeBTree:
		return q.btree(as, headerAddr, h, key)
	}
	return Result{}, fmt.Errorf("%w for type %s", ErrNoWalker, dstruct.TypeName(h.Type))
}

// scratch returns the arena's n-byte stored-key buffer, growing it if
// needed. Contents are overwritten by the next scratch call.
func (q *Querier) scratch(n int) []byte {
	if cap(q.key) < n {
		q.key = make([]byte, n)
	}
	q.key = q.key[:n]
	return q.key
}

// emitPrefix resets the arena's builder and emits (or replays) the
// constant query prologue for the structure at headerAddr: call
// overhead plus the descriptor-line load, and for hashed tables also
// the key hash and bucket-index ALU. It returns the descriptor register
// and, for hashed tables, the index register.
func (q *Querier) emitPrefix(headerAddr mem.VAddr, h dstruct.Header) (cur, idx isa.Reg) {
	b := &q.b
	b.Reset()
	if s, ok := q.skels[headerAddr]; ok {
		b.AppendSkeleton(s.skel)
		return s.cur, s.idx
	}
	emitCallOverhead(b)
	cur = b.LoadLine(headerAddr, 0)
	if h.Type == dstruct.TypeHashTable || h.Type == dstruct.TypeCuckoo {
		hreg := emitHash(b, int(h.KeyLen))
		idx = b.ALU(hreg, cur)
	}
	if q.skels == nil {
		q.skels = make(map[mem.VAddr]prefixSkel)
	}
	// The prefix is the entire builder contents here, so a snapshot
	// captures exactly it.
	q.skels[headerAddr] = prefixSkel{skel: b.Snapshot(), cur: cur, idx: idx}
	return cur, idx
}

// walkChain walks a singly linked chain from node per List 1 of the
// paper: a whole linked list, or one hash bucket's chain. cur is the
// register the first node address came from.
func (q *Querier) walkChain(as *mem.AddressSpace, keyLen uint16, node mem.VAddr, cur isa.Reg, key []byte) (Result, error) {
	b := &q.b
	for node != 0 {
		// Load the node line (next/value/key share it for short keys).
		nodeReady := b.LoadLine(node, cur)
		cmp := emitKeyCompare(b, dstruct.ListKeyAddr(node), keyLen, nodeReady)

		k := q.scratch(int(keyLen))
		if err := as.Read(dstruct.ListKeyAddr(node), k); err != nil {
			return Result{}, err
		}
		match := bytes.Equal(k, key)
		// Key-match branch: mispredicts when it finally matches.
		b.Branch(cmp, match)
		if match {
			v, err := dstruct.ListValue(as, node)
			if err != nil {
				return Result{}, err
			}
			b.ALU(nodeReady, 0) // move value to return register
			return Result{Value: v, Found: true, Trace: b.Ops()}, nil
		}
		next, err := dstruct.ListNext(as, node)
		if err != nil {
			return Result{}, err
		}
		// Loop branch on next != NULL: mispredicts at the end of the list.
		b.Branch(nodeReady, next == 0)
		cur = nodeReady // the next node address came from this line
		node = next
	}
	return Result{Trace: b.Ops()}, nil
}

// cuckoo probes the two candidate buckets of the DPDK-style table.
// The two bucket loads are independent (software issues both probes), so
// the core can overlap them — the baseline is already MLP-friendly here,
// which is why hash tables show the smallest per-query accelerator win
// (Sec. VII-A).
func (q *Querier) cuckoo(as *mem.AddressSpace, headerAddr mem.VAddr, h dstruct.Header, key []byte) (Result, error) {
	_, idx := q.emitPrefix(headerAddr, h)
	b := &q.b

	h1, h2 := dstruct.CuckooHashes(key, h.Aux2, h.Aux)
	occOff, valOff, keyOff := dstruct.CuckooEntryFieldOffsets()

	for bi, bucket := range [2]uint64{h1, h2} {
		// Load the bucket's lines (independent of the other bucket).
		bucketBase := dstruct.EntryAddr(h, bucket, 0)
		bucketSize := dstruct.CuckooBucketSize(int(h.KeyLen), int(h.Subtype))
		ready := b.LoadRange(bucketBase, bucketSize, idx)
		for s := 0; s < int(h.Subtype); s++ {
			ea := dstruct.EntryAddr(h, bucket, s)
			occ, err := as.ReadU64(ea + mem.VAddr(occOff))
			if err != nil {
				return Result{}, err
			}
			// Per-entry signature path, as in DPDK's rte_hash: extract
			// the stored signature, mask, compare, branch (well
			// predicted in a hot table).
			sig := b.ALUN(3, ready)
			b.Branch(sig, false)
			if occ&1 == 0 {
				continue
			}
			stored := q.scratch(int(h.KeyLen))
			if err := as.Read(ea+mem.VAddr(keyOff), stored); err != nil {
				return Result{}, err
			}
			match := bytes.Equal(stored, key)
			if match {
				// Signature hit: fetch the full key through the
				// key-store indirection (rte_hash keeps keys in a
				// separate array) and memcmp it.
				kready := b.Load(ea+mem.VAddr(keyOff), 8, sig)
				cmp := emitKeyCompare(b, ea+mem.VAddr(keyOff), h.KeyLen, kready)
				b.Branch(cmp, true) // final match mispredicts
				v, err := as.ReadU64(ea + mem.VAddr(valOff))
				if err != nil {
					return Result{}, err
				}
				b.ALU(kready, 0)
				return Result{Value: v, Found: true, Trace: b.Ops()}, nil
			}
		}
		// Bucket-exhausted branch: mispredicts when falling to bucket 2.
		b.Branch(ready, bi == 0)
	}
	return Result{Trace: b.Ops()}, nil
}

// skipList performs a RocksDB-style seek: descend levels, move right
// while the next key is smaller. Every step is a dependent load.
func (q *Querier) skipList(as *mem.AddressSpace, headerAddr mem.VAddr, h dstruct.Header, key []byte) (Result, error) {
	cur, _ := q.emitPrefix(headerAddr, h)
	b := &q.b

	node := h.Root
	for l := int(h.Aux) - 1; l >= 0; l-- {
		for {
			// Load the forward pointer at this level (dependent).
			slot := dstruct.SkipNextSlot(node, l)
			ptrReady := b.Load(slot, 8, cur)
			nextU, err := as.ReadU64(slot)
			if err != nil {
				return Result{}, err
			}
			next := mem.VAddr(nextU)
			b.Branch(ptrReady, next == 0) // NULL check: mispredict at level end
			if next == 0 {
				break
			}
			// Load the next node's header+key and compare. A real
			// memtable charges substantial per-node scalar work here:
			// RocksDB dispatches a virtual comparator and decodes the
			// InternalKey (user key + sequence + type) on every visited
			// node.
			nh, err := dstruct.SkipHeight(as, next)
			if err != nil {
				return Result{}, err
			}
			nodeReady := b.LoadLine(next, ptrReady)
			decode := b.ALUN(18, nodeReady) // InternalKey decode + comparator dispatch
			b.Branch(decode, false)
			cmp := emitKeyCompare(b, dstruct.SkipKeyAddr(next, nh), h.KeyLen, decode)
			stored := q.scratch(int(h.KeyLen))
			if err := as.Read(dstruct.SkipKeyAddr(next, nh), stored); err != nil {
				return Result{}, err
			}
			c := bytes.Compare(stored, key)
			// Continue-right branch: data-dependent; mispredicts when the
			// direction changes (end of run at this level).
			b.Branch(cmp, c >= 0)
			if c < 0 {
				node = next
				cur = nodeReady
				continue
			}
			if c == 0 && l == 0 {
				v, err := dstruct.SkipValue(as, next)
				if err != nil {
					return Result{}, err
				}
				b.ALU(nodeReady, 0)
				return Result{Value: v, Found: true, Trace: b.Ops()}, nil
			}
			break
		}
	}
	return Result{Trace: b.Ops()}, nil
}

// bst walks the object tree: one node visit = node line + key lines
// (the payload pushes keys onto a second line), compare, branch left or
// right — a textbook pointer chase.
func (q *Querier) bst(as *mem.AddressSpace, headerAddr mem.VAddr, h dstruct.Header, key []byte) (Result, error) {
	payload := int(h.Aux)
	cur, _ := q.emitPrefix(headerAddr, h)
	b := &q.b

	node := h.Root
	for node != 0 {
		nodeReady := b.LoadLine(node, cur) // header line: children + value
		cmp := emitKeyCompare(b, dstruct.BSTKeyAddr(node, payload), h.KeyLen, nodeReady)

		stored := q.scratch(int(h.KeyLen))
		if err := as.Read(dstruct.BSTKeyAddr(node, payload), stored); err != nil {
			return Result{}, err
		}
		c := bytes.Compare(key, stored)
		b.Branch(cmp, c == 0) // match branch mispredicts on hit
		if c == 0 {
			v, err := dstruct.BSTValue(as, node)
			if err != nil {
				return Result{}, err
			}
			b.ALU(nodeReady, 0)
			return Result{Value: v, Found: true, Trace: b.Ops()}, nil
		}
		// Direction branch: essentially random for lookups → mispredicts
		// about half the time. Model: mispredict when the key byte parity
		// flips direction unpredictably.
		b.Branch(cmp, mispredictDirection(stored, key))
		childU, err := as.ReadU64(dstruct.BSTChildSlot(node, c > 0))
		if err != nil {
			return Result{}, err
		}
		node = mem.VAddr(childU)
		cur = nodeReady
	}
	return Result{Trace: b.Ops()}, nil
}

// btree descends the B+-tree in software: per level, load the node and
// binary-search its separators — the index-walker loop of in-memory
// databases.
func (q *Querier) btree(as *mem.AddressSpace, headerAddr mem.VAddr, h dstruct.Header, key []byte) (Result, error) {
	cur, _ := q.emitPrefix(headerAddr, h)
	b := &q.b

	node := h.Root
	for node != 0 {
		ptr, leaf, found, probes, err := dstruct.BTreeSearchNode(as, node, int(h.KeyLen), key, q.scratch(int(h.KeyLen)))
		if err != nil {
			return Result{}, err
		}
		// Load the node header line, then one dependent line per binary-
		// search probe (separators scatter across the node's lines), with
		// a compare + branch per probe.
		nodeReady := b.LoadLine(node, cur)
		probeReady := nodeReady
		for i := 0; i < probes; i++ {
			r := b.Load(dstruct.BTreeEntryAddr(node, int(h.KeyLen), i).Line(), 8, nodeReady)
			probeReady = b.ALU(probeReady, r)
			b.ALUN((int(h.KeyLen)+7)/8, probeReady)
			b.Branch(probeReady, i == probes-1 && (key[0]&7) == 0) // final probe occasionally mispredicts
		}
		if leaf {
			b.Branch(probeReady, true) // leaf hit/miss resolution
			if found {
				b.ALU(probeReady, 0)
				return Result{Value: ptr, Found: true, Trace: b.Ops()}, nil
			}
			return Result{Trace: b.Ops()}, nil
		}
		cur = probeReady
		node = mem.VAddr(ptr)
	}
	return Result{Trace: b.Ops()}, nil
}

// scanTrie runs the Aho-Corasick automaton over input, emitting the
// per-byte goto/fail walk (Snort's literal matcher, Sec. VI-B).
func (q *Querier) scanTrie(as *mem.AddressSpace, headerAddr mem.VAddr, h dstruct.Header, input []byte) (Result, error) {
	cur, _ := q.emitPrefix(headerAddr, h)
	b := &q.b

	matches := q.matches[:0]
	state := h.Root
	for _, ib := range input {
		// Load the input byte (sequential, prefetch-friendly: charged as
		// an independent load).
		inReady := b.Load(mem.VAddr(uint64(headerAddr)), 1, 0)
		for {
			// Load the state node and search its index table (one load
			// per probed slot: a single slot for dense nodes, a binary
			// search for sparse ones).
			stReady := b.LoadLine(state, cur)
			child, probes, slots, err := dstruct.TrieFindEdgeProbes(as, state, ib, q.slots[:0])
			q.slots = slots
			if err != nil {
				return Result{}, err
			}
			probeReady := stReady
			for _, s := range slots {
				r := b.Load(s.Line(), 8, stReady)
				probeReady = b.ALU(probeReady, r)
			}
			cmp := b.ALU(probeReady, inReady)
			// Inner search exit: a trained predictor handles the common
			// shapes; mispredict on ~1/8 of irregular searches.
			b.Branch(cmp, probes > 1 && (int(ib)+probes)%8 == 0)
			if child != 0 {
				state = child
				cur = stReady
				break
			}
			if state == h.Root {
				break
			}
			fl, err := dstruct.TrieFail(as, state)
			if err != nil {
				return Result{}, err
			}
			// Fail-link transitions are frequent on benign traffic; the
			// predictor learns the pattern and misses ~1/4 of the time.
			b.Branch(cmp, int(ib)%4 == 0)
			state = fl
			cur = stReady
		}
		out, err := dstruct.TrieOutput(as, state)
		if err != nil {
			return Result{}, err
		}
		b.Branch(cur, out != 0) // output check
		if out != 0 {
			matches = append(matches, out)
		}
	}
	q.matches = matches
	res := Result{Found: len(matches) > 0, Trace: b.Ops()}
	if res.Found {
		res.Matches = matches
		res.Value = matches[len(matches)-1]
	}
	return res, nil
}

// mispredictDirection deterministically marks ~50% of BST direction
// branches as mispredicted, keyed on the comparands so runs reproduce.
func mispredictDirection(a, b []byte) bool {
	var x byte
	for i := range a {
		x ^= a[i]
	}
	for i := range b {
		x ^= b[i]
	}
	return x&1 == 1
}
