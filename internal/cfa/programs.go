package cfa

import (
	"bytes"
	"fmt"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// The built-in CFA programs below follow Fig. 3 of the paper: a query
// triggers parallel fetches of the queried key and the starting node,
// then alternates COMP (comparison) and MEM.N (fetch next item) states
// until a match is found or the structure is exhausted, then returns the
// result and goes idle. Each structure adds its characteristic states:
// hash tables insert a HASH state before the first fetch, tries insert an
// index-table search between MEM.N and COMP, skip lists and BSTs extend
// COMP with </> outcomes to steer traversal (Sec. III-A).

// Shared state numbering for the node-walking CFAs.
const (
	stFetch StateID = 1 // MEM.K ∥ MEM.N: stage key and first node
	stComp  StateID = 2 // COMP: compare staged key with current item
	stNext  StateID = 3 // MEM.N: fetch next item
	stHash  StateID = 4 // HASH: compute bucket index (hash structures)
	stIndex StateID = 5 // INDEX: search a node's index table (trie)
)

func errBadState(name string, s StateID) error {
	return fmt.Errorf("cfa: %s CFA has no state %d", name, s)
}

// nodeLine returns a memory micro-op fetching the single line at addr.
func nodeLine(addr mem.VAddr) Op { return MemRead(addr, mem.LineSize) }

// readsLine reports whether ops already holds a memory micro-op at line.
func readsLine(ops []Op, line mem.VAddr) bool {
	for _, op := range ops {
		if op.Kind == OpMemRead && op.Addr == line {
			return true
		}
	}
	return false
}

// LinkedListProgram walks the singly linked list of Fig. 3 exactly.
type LinkedListProgram struct{}

func (LinkedListProgram) TypeCode() uint8 { return dstruct.TypeLinkedList }
func (LinkedListProgram) Name() string    { return dstruct.TypeName(dstruct.TypeLinkedList) }
func (LinkedListProgram) NumStates() int  { return 4 }

func (p LinkedListProgram) Step(q *Query, state StateID) Request {
	switch state {
	case StateStart:
		q.Node = q.Header.Root
		// 1: issue memory requests for the queried key and starting node.
		key := MemRead(q.KeyAddr, uint64(q.Header.KeyLen))
		if q.Node == 0 {
			return q.Continue(stComp, true, key)
		}
		return q.Continue(stComp, true, key, nodeLine(q.Node))

	case stComp:
		if q.Node == 0 {
			return q.Finish(false, 0)
		}
		k, err := q.readStored(dstruct.ListKeyAddr(q.Node), int(q.Header.KeyLen))
		if err != nil {
			return Fail(err)
		}
		cmp := Compare(dstruct.ListKeyAddr(q.Node), uint64(q.Header.KeyLen))
		if bytes.Equal(k, q.Key) {
			v, err := dstruct.ListValue(q.AS, q.Node)
			if err != nil {
				return Fail(err)
			}
			// 7-8: return result, go idle.
			return q.Finish(true, v, cmp)
		}
		// 6: mismatch — fetch the next node.
		return q.Continue(stNext, false, cmp)

	case stNext:
		next, err := dstruct.ListNext(q.AS, q.Node)
		if err != nil {
			return Fail(err)
		}
		q.Node = next
		if next == 0 {
			return q.Finish(false, 0)
		}
		return q.Continue(stComp, false, nodeLine(next))

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// HashTableProgram queries the chained hash table: HASH state first, then
// the bucket-head fetch, then the list walk (the "combined structure"
// treatment of Sec. III-A).
type HashTableProgram struct{}

func (HashTableProgram) TypeCode() uint8 { return dstruct.TypeHashTable }
func (HashTableProgram) Name() string    { return dstruct.TypeName(dstruct.TypeHashTable) }
func (HashTableProgram) NumStates() int  { return 5 }

func (p HashTableProgram) Step(q *Query, state StateID) Request {
	switch state {
	case StateStart:
		// Stage the key first; hashing needs it.
		return q.Continue(stHash, false, MemRead(q.KeyAddr, uint64(q.Header.KeyLen)))

	case stHash:
		// Hash the staged key, then fetch the bucket head pointer.
		slot := dstruct.HashBucketSlot(q.Header, q.Key)
		q.AltNode = slot
		return q.Continue(stNext, false,
			HashOp(uint64(q.Header.KeyLen)),
			MemRead(slot, 8))

	case stNext:
		var next mem.VAddr
		if q.Node == 0 && q.AltNode != 0 {
			// First entry: read the bucket head we just fetched.
			headU, err := q.AS.ReadU64(q.AltNode)
			if err != nil {
				return Fail(err)
			}
			next = mem.VAddr(headU)
			q.AltNode = 0
		} else {
			n, err := dstruct.ListNext(q.AS, q.Node)
			if err != nil {
				return Fail(err)
			}
			next = n
		}
		q.Node = next
		if next == 0 {
			return q.Finish(false, 0)
		}
		return q.Continue(stComp, false, nodeLine(next))

	case stComp:
		k, err := q.readStored(dstruct.ListKeyAddr(q.Node), int(q.Header.KeyLen))
		if err != nil {
			return Fail(err)
		}
		cmp := Compare(dstruct.ListKeyAddr(q.Node), uint64(q.Header.KeyLen))
		if bytes.Equal(k, q.Key) {
			v, err := dstruct.ListValue(q.AS, q.Node)
			if err != nil {
				return Fail(err)
			}
			return q.Finish(true, v, cmp)
		}
		return q.Continue(stNext, false, cmp)

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// CuckooProgram queries the DPDK-style two-choice bucketed table: hash,
// fetch bucket 1, compare its entries; on miss fetch bucket 2 ("6 will
// load the next entry from the same bucket", Sec. III-A, with the
// alternative bucket as the final fallback).
type CuckooProgram struct{}

func (CuckooProgram) TypeCode() uint8 { return dstruct.TypeCuckoo }
func (CuckooProgram) Name() string    { return dstruct.TypeName(dstruct.TypeCuckoo) }
func (CuckooProgram) NumStates() int  { return 5 }

func (p CuckooProgram) Step(q *Query, state StateID) Request {
	bucketBytes := dstruct.CuckooBucketSize(int(q.Header.KeyLen), int(q.Header.Subtype))
	switch state {
	case StateStart:
		return q.Continue(stHash, false, MemRead(q.KeyAddr, uint64(q.Header.KeyLen)))

	case stHash:
		h1, h2 := dstruct.CuckooHashes(q.Key, q.Header.Aux2, q.Header.Aux)
		q.Node = dstruct.EntryAddr(q.Header, h1, 0)
		q.AltNode = dstruct.EntryAddr(q.Header, h2, 0)
		q.Level = 0 // probing bucket 1
		return q.Continue(stComp, false, HashOp(uint64(q.Header.KeyLen)))

	case stComp:
		// Compare the key against BOTH candidate buckets concurrently,
		// WITHOUT fetching them into the QST: the buckets hold no
		// pointers the CEE needs, so the comparisons run where the data
		// lives — on the comparators in the CHAs owning the buckets
		// (Sec. V-A); the two buckets usually hash to different slices,
		// so the probes proceed in parallel, as HALO's and DPDK's own
		// two-choice lookups do. Schemes without remote comparators
		// fetch the buckets instead (the engine decides).
		v, found, err := cuckooFindIn(q, q.Node)
		if err != nil {
			return Fail(err)
		}
		if !found {
			v, found, err = cuckooFindIn(q, q.AltNode)
			if err != nil {
				return Fail(err)
			}
		}
		req := q.Continue(StateDone, true, Compare(q.Node, bucketBytes), Compare(q.AltNode, bucketBytes))
		req.Found, req.Value = found, v
		return req

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// SkipListProgram descends the tower with </> comparisons steering the
// traversal direction (the "slight modification to the comparison state"
// of Sec. III-A).
type SkipListProgram struct{}

func (SkipListProgram) TypeCode() uint8 { return dstruct.TypeSkipList }
func (SkipListProgram) Name() string    { return dstruct.TypeName(dstruct.TypeSkipList) }
func (SkipListProgram) NumStates() int  { return 4 }

func (p SkipListProgram) Step(q *Query, state StateID) Request {
	switch state {
	case StateStart:
		q.Node = q.Header.Root
		q.Level = int(q.Header.Aux) - 1
		return q.Continue(stNext, true,
			MemRead(q.KeyAddr, uint64(q.Header.KeyLen)),
			nodeLine(q.Node))

	case stNext:
		// Fetch the forward pointer at the current level and the node it
		// leads to.
		slot := dstruct.SkipNextSlot(q.Node, q.Level)
		nextU, err := q.AS.ReadU64(slot)
		if err != nil {
			return Fail(err)
		}
		next := mem.VAddr(nextU)
		if next == 0 {
			if q.Level == 0 {
				return q.Finish(false, 0, MemRead(slot, 8))
			}
			q.Level--
			return q.Continue(stNext, false, MemRead(slot, 8))
		}
		q.AltNode = next
		return q.Continue(stComp, false, MemRead(slot, 8), nodeLine(next))

	case stComp:
		next := q.AltNode
		nh, err := dstruct.SkipHeight(q.AS, next)
		if err != nil {
			return Fail(err)
		}
		keyAddr := dstruct.SkipKeyAddr(next, nh)
		stored, err := q.readStored(keyAddr, int(q.Header.KeyLen))
		if err != nil {
			return Fail(err)
		}
		cmp := Compare(keyAddr, uint64(q.Header.KeyLen))
		c := bytes.Compare(stored, q.Key)
		switch {
		case c < 0:
			q.Node = next
			return q.Continue(stNext, false, cmp)
		case c == 0 && q.Level == 0:
			v, err := dstruct.SkipValue(q.AS, next)
			if err != nil {
				return Fail(err)
			}
			return q.Finish(true, v, cmp)
		default:
			if q.Level == 0 {
				if c == 0 {
					// Found above level 0: confirm at level 0 next pass.
					v, err := dstruct.SkipValue(q.AS, next)
					if err != nil {
						return Fail(err)
					}
					return q.Finish(true, v, cmp)
				}
				return q.Finish(false, 0, cmp)
			}
			q.Level--
			return q.Continue(stNext, false, cmp)
		}

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// BSTProgram walks the object tree with three-way comparisons.
type BSTProgram struct{}

func (BSTProgram) TypeCode() uint8 { return dstruct.TypeBST }
func (BSTProgram) Name() string    { return dstruct.TypeName(dstruct.TypeBST) }
func (BSTProgram) NumStates() int  { return 4 }

func (p BSTProgram) Step(q *Query, state StateID) Request {
	payload := int(q.Header.Aux)
	switch state {
	case StateStart:
		q.Node = q.Header.Root
		if q.Node == 0 {
			return q.Finish(false, 0)
		}
		// Node header line plus the key's lines (payload pushes the key
		// beyond the first line — the multi-access node of the JVM tree).
		return q.Continue(stComp, true,
			MemRead(q.KeyAddr, uint64(q.Header.KeyLen)),
			nodeLine(q.Node),
			MemRead(dstruct.BSTKeyAddr(q.Node, payload), uint64(q.Header.KeyLen)))

	case stComp:
		keyAddr := dstruct.BSTKeyAddr(q.Node, payload)
		stored, err := q.readStored(keyAddr, int(q.Header.KeyLen))
		if err != nil {
			return Fail(err)
		}
		cmp := Compare(keyAddr, uint64(q.Header.KeyLen))
		c := bytes.Compare(q.Key, stored)
		if c == 0 {
			v, err := dstruct.BSTValue(q.AS, q.Node)
			if err != nil {
				return Fail(err)
			}
			return q.Finish(true, v, cmp)
		}
		childU, err := q.AS.ReadU64(dstruct.BSTChildSlot(q.Node, c > 0))
		if err != nil {
			return Fail(err)
		}
		q.Node = mem.VAddr(childU)
		if q.Node == 0 {
			return q.Finish(false, 0, cmp)
		}
		return q.Continue(stComp, false,
			cmp,
			nodeLine(q.Node),
			MemRead(dstruct.BSTKeyAddr(q.Node, payload), uint64(q.Header.KeyLen)))

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// TrieProgram scans an input string (the staged "key") through the
// Aho-Corasick automaton. Between MEM.N and COMP it runs the INDEX state
// searching the node's edge table (Sec. III-A). The scan finishes when
// the input is exhausted; the result is the last match value (all match
// values accumulate in q.Matches).
type TrieProgram struct{}

func (TrieProgram) TypeCode() uint8 { return dstruct.TypeTrie }
func (TrieProgram) Name() string    { return dstruct.TypeName(dstruct.TypeTrie) }
func (TrieProgram) NumStates() int  { return 5 }

func (p TrieProgram) Step(q *Query, state StateID) Request {
	switch state {
	case StateStart:
		q.Node = q.Header.Root
		q.Pos = 0
		// Stage the whole input string (its lines stream in) and the root.
		return q.Continue(stIndex, true,
			MemRead(q.KeyAddr, uint64(len(q.Key))),
			nodeLine(q.Node))

	case stIndex:
		if q.Pos >= len(q.Key) {
			var last uint64
			if n := len(q.Matches); n > 0 {
				last = q.Matches[n-1]
			}
			return q.Finish(len(q.Matches) > 0, last)
		}
		b := q.Key[q.Pos]
		var slotBuf [8]mem.VAddr
		child, probes, slots, err := dstruct.TrieFindEdgeProbes(q.AS, q.Node, b, slotBuf[:0])
		if err != nil {
			return Fail(err)
		}
		// Index-table search: probed edge slots live in the node's lines
		// (dense nodes: one slot line; sparse: the binary-search probes).
		// Charge one memory micro-op per distinct probed line beyond the
		// node header, plus a compare per probe.
		var opBuf [8]Op
		ops := opBuf[:0]
		for _, s := range slots {
			if l := s.Line(); !readsLine(ops, l) {
				ops = append(ops, MemRead(l, 8))
			}
		}
		ops = append(ops, Compare(q.Node+24, uint64(probes)*8))
		if child != 0 {
			q.Node = child
			q.Pos++
			out, err := dstruct.TrieOutput(q.AS, child)
			if err != nil {
				return Fail(err)
			}
			if out != 0 {
				q.Matches = append(q.Matches, out)
			}
			return q.Continue(stIndex, false, append(ops, nodeLine(child))...)
		}
		if q.Node == q.Header.Root {
			q.Pos++ // no edge from root: consume the byte
			return q.Continue(stIndex, false, ops...)
		}
		fl, err := dstruct.TrieFail(q.AS, q.Node)
		if err != nil {
			return Fail(err)
		}
		q.Node = fl
		return q.Continue(stIndex, false, append(ops, nodeLine(fl))...)

	default:
		return Fail(errBadState(p.Name(), state))
	}
}

// BTreeProgram descends a B+-tree: each level fetches one node and runs
// an INDEX-style binary search over its separators — the "Meet the
// walkers" traversal expressed as a CFA. Inner levels route; the leaf
// level compares for the exact match.
type BTreeProgram struct{}

// TypeCode implements Program.
func (BTreeProgram) TypeCode() uint8 { return dstruct.TypeBTree }

// Name implements Program.
func (BTreeProgram) Name() string { return dstruct.TypeName(dstruct.TypeBTree) }

// NumStates implements Program.
func (BTreeProgram) NumStates() int { return 3 }

// Step implements Program.
func (p BTreeProgram) Step(q *Query, state StateID) Request {
	switch state {
	case StateStart:
		q.Node = q.Header.Root
		if q.Node == 0 {
			return q.Finish(false, 0)
		}
		nodeBytes := uint64(16) + (uint64((int(q.Header.KeyLen)+7)&^7)+8)*uint64(q.Header.Subtype)
		return q.Continue(stIndex, true,
			MemRead(q.KeyAddr, uint64(q.Header.KeyLen)),
			MemRead(q.Node, nodeBytes))

	case stIndex:
		ptr, leaf, found, probes, err := dstruct.BTreeSearchNode(q.AS, q.Node, int(q.Header.KeyLen), q.Key, q.compareBuf(int(q.Header.KeyLen)))
		if err != nil {
			return Fail(err)
		}
		// The binary search compares `probes` separator keys against the
		// staged key; the node's lines were fetched by the previous
		// transition, so the comparison is local to the staged data.
		cmp := Compare(q.Node+16, uint64(probes)*uint64(q.Header.KeyLen))
		if leaf {
			return q.Finish(found, ptr, cmp)
		}
		q.Node = mem.VAddr(ptr)
		if q.Node == 0 {
			return q.Finish(false, 0, cmp)
		}
		nodeBytes := uint64(16) + (uint64((int(q.Header.KeyLen)+7)&^7)+8)*uint64(q.Header.Subtype)
		return q.Continue(stIndex, false, cmp, MemRead(q.Node, nodeBytes))

	default:
		return Fail(errBadState(p.Name(), state))
	}
}
