package dstruct

import (
	"bytes"
	"fmt"

	"qei/internal/mem"
)

// B+-tree — the index structure of in-memory databases (the paper's
// related work accelerates exactly these traversals in "Meet the
// walkers" [45]; the tree category of Sec. II-A includes them). Inner
// nodes hold sorted separator keys and child pointers; leaves hold
// sorted key/value pairs. All keys are fixed-length.
//
// Node layout (one allocation per node, line-aligned):
//
//	offset 0:  kind (1 B: 0 inner, 1 leaf) | pad (1 B) | count (2 B) | pad (4 B)
//	offset 8:  for leaves: next-leaf pointer (8 B); inner: first child (8 B)
//	offset 16: entries
//	  inner: count entries of [key (KeyLen, padded to 8) | child (8 B)]
//	         — child i covers keys >= key i (first child covers the rest)
//	  leaf:  count entries of [key (KeyLen, padded to 8) | value (8 B)]
const (
	btreeOffKind    = 0
	btreeOffCount   = 2
	btreeOffLink    = 8
	btreeOffEntries = 16

	btreeKindInner = 0
	btreeKindLeaf  = 1
)

// BTree is the host handle to a simulated B+-tree.
type BTree struct {
	HeaderAddr mem.VAddr
	Root       mem.VAddr
	KeyLen     uint16
	Fanout     int
	Height     int
	Len        int
	// Upkeep counts the node splits and merges the software mutators
	// (btree_update.go) performed and the nodes they retired.
	Upkeep
}

// btreeEntrySize returns the stride of one node entry.
func btreeEntrySize(keyLen int) uint64 {
	return uint64((keyLen+7)&^7) + 8
}

// btreeNodeSize returns a node's allocation size for the given fanout.
func btreeNodeSize(keyLen, fanout int) uint64 {
	sz := uint64(btreeOffEntries) + btreeEntrySize(keyLen)*uint64(fanout)
	return (sz + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// BTreeEntryAddr returns the address of entry i in a node.
func BTreeEntryAddr(node mem.VAddr, keyLen, i int) mem.VAddr {
	return node + btreeOffEntries + mem.VAddr(uint64(i)*btreeEntrySize(keyLen))
}

// BTreeNodeMeta reads a node's kind and entry count.
func BTreeNodeMeta(as *mem.AddressSpace, node mem.VAddr) (leaf bool, count int, err error) {
	var buf [4]byte
	if err := as.Read(node, buf[:]); err != nil {
		return false, 0, err
	}
	return buf[0] == btreeKindLeaf, int(uint16(buf[2]) | uint16(buf[3])<<8), nil
}

// BuildBTree bulk-loads sorted keys into a B+-tree with the given fanout
// (entries per node). Keys are sorted internally; duplicates are
// rejected by construction (genUnique inputs upstream).
func BuildBTree(as *mem.AddressSpace, fanout int, keys [][]byte, values []uint64) *BTree {
	if len(keys) != len(values) {
		panic("dstruct: keys/values length mismatch")
	}
	if fanout < 2 {
		panic("dstruct: B+-tree fanout must be >= 2")
	}
	keyLen := 0
	if len(keys) > 0 {
		keyLen = len(keys[0])
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sortIdxByKey(idx, keys)

	entrySize := btreeEntrySize(keyLen)
	writeEntry := func(node mem.VAddr, i int, key []byte, ptr uint64) {
		ea := BTreeEntryAddr(node, keyLen, i)
		as.MustWrite(ea, key)
		as.MustWrite(ea+mem.VAddr(uint64((keyLen+7)&^7)), encodeU64(ptr))
	}
	writeMeta := func(node mem.VAddr, leaf bool, count int) {
		var buf [4]byte
		if leaf {
			buf[0] = btreeKindLeaf
		}
		buf[2] = byte(count)
		buf[3] = byte(count >> 8)
		as.MustWrite(node, buf[:])
	}
	_ = entrySize

	// Build the leaf level.
	type levelNode struct {
		addr mem.VAddr
		// sep is the smallest key in the subtree (router key upward).
		sep []byte
	}
	var level []levelNode
	var prevLeaf mem.VAddr
	for start := 0; start < len(idx); start += fanout {
		end := start + fanout
		if end > len(idx) {
			end = len(idx)
		}
		node := as.Alloc(btreeNodeSize(keyLen, fanout), mem.LineSize)
		writeMeta(node, true, end-start)
		for i := start; i < end; i++ {
			k := keys[idx[i]]
			if len(k) != keyLen {
				panic("dstruct: inconsistent key lengths in B+-tree")
			}
			writeEntry(node, i-start, k, values[idx[i]])
		}
		if prevLeaf != 0 {
			as.MustWrite(prevLeaf+btreeOffLink, encodeU64(uint64(node)))
		}
		prevLeaf = node
		level = append(level, levelNode{addr: node, sep: keys[idx[start]]})
	}
	height := 1

	// Build inner levels until a single root remains.
	for len(level) > 1 {
		var next []levelNode
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			node := as.Alloc(btreeNodeSize(keyLen, fanout), mem.LineSize)
			// First child in the link slot, separators for the rest.
			writeMeta(node, false, end-start-1)
			as.MustWrite(node+btreeOffLink, encodeU64(uint64(level[start].addr)))
			for i := start + 1; i < end; i++ {
				writeEntry(node, i-start-1, level[i].sep, uint64(level[i].addr))
			}
			next = append(next, levelNode{addr: node, sep: level[start].sep})
		}
		level = next
		height++
	}

	var root mem.VAddr
	if len(level) == 1 {
		root = level[0].addr
	}
	hdr := Header{
		Root:    root,
		Type:    TypeBTree,
		Subtype: uint8(fanout),
		KeyLen:  uint16(keyLen),
		Size:    uint64(len(keys)),
		Aux:     uint64(height),
	}
	return &BTree{
		HeaderAddr: WriteHeader(as, hdr),
		Root:       root,
		KeyLen:     uint16(keyLen),
		Fanout:     fanout,
		Height:     height,
		Len:        len(keys),
	}
}

// BTreeSearchNode finds, within one node, the entry governing key: for
// leaves the matching entry (or -1), for inner nodes the child to
// descend into. It returns the child/value, whether it's a leaf match,
// and the number of entries probed (binary search). Each probed
// separator is read into buf, which is grown to keyLen bytes only when
// its capacity is short, so a caller that keeps buf allocates nothing.
func BTreeSearchNode(as *mem.AddressSpace, node mem.VAddr, keyLen int, key, buf []byte) (ptr uint64, leaf bool, found bool, probes int, err error) {
	leaf, count, err := BTreeNodeMeta(as, node)
	if err != nil {
		return 0, false, false, 0, err
	}
	if cap(buf) < keyLen {
		buf = make([]byte, keyLen)
	}
	buf = buf[:keyLen]
	readKeyAt := func(i int) ([]byte, error) {
		return buf, as.Read(BTreeEntryAddr(node, keyLen, i), buf)
	}
	readPtr := func(i int) (uint64, error) {
		return as.ReadU64(BTreeEntryAddr(node, keyLen, i) + mem.VAddr(uint64((keyLen+7)&^7)))
	}
	if leaf {
		lo, hi := 0, count-1
		for lo <= hi {
			mid := (lo + hi) / 2
			probes++
			k, err := readKeyAt(mid)
			if err != nil {
				return 0, leaf, false, probes, err
			}
			switch c := bytes.Compare(k, key); {
			case c == 0:
				v, err := readPtr(mid)
				return v, leaf, err == nil, probes, err
			case c < 0:
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
		return 0, leaf, false, probes, nil
	}
	// Inner: find the rightmost separator <= key; descend its child, or
	// the link (first child) when key precedes all separators.
	lo, hi, best := 0, count-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		probes++
		k, err := readKeyAt(mid)
		if err != nil {
			return 0, leaf, false, probes, err
		}
		if bytes.Compare(k, key) <= 0 {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best == -1 {
		first, err := as.ReadU64(node + btreeOffLink)
		return first, leaf, false, probes, err
	}
	child, err := readPtr(best)
	return child, leaf, false, probes, err
}

// QueryBTreeRef is the host-side reference lookup.
func QueryBTreeRef(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (uint64, bool, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, false, err
	}
	if h.Type != TypeBTree {
		return 0, false, fmt.Errorf("dstruct: header is %s, want btree", TypeName(h.Type))
	}
	node := h.Root
	buf := make([]byte, h.KeyLen)
	for i := 0; node != 0 && i <= int(h.Aux); i++ {
		ptr, leaf, found, _, err := BTreeSearchNode(as, node, int(h.KeyLen), key, buf)
		if err != nil {
			return 0, false, err
		}
		if leaf {
			return ptr, found, nil
		}
		node = mem.VAddr(ptr)
	}
	return 0, false, nil
}
