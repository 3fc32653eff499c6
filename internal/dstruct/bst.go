package dstruct

import (
	"bytes"
	"math/rand"

	"qei/internal/mem"
)

// Binary search tree, standing in for the JVM object tree (Sec. VI-B):
// the paper's JVM benchmark extracts OpenJDK's serial mark-and-sweep
// collector and queries the tree of live objects. Object-tree nodes are
// larger than a cacheline (object header + fields), so each visit costs
// multiple memory accesses — the paper measures 39.9 accesses per query
// on average.
//
// Node layout:
//
//	offset 0:   left child (8 B)
//	offset 8:   right child (8 B)
//	offset 16:  value (8 B)
//	offset 24:  object payload (PayloadBytes, inflates node footprint)
//	offset 24 + payload: key bytes (KeyLen)
const (
	bstOffLeft    = 0
	bstOffRight   = 8
	bstOffValue   = 16
	bstOffPayload = 24
)

// BST is the host handle to a simulated binary search tree.
type BST struct {
	HeaderAddr   mem.VAddr
	Root         mem.VAddr
	KeyLen       uint16
	PayloadBytes int
	Len          int
	// MaxDepth tracks the deepest node ever linked (builder and Insert
	// both maintain it); needsRebuild compares it against the scapegoat
	// bound. rebuild resets it to the balanced depth.
	MaxDepth int
	// Upkeep counts scapegoat rebuilds and the nodes updates retired.
	Upkeep
}

// bstNodeSize returns a node's allocation size.
func bstNodeSize(keyLen, payload int) uint64 {
	sz := uint64(bstOffPayload + payload + keyLen)
	return (sz + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// BSTKeyAddr returns the address of a node's key bytes.
func BSTKeyAddr(node mem.VAddr, payload int) mem.VAddr {
	return node + bstOffPayload + mem.VAddr(payload)
}

// BSTChildSlot returns the address of the left (0) or right (1) child
// pointer.
func BSTChildSlot(node mem.VAddr, right bool) mem.VAddr {
	if right {
		return node + bstOffRight
	}
	return node + bstOffLeft
}

// BSTValue reads a node's value.
func BSTValue(as *mem.AddressSpace, node mem.VAddr) (uint64, error) {
	return as.ReadU64(node + bstOffValue)
}

// BuildBST materializes the keys as an unbalanced binary search tree
// (insertion in shuffled order controlled by seed — mimicking allocation
// order of a real object graph, which is neither sorted nor balanced).
// payload is the per-node object body size in bytes; the header's Aux
// field records it so walkers know the key offset.
func BuildBST(as *mem.AddressSpace, seed int64, payload int, keys [][]byte, values []uint64) *BST {
	if len(keys) != len(values) {
		panic("dstruct: keys/values length mismatch")
	}
	keyLen := 0
	if len(keys) > 0 {
		keyLen = len(keys[0])
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(keys))
	var root mem.VAddr
	nodeSize := bstNodeSize(keyLen, payload)
	maxDepth := 0

	for _, i := range order {
		k := keys[i]
		if len(k) != keyLen {
			panic("dstruct: inconsistent key lengths in BST")
		}
		node := as.Alloc(nodeSize, mem.LineSize)
		as.MustWrite(node+bstOffValue, encodeU64(values[i]))
		as.MustWrite(BSTKeyAddr(node, payload), k)
		if root == 0 {
			root = node
			maxDepth = 1
			continue
		}
		cur := root
		depth := 1
		for {
			ck, err := readKey(as, BSTKeyAddr(cur, payload), uint16(keyLen))
			if err != nil {
				panic(err)
			}
			right := bytes.Compare(k, ck) > 0
			slot := BSTChildSlot(cur, right)
			childU, err := as.ReadU64(slot)
			if err != nil {
				panic(err)
			}
			depth++
			if childU == 0 {
				as.MustWrite(slot, encodeU64(uint64(node)))
				if depth > maxDepth {
					maxDepth = depth
				}
				break
			}
			cur = mem.VAddr(childU)
		}
	}

	hdr := Header{
		Root:   root,
		Type:   TypeBST,
		KeyLen: uint16(keyLen),
		Size:   uint64(len(keys)),
		Aux:    uint64(payload),
	}
	return &BST{
		HeaderAddr:   WriteHeader(as, hdr),
		Root:         root,
		KeyLen:       uint16(keyLen),
		PayloadBytes: payload,
		Len:          len(keys),
		MaxDepth:     maxDepth,
	}
}

// QueryBSTRef is the host-side reference lookup.
func QueryBSTRef(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (uint64, bool, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, false, err
	}
	payload := int(h.Aux)
	node := h.Root
	for node != 0 {
		k, err := readKey(as, BSTKeyAddr(node, payload), h.KeyLen)
		if err != nil {
			return 0, false, err
		}
		c := bytes.Compare(key, k)
		if c == 0 {
			v, err := BSTValue(as, node)
			return v, err == nil, err
		}
		childU, err := as.ReadU64(BSTChildSlot(node, c > 0))
		if err != nil {
			return 0, false, err
		}
		node = mem.VAddr(childU)
	}
	return 0, false, nil
}
