package dstruct

import (
	"bytes"
	"math/rand"
	"sort"

	"qei/internal/mem"
)

// Skip list (the RocksDB memtable structure, Sec. VI-B). Keys are sorted
// byte strings; the list keeps multiple levels of forward pointers so a
// query can skip nodes during traversal [65].
//
// Node layout:
//
//	offset 0:              height (8 B)
//	offset 8:              value (8 B)
//	offset 16:             next[0..height-1] (8 B each)
//	offset 16 + 8*height:  key bytes (KeyLen)
//
// The head node is a full-height node with an all-zero key that holds no
// value. Header fields: Root = head node, Aux = max level, KeyLen, Size.

const (
	skipOffHeight = 0
	skipOffValue  = 8
	skipOffNext   = 16
)

// SkipMaxLevel is the tallest tower the builder creates (RocksDB uses 12).
const SkipMaxLevel = 12

// SkipList is the host handle to a simulated skip list.
type SkipList struct {
	HeaderAddr mem.VAddr
	Head       mem.VAddr
	MaxLevel   int
	KeyLen     uint16
	Len        int
	// Towers draws the tower heights of inserted nodes; the caller sets
	// it before the first Insert.
	Towers *rand.Rand
	Upkeep
}

// skipNodeSize returns the allocation size for a node of the given height.
func skipNodeSize(keyLen, height int) uint64 {
	sz := uint64(skipOffNext + 8*height + keyLen)
	return (sz + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// SkipNextSlot returns the address of a node's level-l forward pointer.
func SkipNextSlot(node mem.VAddr, l int) mem.VAddr {
	return node + skipOffNext + mem.VAddr(8*l)
}

// SkipKeyAddr returns the address of a node's key, given its height.
func SkipKeyAddr(node mem.VAddr, height int) mem.VAddr {
	return node + skipOffNext + mem.VAddr(8*height)
}

// SkipHeight reads a node's height.
func SkipHeight(as *mem.AddressSpace, node mem.VAddr) (int, error) {
	h, err := as.ReadU64(node + skipOffHeight)
	return int(h), err
}

// SkipValue reads a node's value.
func SkipValue(as *mem.AddressSpace, node mem.VAddr) (uint64, error) {
	return as.ReadU64(node + skipOffValue)
}

// BuildSkipList materializes the given keys (must be unique; builder
// sorts them) with geometric tower heights from the deterministic seed.
func BuildSkipList(as *mem.AddressSpace, seed int64, keys [][]byte, values []uint64) *SkipList {
	if len(keys) != len(values) {
		panic("dstruct: keys/values length mismatch")
	}
	keyLen := 0
	if len(keys) > 0 {
		keyLen = len(keys[0])
	}
	// Sort key/value pairs by key.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sortIdxByKey(idx, keys)

	rng := rand.New(rand.NewSource(seed))
	head := as.Alloc(skipNodeSize(keyLen, SkipMaxLevel), mem.LineSize)
	as.MustWrite(head+skipOffHeight, encodeU64(SkipMaxLevel))
	// update[l] tracks the rightmost node at level l during construction.
	update := make([]mem.VAddr, SkipMaxLevel)
	for l := range update {
		update[l] = head
	}

	for _, i := range idx {
		k := keys[i]
		if len(k) != keyLen {
			panic("dstruct: inconsistent key lengths in skip list")
		}
		height := 1
		for height < SkipMaxLevel && rng.Intn(4) == 0 { // RocksDB branching 1/4
			height++
		}
		node := as.Alloc(skipNodeSize(keyLen, height), mem.LineSize)
		as.MustWrite(node+skipOffHeight, encodeU64(uint64(height)))
		as.MustWrite(node+skipOffValue, encodeU64(values[i]))
		as.MustWrite(SkipKeyAddr(node, height), k)
		for l := 0; l < height; l++ {
			as.MustWrite(SkipNextSlot(update[l], l), encodeU64(uint64(node)))
			update[l] = node
		}
	}

	hdr := Header{
		Root:   head,
		Type:   TypeSkipList,
		KeyLen: uint16(keyLen),
		Size:   uint64(len(keys)),
		Aux:    SkipMaxLevel,
	}
	return &SkipList{
		HeaderAddr: WriteHeader(as, hdr),
		Head:       head,
		MaxLevel:   SkipMaxLevel,
		KeyLen:     uint16(keyLen),
		Len:        len(keys),
	}
}

func sortIdxByKey(idx []int, keys [][]byte) {
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0
	})
}

// QuerySkipListRef is the host-side reference lookup (RocksDB-style
// seek + exact match).
func QuerySkipListRef(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (uint64, bool, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, false, err
	}
	node := h.Root
	for l := int(h.Aux) - 1; l >= 0; l-- {
		for {
			nextU, err := as.ReadU64(SkipNextSlot(node, l))
			if err != nil {
				return 0, false, err
			}
			next := mem.VAddr(nextU)
			if next == 0 {
				break
			}
			nh, err := SkipHeight(as, next)
			if err != nil {
				return 0, false, err
			}
			nk, err := readKey(as, SkipKeyAddr(next, nh), h.KeyLen)
			if err != nil {
				return 0, false, err
			}
			c := bytes.Compare(nk, key)
			if c < 0 {
				node = next
				continue
			}
			if c == 0 && l == 0 {
				v, err := SkipValue(as, next)
				return v, err == nil, err
			}
			break
		}
	}
	return 0, false, nil
}
