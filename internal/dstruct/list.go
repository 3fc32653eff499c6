package dstruct

import (
	"bytes"
	"encoding/binary"

	"qei/internal/mem"
)

// Linked-list node layout (List 1 of the paper, laid out for cacheline
// friendliness: pointers first, key inline so short keys share the node's
// first line):
//
//	offset 0:  next pointer (8 B, 0 = NULL)
//	offset 8:  value (8 B; in real applications a pointer to the data)
//	offset 16: key bytes (KeyLen)
const (
	listOffNext  = 0
	listOffValue = 8
	listOffKey   = 16
)

// ListNodeSize returns the allocation size for one node with keyLen keys,
// rounded to a cacheline so nodes never share lines (the malloc behaviour
// of a slab allocator for fixed-size nodes).
func ListNodeSize(keyLen int) uint64 {
	sz := uint64(listOffKey + keyLen)
	return (sz + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// LinkedList is the host handle to a simulated-memory linked list.
type LinkedList struct {
	HeaderAddr mem.VAddr
	Head       mem.VAddr
	KeyLen     uint16
	Len        int
	// Upkeep counts the nodes Delete retired.
	Upkeep
}

// BuildLinkedList materializes keys/values as a singly linked list in as,
// in the given order, and writes its Fig. 4 header. All keys must have
// identical length (the header records one KeyLen, as in the paper).
func BuildLinkedList(as *mem.AddressSpace, keys [][]byte, values []uint64) *LinkedList {
	if len(keys) != len(values) {
		panic("dstruct: keys/values length mismatch")
	}
	keyLen := 0
	if len(keys) > 0 {
		keyLen = len(keys[0])
	}
	nodeSize := ListNodeSize(keyLen)
	var head mem.VAddr
	var prev mem.VAddr
	for i, k := range keys {
		if len(k) != keyLen {
			panic("dstruct: inconsistent key lengths in linked list")
		}
		node := as.Alloc(nodeSize, mem.LineSize)
		if i == 0 {
			head = node
		} else {
			as.MustWrite(prev+listOffNext, encodeU64(uint64(node)))
		}
		as.MustWrite(node+listOffNext, encodeU64(0))
		as.MustWrite(node+listOffValue, encodeU64(values[i]))
		as.MustWrite(node+listOffKey, k)
		prev = node
	}
	hdr := Header{
		Root:   head,
		Type:   TypeLinkedList,
		KeyLen: uint16(keyLen),
		Size:   uint64(len(keys)),
	}
	return &LinkedList{
		HeaderAddr: WriteHeader(as, hdr),
		Head:       head,
		KeyLen:     uint16(keyLen),
		Len:        len(keys),
	}
}

// ListNext reads a node's next pointer.
func ListNext(as *mem.AddressSpace, node mem.VAddr) (mem.VAddr, error) {
	v, err := as.ReadU64(node + listOffNext)
	return mem.VAddr(v), err
}

// ListValue reads a node's value field.
func ListValue(as *mem.AddressSpace, node mem.VAddr) (uint64, error) {
	return as.ReadU64(node + listOffValue)
}

// ListKey reads a node's key.
func ListKey(as *mem.AddressSpace, node mem.VAddr, keyLen uint16) ([]byte, error) {
	return readKey(as, node+listOffKey, keyLen)
}

// ListKeyAddr returns the address of a node's key bytes.
func ListKeyAddr(node mem.VAddr) mem.VAddr { return node + listOffKey }

// QueryLinkedListRef is the host-side reference lookup: it walks the
// simulated bytes exactly as List 1 does and returns (value, found).
func QueryLinkedListRef(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (uint64, bool, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, false, err
	}
	node := h.Root
	for node != 0 {
		k, err := ListKey(as, node, h.KeyLen)
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(k, key) {
			v, err := ListValue(as, node)
			return v, err == nil, err
		}
		node, err = ListNext(as, node)
		if err != nil {
			return 0, false, err
		}
	}
	return 0, false, nil
}

func encodeU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}
