// Package dstruct lays queryable data structures out in the simulated
// address space and provides host-side reference implementations used to
// verify both the software-baseline walkers and the QEI accelerator.
//
// Every structure is fronted by the single-cacheline (64 B) metadata
// header of Fig. 4: the software populates it once, and the accelerator's
// CFA parses it as the first step of every query (Sec. III-B). Keys are
// arbitrary byte strings and query results are 64-bit values (in real
// applications, pointers to the actual data — Sec. III).
//
// Layouts are little-endian and cacheline-conscious: node sizes and field
// offsets are chosen the way a performance-tuned C implementation would
// choose them, because the number of cachelines touched per query step is
// precisely what the paper's evaluation measures.
package dstruct

import (
	"encoding/binary"
	"fmt"

	"qei/internal/mem"
)

// Type codes for the header's type field, one per supported CFA
// (Sec. III-A: each data structure gets a distinct configurable finite
// automaton; combined structures get their own subtype).
const (
	TypeInvalid    uint8 = 0
	TypeLinkedList uint8 = 1
	TypeHashTable  uint8 = 2 // chained hash table
	TypeCuckoo     uint8 = 3 // DPDK-style two-choice bucketed cuckoo
	TypeSkipList   uint8 = 4
	TypeBST        uint8 = 5 // binary search tree / object tree
	TypeTrie       uint8 = 6 // Aho-Corasick automaton
	TypeBTree      uint8 = 7 // B+-tree
)

// typeNames is indexed by type code.
var typeNames = [...]string{
	TypeInvalid:    "invalid",
	TypeLinkedList: "linkedlist",
	TypeHashTable:  "hashtable",
	TypeCuckoo:     "cuckoo",
	TypeSkipList:   "skiplist",
	TypeBST:        "bst",
	TypeTrie:       "trie",
	TypeBTree:      "btree",
}

// TypeName returns a printable name for a header type code: the
// built-in structure's name, or "type<code>" for any other code.
func TypeName(t uint8) string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type%d", t)
}

// HeaderSize is the metadata header size: one cacheline (Fig. 4).
const HeaderSize = mem.LineSize

// Header field offsets within the 64 B block.
const (
	hdrOffRoot    = 0  // 8 B pointer to the data structure
	hdrOffType    = 8  // 1 B type
	hdrOffSubtype = 9  // 1 B subtype (e.g. bucket entries)
	hdrOffKeyLen  = 10 // 2 B key length
	hdrOffFlags   = 12 // 4 B flags
	hdrOffSize    = 16 // 8 B element count / capacity
	hdrOffAux     = 24 // 8 B structure-specific (bucket count, levels, ...)
	hdrOffAux2    = 32 // 8 B structure-specific (hash seed, ...)
	// 40..63 reserved for future extension
)

// Header is the decoded form of the Fig. 4 metadata block.
type Header struct {
	Root    mem.VAddr // pointer to the data structure
	Type    uint8     // data structure type (selects the CFA)
	Subtype uint8     // e.g. entries per bucket for hash tables
	KeyLen  uint16    // length of stored keys in bytes
	Flags   uint32
	Size    uint64 // element count (static structures) or capacity
	Aux     uint64 // structure-specific: bucket count, max level, ...
	Aux2    uint64 // structure-specific: hash seed, ...
}

// WriteHeader allocates a cacheline-aligned header block, encodes h into
// it, and returns its address.
func WriteHeader(as *mem.AddressSpace, h Header) mem.VAddr {
	addr := as.Alloc(HeaderSize, mem.LineSize)
	EncodeHeader(as, addr, h)
	return addr
}

// EncodeHeader stores h at addr (which must be mapped).
func EncodeHeader(as *mem.AddressSpace, addr mem.VAddr, h Header) {
	var buf [HeaderSize]byte
	binary.LittleEndian.PutUint64(buf[hdrOffRoot:], uint64(h.Root))
	buf[hdrOffType] = h.Type
	buf[hdrOffSubtype] = h.Subtype
	binary.LittleEndian.PutUint16(buf[hdrOffKeyLen:], h.KeyLen)
	binary.LittleEndian.PutUint32(buf[hdrOffFlags:], h.Flags)
	binary.LittleEndian.PutUint64(buf[hdrOffSize:], h.Size)
	binary.LittleEndian.PutUint64(buf[hdrOffAux:], h.Aux)
	binary.LittleEndian.PutUint64(buf[hdrOffAux2:], h.Aux2)
	as.MustWrite(addr, buf[:])
}

// ReadHeader decodes the header at addr.
func ReadHeader(as *mem.AddressSpace, addr mem.VAddr) (Header, error) {
	var buf [HeaderSize]byte
	if err := as.Read(addr, buf[:]); err != nil {
		return Header{}, err
	}
	return Header{
		Root:    mem.VAddr(binary.LittleEndian.Uint64(buf[hdrOffRoot:])),
		Type:    buf[hdrOffType],
		Subtype: buf[hdrOffSubtype],
		KeyLen:  binary.LittleEndian.Uint16(buf[hdrOffKeyLen:]),
		Flags:   binary.LittleEndian.Uint32(buf[hdrOffFlags:]),
		Size:    binary.LittleEndian.Uint64(buf[hdrOffSize:]),
		Aux:     binary.LittleEndian.Uint64(buf[hdrOffAux:]),
		Aux2:    binary.LittleEndian.Uint64(buf[hdrOffAux2:]),
	}, nil
}

// readKey fetches keyLen bytes at addr.
func readKey(as *mem.AddressSpace, addr mem.VAddr, keyLen uint16) ([]byte, error) {
	k := make([]byte, keyLen)
	if err := as.Read(addr, k); err != nil {
		return nil, err
	}
	return k, nil
}

// Hash is the hashing primitive shared by the host-side builders, the
// software-baseline traces, and the accelerator's hashing unit
// (Sec. IV-B: "the hashing unit supports common hash functions").
// It is a 64-bit FNV-1a over the key bytes mixed with a seed.
func Hash(key []byte, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	// Final avalanche so low bits are usable as bucket indices.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// HashOps is the number of ALU/MulALU micro-ops a software implementation
// of Hash spends per 8 bytes of key (xor+mul per byte amortized to word
// granularity, plus the avalanche) — used by the baseline trace
// generators to charge realistic frontend work for hashing.
func HashOps(keyLen int) (alu, mul int) {
	words := (keyLen + 7) / 8
	return 2*words + 3, words + 2
}
