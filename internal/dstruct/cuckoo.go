package dstruct

import (
	"bytes"
	"fmt"

	"qei/internal/mem"
)

// DPDK-style two-choice bucketed cuckoo hash (the library behind the
// paper's DPDK L3-FIB benchmark, Sec. VI-B). The table is one array of
// buckets; each key has two candidate buckets derived from its hash and
// signature, and each bucket holds Subtype entries.
//
// Bucket layout (entries packed back to back, bucket padded to lines):
//
//	entry: occupied (1 B) | pad (7 B) | value (8 B) | key (KeyLen B)
//
// Header fields: Root = bucket array, Subtype = entries per bucket,
// Aux = bucket count (power of two), Aux2 = hash seed.

const (
	cuckooOffOccupied = 0
	cuckooOffValue    = 8
	cuckooOffKey      = 16
)

// CuckooEntrySize returns the stride of one bucket entry.
func CuckooEntrySize(keyLen int) uint64 {
	sz := uint64(cuckooOffKey + keyLen)
	return (sz + 7) &^ 7 // 8-byte aligned entries
}

// CuckooBucketSize returns the allocation stride of one bucket, padded to
// a cacheline multiple so each bucket read is a bounded number of lines.
func CuckooBucketSize(keyLen, entries int) uint64 {
	sz := CuckooEntrySize(keyLen) * uint64(entries)
	return (sz + mem.LineSize - 1) &^ (mem.LineSize - 1)
}

// Cuckoo is the host handle to a simulated cuckoo hash table.
type Cuckoo struct {
	HeaderAddr mem.VAddr
	Buckets    mem.VAddr
	NBuckets   uint64
	Entries    int
	Seed       uint64
	KeyLen     uint16
	Len        int
	// Upkeep counts online rehashes and the bucket arrays they retired.
	Upkeep
}

// CuckooHashes derives the two candidate bucket indices for key: the
// primary from the key hash, the alternative by mixing the signature, as
// the DPDK hash library does.
func CuckooHashes(key []byte, seed, nBuckets uint64) (h1, h2 uint64) {
	h := Hash(key, seed)
	sig := h >> 16
	h1 = h & (nBuckets - 1)
	h2 = (h1 ^ (sig * 0x5bd1e995)) & (nBuckets - 1)
	return h1, h2
}

// BuildCuckoo materializes a cuckoo table sized for the keys with the
// given entries-per-bucket, performing displacement ("kick") insertion.
// It panics if the table cannot place a key after a bounded kick chain —
// callers size nBuckets generously, as DPDK deployments do.
func BuildCuckoo(as *mem.AddressSpace, nBuckets uint64, entries int, seed uint64, keys [][]byte, values []uint64) *Cuckoo {
	if len(keys) != len(values) {
		panic("dstruct: keys/values length mismatch")
	}
	if entries <= 0 || entries > 255 {
		panic("dstruct: cuckoo entries per bucket must be 1..255")
	}
	nBuckets = ceilPow2(nBuckets)
	keyLen := 0
	if len(keys) > 0 {
		keyLen = len(keys[0])
	}
	bucketSize := CuckooBucketSize(keyLen, entries)
	arr := as.Alloc(nBuckets*bucketSize, mem.LineSize)

	c := &Cuckoo{
		Buckets:  arr,
		NBuckets: nBuckets,
		Entries:  entries,
		Seed:     seed,
		KeyLen:   uint16(keyLen),
	}

	for i, k := range keys {
		if len(k) != keyLen {
			panic("dstruct: inconsistent key lengths in cuckoo table")
		}
		if ok, _, _ := c.insert(as, k, values[i], 0); !ok {
			panic(fmt.Sprintf("dstruct: cuckoo insertion failed for key %d — table too full", i))
		}
		c.Len++
	}

	hdr := Header{
		Root:    arr,
		Type:    TypeCuckoo,
		Subtype: uint8(entries),
		KeyLen:  uint16(keyLen),
		Size:    uint64(len(keys)),
		Aux:     nBuckets,
		Aux2:    seed,
	}
	c.HeaderAddr = WriteHeader(as, hdr)
	return c
}

func (c *Cuckoo) entryAddr(bucket uint64, slot int) mem.VAddr {
	return c.Buckets + mem.VAddr(bucket*CuckooBucketSize(int(c.KeyLen), c.Entries)+uint64(slot)*CuckooEntrySize(int(c.KeyLen)))
}

// EntryAddr exposes entry addressing for the baseline/accelerator walkers.
func EntryAddr(h Header, bucket uint64, slot int) mem.VAddr {
	return h.Root + mem.VAddr(bucket*CuckooBucketSize(int(h.KeyLen), int(h.Subtype))+uint64(slot)*CuckooEntrySize(int(h.KeyLen)))
}

func (c *Cuckoo) readEntry(as *mem.AddressSpace, bucket uint64, slot int) (occupied bool, key []byte, value uint64) {
	ea := c.entryAddr(bucket, slot)
	occ, err := as.ReadU64(ea + cuckooOffOccupied)
	if err != nil {
		panic(err)
	}
	if occ&1 == 0 {
		return false, nil, 0
	}
	k, err := readKey(as, ea+cuckooOffKey, c.KeyLen)
	if err != nil {
		panic(err)
	}
	v, err := as.ReadU64(ea + cuckooOffValue)
	if err != nil {
		panic(err)
	}
	return true, k, v
}

func (c *Cuckoo) writeEntry(as *mem.AddressSpace, bucket uint64, slot int, key []byte, value uint64) {
	ea := c.entryAddr(bucket, slot)
	as.MustWrite(ea+cuckooOffOccupied, encodeU64(1))
	as.MustWrite(ea+cuckooOffValue, encodeU64(value))
	as.MustWrite(ea+cuckooOffKey, key)
}

const maxKicks = 128

// insert places key, displacing resident entries along a chain of at
// most maxKicks kicks. When the chain runs out it returns false with
// the entry it was still carrying: the key the caller passed is then in
// the table, and the returned entry is the one left without a slot.
func (c *Cuckoo) insert(as *mem.AddressSpace, key []byte, value uint64, depth int) (bool, []byte, uint64) {
	if depth > maxKicks {
		return false, key, value
	}
	h1, h2 := CuckooHashes(key, c.Seed, c.NBuckets)
	// Update in place if present; otherwise take any free slot.
	for _, b := range [2]uint64{h1, h2} {
		for s := 0; s < c.Entries; s++ {
			occ, k, _ := c.readEntry(as, b, s)
			if occ && bytes.Equal(k, key) {
				c.writeEntry(as, b, s, key, value)
				return true, nil, 0
			}
		}
	}
	for _, b := range [2]uint64{h1, h2} {
		for s := 0; s < c.Entries; s++ {
			if occ, _, _ := c.readEntry(as, b, s); !occ {
				c.writeEntry(as, b, s, key, value)
				return true, nil, 0
			}
		}
	}
	// Kick: displace a deterministic victim from the primary bucket.
	victimSlot := depth % c.Entries
	_, vk, vv := c.readEntry(as, h1, victimSlot)
	c.writeEntry(as, h1, victimSlot, key, value)
	return c.insert(as, vk, vv, depth+1)
}

// QueryCuckooRef is the host-side reference lookup: probe the two
// candidate buckets, compare occupied entries.
func QueryCuckooRef(as *mem.AddressSpace, headerAddr mem.VAddr, key []byte) (uint64, bool, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return 0, false, err
	}
	h1, h2 := CuckooHashes(key, h.Aux2, h.Aux)
	for _, b := range [2]uint64{h1, h2} {
		for s := 0; s < int(h.Subtype); s++ {
			ea := EntryAddr(h, b, s)
			occ, err := as.ReadU64(ea + cuckooOffOccupied)
			if err != nil {
				return 0, false, err
			}
			if occ&1 == 0 {
				continue
			}
			k, err := readKey(as, ea+cuckooOffKey, h.KeyLen)
			if err != nil {
				return 0, false, err
			}
			if bytes.Equal(k, key) {
				v, err := as.ReadU64(ea + cuckooOffValue)
				return v, err == nil, err
			}
		}
	}
	return 0, false, nil
}

// CuckooEntryFieldOffsets exposes the entry layout to walkers.
func CuckooEntryFieldOffsets() (occupied, value, key int) {
	return cuckooOffOccupied, cuckooOffValue, cuckooOffKey
}
