package qei

import "math/bits"

// stampMap is a map from uint64 keys (virtual lines, pages, key hashes)
// to uint64 values, built for working sets that are emptied far more
// often than they are filled: an attempt's translations and staged
// lines, a batch round's fetch set. It is an open-addressing table with
// linear probing whose slots carry the generation that wrote them, so
// a lookup costs O(1) and reset costs O(1) whatever size the table has
// grown to — reset only advances the generation, which turns every
// slot of the previous one into an empty slot. The table is never
// iterated, so nothing observable depends on where a key lands.
type stampMap struct {
	slots []stampSlot
	gen   uint32 // generation of the live slots; 0 only before first use
	live  int    // keys of the current generation
	shift uint   // 64 - log2(len(slots))
}

type stampSlot struct {
	key uint64
	val uint64
	gen uint32
}

// stampMinSlots is the capacity of a table's first allocation.
const stampMinSlots = 16

// reset empties the table in O(1).
func (t *stampMap) reset() {
	t.live = 0
	t.gen++
	if t.gen == 0 {
		// The generation wrapped: slots stamped 2^32 resets ago would
		// look live again, so wipe them once.
		clear(t.slots)
		t.gen = 1
	}
}

// find returns the slot holding key, or the empty slot where key would
// go. The table must have slots.
func (t *stampMap) find(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the top bits of key·2^64/φ spread the aligned,
	// clustered addresses walks produce.
	for i := int((key * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// get returns key's value and whether key is present.
func (t *stampMap) get(key uint64) (uint64, bool) {
	if t.live == 0 {
		return 0, false
	}
	if i, ok := t.find(key); ok {
		return t.slots[i].val, true
	}
	return 0, false
}

// has reports whether key is present.
func (t *stampMap) has(key uint64) bool {
	_, ok := t.get(key)
	return ok
}

// put sets key's value, reporting whether key was absent.
func (t *stampMap) put(key, val uint64) bool {
	i, added := t.insert(key)
	t.slots[i].val = val
	return added
}

// add inserts key into the set, reporting whether it was absent.
func (t *stampMap) add(key uint64) bool {
	_, added := t.insert(key)
	return added
}

// insert returns key's slot, claiming an empty one (value 0) when key
// is absent.
func (t *stampMap) insert(key uint64) (int, bool) {
	if 4*(t.live+1) > 3*len(t.slots) {
		t.grow()
	}
	i, ok := t.find(key)
	if !ok {
		t.slots[i] = stampSlot{key: key, gen: t.gen}
		t.live++
	}
	return i, !ok
}

// grow doubles the table and moves the live keys over, restarting the
// generation count on the fresh slots.
func (t *stampMap) grow() {
	old, oldGen := t.slots, t.gen
	n := 2 * len(old)
	if n < stampMinSlots {
		n = stampMinSlots
	}
	t.slots = make([]stampSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.gen, t.live = 1, 0
	for _, s := range old {
		if s.gen == oldGen && oldGen != 0 {
			i, _ := t.find(s.key)
			t.slots[i] = stampSlot{key: s.key, val: s.val, gen: t.gen}
			t.live++
		}
	}
}
