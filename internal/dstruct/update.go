package dstruct

import (
	"bytes"
	"errors"
	"fmt"

	"qei/internal/mem"
)

// Update operations. QEI accelerates queries only; inserts and deletes
// stay in software (Sec. IV-A: "Update operations (e.g., insert, delete)
// are still in software ... QEI targets read-intensive cases"). These
// routines work directly on the simulated bytes, so a query issued to
// the accelerator right after an update observes it — both sides read
// the same coherent memory, exactly the property the paper's
// cache-coherent integration provides.
//
// The five updatable layouts share one contract, Updatable: an
// upserting Insert and a Delete, both working through a Reclaimer.
// New nodes come from its Alloc, and every extent an update unlinks
// goes to its Retire instead of being freed, so an epoch-aware caller
// (internal/epoch) reuses the memory only once no in-flight query can
// still hold a pointer into it. Each structure runs its own
// maintenance — the cuckoo online rehash, the BST scapegoat rebuild,
// B+-tree splits and merges — and counts it in its Upkeep.

// ErrTableFull reports a cuckoo insertion that could not place its key
// after the bounded kick chain, even after online rehashes.
var ErrTableFull = errors.New("dstruct: cuckoo table full")

// Reclaimer is the memory an update works through: Alloc places new
// nodes and Retire takes the extents an update unlinked. *epoch.GC is
// one.
type Reclaimer interface {
	mem.Allocator
	Retire(mem.Extent)
}

// Updatable is the software update contract of the linked list, cuckoo
// table, skip list, BST and B+-tree. Insert adds key or, when it is
// present, replaces its value. Delete removes key and reports whether
// it was present.
type Updatable interface {
	Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error
	Delete(as *mem.AddressSpace, gc Reclaimer, key []byte) (bool, error)
	Counts() Upkeep
}

// Upkeep counts the maintenance a structure's updates ran: online
// cuckoo rehashes, BST scapegoat rebuilds, B+-tree node splits and
// merges, and the extents handed to the Reclaimer.
type Upkeep struct {
	Rehashes uint64
	Rebuilds uint64
	Splits   uint64
	Merges   uint64
	Retired  uint64
}

// Counts returns the maintenance counted so far.
func (u *Upkeep) Counts() Upkeep { return *u }

// retire hands unlinked extents to gc, in order, and counts them.
func (u *Upkeep) retire(gc Reclaimer, exts ...mem.Extent) {
	for _, e := range exts {
		gc.Retire(e)
		u.Retired++
	}
}

// checkKeyLen rejects a key whose length differs from the structure's.
func checkKeyLen(key []byte, keyLen uint16) error {
	if len(key) != int(keyLen) {
		return fmt.Errorf("dstruct: key length %d, structure stores %d", len(key), keyLen)
	}
	return nil
}

// Insert updates the value in place when key is present; otherwise it
// prepends a new node and republishes the head through the header.
func (l *LinkedList) Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := checkKeyLen(key, l.KeyLen); err != nil {
		return err
	}
	for node := l.Head; node != 0; {
		k, err := ListKey(as, node, l.KeyLen)
		if err != nil {
			return err
		}
		if bytes.Equal(k, key) {
			as.MustWrite(node+listOffValue, encodeU64(value))
			return nil
		}
		if node, err = ListNext(as, node); err != nil {
			return err
		}
	}
	node := gc.Alloc(ListNodeSize(int(l.KeyLen)), mem.LineSize)
	as.MustWrite(node+listOffNext, encodeU64(uint64(l.Head)))
	as.MustWrite(node+listOffValue, encodeU64(value))
	as.MustWrite(node+listOffKey, key)
	l.Head = node
	l.Len++
	hdr, err := ReadHeader(as, l.HeaderAddr)
	if err != nil {
		return err
	}
	hdr.Root = node
	hdr.Size = uint64(l.Len)
	EncodeHeader(as, l.HeaderAddr, hdr)
	return nil
}

// Delete unlinks the node holding key and retires it.
func (l *LinkedList) Delete(as *mem.AddressSpace, gc Reclaimer, key []byte) (bool, error) {
	var prev mem.VAddr
	node := l.Head
	for node != 0 {
		k, err := ListKey(as, node, l.KeyLen)
		if err != nil {
			return false, err
		}
		if bytes.Equal(k, key) {
			next, err := ListNext(as, node)
			if err != nil {
				return false, err
			}
			if prev == 0 {
				l.Head = next
				hdr, err := ReadHeader(as, l.HeaderAddr)
				if err != nil {
					return false, err
				}
				hdr.Root = next
				hdr.Size = uint64(l.Len - 1)
				EncodeHeader(as, l.HeaderAddr, hdr)
			} else {
				as.MustWrite(prev+listOffNext, encodeU64(uint64(next)))
			}
			l.Len--
			l.retire(gc, mem.Extent{Addr: node, Size: ListNodeSize(int(l.KeyLen))})
			return true, nil
		}
		prev = node
		node, err = ListNext(as, node)
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// cuckooMaxLoad is the load-factor ceiling that triggers an online
// rehash before the kick loop starts thrashing (DPDK resizes in the
// same regime).
const cuckooMaxLoad = 0.85

// Insert adds or updates a key in the cuckoo table, performing
// displacement as needed. It resizes online: a rehash to double the
// buckets runs when the load factor has reached the ceiling, and again,
// up to twice, when the kick chain runs out (bad luck on a dense
// table); the entry the chain left without a slot is placed in the
// larger table. Only then does it return ErrTableFull, with that entry
// lost.
func (c *Cuckoo) Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := checkKeyLen(key, c.KeyLen); err != nil {
		return err
	}
	if c.LoadFactor() >= cuckooMaxLoad {
		if err := c.rehash(as, gc); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		ok, homeless, v := c.insert(as, key, value, 0)
		if ok {
			break
		}
		if attempt >= 2 {
			return fmt.Errorf("%w (len %d, %d buckets)", ErrTableFull, c.Len, c.NBuckets)
		}
		if err := c.rehash(as, gc); err != nil {
			return err
		}
		key, value = homeless, v
	}
	c.Len++
	return nil
}

// Delete clears the entry holding key, reporting whether it existed.
// Entries live inside the bucket array, so deletion retires nothing.
func (c *Cuckoo) Delete(as *mem.AddressSpace, _ Reclaimer, key []byte) (bool, error) {
	h1, h2 := CuckooHashes(key, c.Seed, c.NBuckets)
	for _, b := range [2]uint64{h1, h2} {
		for s := 0; s < c.Entries; s++ {
			occ, k, _ := c.readEntry(as, b, s)
			if occ && bytes.Equal(k, key) {
				as.MustWrite(c.entryAddr(b, s)+cuckooOffOccupied, encodeU64(0))
				c.Len--
				return true, nil
			}
		}
	}
	return false, nil
}

// LoadFactor reports the table's fill ratio.
func (c *Cuckoo) LoadFactor() float64 {
	return float64(c.Len) / float64(c.NBuckets*uint64(c.Entries))
}

// rehash moves every entry into a fresh bucket array of twice the
// buckets — the online resize DPDK performs when the load factor
// breaches its threshold — and publishes it through the header. The
// array that is no longer reachable from the header is retired, never
// freed: the old one after a publish, so a query admitted against it
// finishes against it, or the abandoned new one when reinsertion
// overflows (for a doubling, practically impossible) and the table is
// left unchanged.
func (c *Cuckoo) rehash(as *mem.AddressSpace, gc Reclaimer) error {
	nBuckets := c.NBuckets * 2
	bucketSize := CuckooBucketSize(int(c.KeyLen), c.Entries)
	old := mem.Extent{Addr: c.Buckets, Size: c.NBuckets * bucketSize}

	var keys [][]byte
	var vals []uint64
	for b := uint64(0); b < c.NBuckets; b++ {
		for s := 0; s < c.Entries; s++ {
			if occ, k, v := c.readEntry(as, b, s); occ {
				keys = append(keys, k)
				vals = append(vals, v)
			}
		}
	}

	newArr := gc.Alloc(nBuckets*bucketSize, mem.LineSize)
	oldBuckets, oldN, oldLen := c.Buckets, c.NBuckets, c.Len
	c.Buckets, c.NBuckets, c.Len = newArr, nBuckets, 0
	for i, k := range keys {
		if ok, _, _ := c.insert(as, k, vals[i], 0); !ok {
			c.Buckets, c.NBuckets, c.Len = oldBuckets, oldN, oldLen
			c.retire(gc, mem.Extent{Addr: newArr, Size: nBuckets * bucketSize})
			return fmt.Errorf("%w during rehash to %d buckets", ErrTableFull, nBuckets)
		}
		c.Len++
	}

	// Publish the new array through the header; queries admitted from
	// here on probe the new buckets.
	hdr, err := ReadHeader(as, c.HeaderAddr)
	if err != nil {
		return err
	}
	hdr.Root = newArr
	hdr.Aux = nBuckets
	hdr.Size = uint64(c.Len)
	EncodeHeader(as, c.HeaderAddr, hdr)
	c.retire(gc, old)
	c.Rehashes++
	return nil
}

// Insert adds a key to the skip list with a tower height drawn from
// sl.Towers. The list remains sorted; duplicate keys update the existing
// node's value in place.
func (sl *SkipList) Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := checkKeyLen(key, sl.KeyLen); err != nil {
		return err
	}
	// Find predecessors at every level.
	update := make([]mem.VAddr, sl.MaxLevel)
	node := sl.Head
	for l := sl.MaxLevel - 1; l >= 0; l-- {
		for {
			nextU, err := as.ReadU64(SkipNextSlot(node, l))
			if err != nil {
				return err
			}
			next := mem.VAddr(nextU)
			if next == 0 {
				break
			}
			nh, err := SkipHeight(as, next)
			if err != nil {
				return err
			}
			nk, err := readKey(as, SkipKeyAddr(next, nh), sl.KeyLen)
			if err != nil {
				return err
			}
			c := bytes.Compare(nk, key)
			if c < 0 {
				node = next
				continue
			}
			if c == 0 {
				// Update in place.
				as.MustWrite(next+skipOffValue, encodeU64(value))
				return nil
			}
			break
		}
		update[l] = node
	}
	height := 1
	for height < sl.MaxLevel && sl.Towers.Intn(4) == 0 {
		height++
	}
	n := gc.Alloc(skipNodeSize(int(sl.KeyLen), height), mem.LineSize)
	as.MustWrite(n+skipOffHeight, encodeU64(uint64(height)))
	as.MustWrite(n+skipOffValue, encodeU64(value))
	as.MustWrite(SkipKeyAddr(n, height), key)
	for l := 0; l < height; l++ {
		prevNextU, err := as.ReadU64(SkipNextSlot(update[l], l))
		if err != nil {
			return err
		}
		as.MustWrite(SkipNextSlot(n, l), encodeU64(prevNextU))
		as.MustWrite(SkipNextSlot(update[l], l), encodeU64(uint64(n)))
	}
	sl.Len++
	return nil
}

// Delete unlinks the node holding key from every level it appears on
// and retires it.
func (sl *SkipList) Delete(as *mem.AddressSpace, gc Reclaimer, key []byte) (bool, error) {
	if err := checkKeyLen(key, sl.KeyLen); err != nil {
		return false, err
	}
	update := make([]mem.VAddr, sl.MaxLevel)
	node := sl.Head
	for l := sl.MaxLevel - 1; l >= 0; l-- {
		for {
			nextU, err := as.ReadU64(SkipNextSlot(node, l))
			if err != nil {
				return false, err
			}
			next := mem.VAddr(nextU)
			if next == 0 {
				break
			}
			nh, err := SkipHeight(as, next)
			if err != nil {
				return false, err
			}
			nk, err := readKey(as, SkipKeyAddr(next, nh), sl.KeyLen)
			if err != nil {
				return false, err
			}
			if bytes.Compare(nk, key) < 0 {
				node = next
				continue
			}
			break
		}
		update[l] = node
	}
	targetU, err := as.ReadU64(SkipNextSlot(update[0], 0))
	if err != nil {
		return false, err
	}
	target := mem.VAddr(targetU)
	if target == 0 {
		return false, nil
	}
	th, err := SkipHeight(as, target)
	if err != nil {
		return false, err
	}
	tk, err := readKey(as, SkipKeyAddr(target, th), sl.KeyLen)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(tk, key) {
		return false, nil
	}
	for l := 0; l < th; l++ {
		nextU, err := as.ReadU64(SkipNextSlot(target, l))
		if err != nil {
			return false, err
		}
		as.MustWrite(SkipNextSlot(update[l], l), encodeU64(nextU))
	}
	sl.Len--
	sl.retire(gc, mem.Extent{Addr: target, Size: skipNodeSize(int(sl.KeyLen), th)})
	return true, nil
}

// Insert adds a key to the BST without rebalancing — an object graph
// grows by allocation order — and then, when the tree has degenerated
// past the scapegoat depth bound, rebuilds it balanced.
func (b *BST) Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := b.link(as, gc, key, value); err != nil {
		return err
	}
	if b.needsRebuild() {
		return b.rebuild(as, gc)
	}
	return nil
}

// link inserts key at its leaf position, or updates it in place.
func (b *BST) link(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := checkKeyLen(key, b.KeyLen); err != nil {
		return err
	}
	if b.Root == 0 {
		node := gc.Alloc(bstNodeSize(int(b.KeyLen), b.PayloadBytes), mem.LineSize)
		as.MustWrite(node+bstOffValue, encodeU64(value))
		as.MustWrite(BSTKeyAddr(node, b.PayloadBytes), key)
		b.Root = node
		hdr, err := ReadHeader(as, b.HeaderAddr)
		if err != nil {
			return err
		}
		hdr.Root = node
		EncodeHeader(as, b.HeaderAddr, hdr)
		b.Len++
		if b.MaxDepth < 1 {
			b.MaxDepth = 1
		}
		return nil
	}
	cur := b.Root
	depth := 1
	for {
		ck, err := readKey(as, BSTKeyAddr(cur, b.PayloadBytes), b.KeyLen)
		if err != nil {
			return err
		}
		c := bytes.Compare(key, ck)
		if c == 0 {
			as.MustWrite(cur+bstOffValue, encodeU64(value))
			return nil
		}
		slot := BSTChildSlot(cur, c > 0)
		childU, err := as.ReadU64(slot)
		if err != nil {
			return err
		}
		depth++
		if childU == 0 {
			node := gc.Alloc(bstNodeSize(int(b.KeyLen), b.PayloadBytes), mem.LineSize)
			as.MustWrite(node+bstOffValue, encodeU64(value))
			as.MustWrite(BSTKeyAddr(node, b.PayloadBytes), key)
			as.MustWrite(slot, encodeU64(uint64(node)))
			b.Len++
			if depth > b.MaxDepth {
				b.MaxDepth = depth
			}
			return nil
		}
		cur = mem.VAddr(childU)
	}
}

// Delete removes key from the BST by the classic delete-by-copy:
// a two-child node receives its in-order successor's key and value and
// the successor node is spliced out, and retired, instead.
func (b *BST) Delete(as *mem.AddressSpace, gc Reclaimer, key []byte) (bool, error) {
	if err := checkKeyLen(key, b.KeyLen); err != nil {
		return false, err
	}
	var parent mem.VAddr
	var fromRight bool
	cur := b.Root
	for cur != 0 {
		ck, err := readKey(as, BSTKeyAddr(cur, b.PayloadBytes), b.KeyLen)
		if err != nil {
			return false, err
		}
		c := bytes.Compare(key, ck)
		if c == 0 {
			break
		}
		parent, fromRight = cur, c > 0
		childU, err := as.ReadU64(BSTChildSlot(cur, c > 0))
		if err != nil {
			return false, err
		}
		cur = mem.VAddr(childU)
	}
	if cur == 0 {
		return false, nil
	}
	leftU, err := as.ReadU64(BSTChildSlot(cur, false))
	if err != nil {
		return false, err
	}
	rightU, err := as.ReadU64(BSTChildSlot(cur, true))
	if err != nil {
		return false, err
	}

	var victim mem.VAddr
	if leftU != 0 && rightU != 0 {
		// Two children: splice out the in-order successor after copying
		// its key and value into cur.
		sparent, s := cur, mem.VAddr(rightU)
		for {
			slU, err := as.ReadU64(BSTChildSlot(s, false))
			if err != nil {
				return false, err
			}
			if slU == 0 {
				break
			}
			sparent, s = s, mem.VAddr(slU)
		}
		sk, err := readKey(as, BSTKeyAddr(s, b.PayloadBytes), b.KeyLen)
		if err != nil {
			return false, err
		}
		sv, err := BSTValue(as, s)
		if err != nil {
			return false, err
		}
		as.MustWrite(BSTKeyAddr(cur, b.PayloadBytes), sk)
		as.MustWrite(cur+bstOffValue, encodeU64(sv))
		srU, err := as.ReadU64(BSTChildSlot(s, true))
		if err != nil {
			return false, err
		}
		// The successor is its parent's left child unless it is cur's
		// immediate right child.
		as.MustWrite(BSTChildSlot(sparent, sparent == cur), encodeU64(srU))
		victim = s
	} else {
		child := leftU | rightU // at most one is non-zero
		if parent == 0 {
			b.Root = mem.VAddr(child)
			hdr, err := ReadHeader(as, b.HeaderAddr)
			if err != nil {
				return false, err
			}
			hdr.Root = mem.VAddr(child)
			EncodeHeader(as, b.HeaderAddr, hdr)
		} else {
			as.MustWrite(BSTChildSlot(parent, fromRight), encodeU64(child))
		}
		victim = cur
	}
	b.Len--
	b.retire(gc, mem.Extent{Addr: victim, Size: bstNodeSize(int(b.KeyLen), b.PayloadBytes)})
	return true, nil
}

// needsRebuild reports whether the tree has degenerated past the
// scapegoat bound — max depth above twice the balanced depth — and a
// rebuild would pay off.
func (b *BST) needsRebuild() bool {
	if b.Len < 8 {
		return false
	}
	balanced := 0
	for n := b.Len; n > 0; n >>= 1 {
		balanced++
	}
	return b.MaxDepth > 2*balanced
}

// rebuild replaces the whole tree with a perfectly balanced copy built
// from fresh nodes — the scapegoat-style whole-tree rebalance Insert
// runs when needsRebuild fires — and retires every old node: in-flight
// queries keep traversing the old nodes until reclamation, while
// queries admitted after the header write see the balanced tree.
func (b *BST) rebuild(as *mem.AddressSpace, gc Reclaimer) error {
	nodeSize := bstNodeSize(int(b.KeyLen), b.PayloadBytes)
	type kv struct {
		key   []byte
		value uint64
	}
	var items []kv
	var old []mem.Extent
	// Iterative in-order traversal.
	var stack []mem.VAddr
	cur := b.Root
	for cur != 0 || len(stack) > 0 {
		for cur != 0 {
			stack = append(stack, cur)
			lU, err := as.ReadU64(BSTChildSlot(cur, false))
			if err != nil {
				return err
			}
			cur = mem.VAddr(lU)
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k, err := readKey(as, BSTKeyAddr(n, b.PayloadBytes), b.KeyLen)
		if err != nil {
			return err
		}
		v, err := BSTValue(as, n)
		if err != nil {
			return err
		}
		items = append(items, kv{key: k, value: v})
		old = append(old, mem.Extent{Addr: n, Size: nodeSize})
		rU, err := as.ReadU64(BSTChildSlot(n, true))
		if err != nil {
			return err
		}
		cur = mem.VAddr(rU)
	}

	var buildRange func(lo, hi int) mem.VAddr
	buildRange = func(lo, hi int) mem.VAddr {
		if lo > hi {
			return 0
		}
		mid := (lo + hi) / 2
		node := gc.Alloc(nodeSize, mem.LineSize)
		as.MustWrite(node+bstOffValue, encodeU64(items[mid].value))
		as.MustWrite(BSTKeyAddr(node, b.PayloadBytes), items[mid].key)
		as.MustWrite(BSTChildSlot(node, false), encodeU64(uint64(buildRange(lo, mid-1))))
		as.MustWrite(BSTChildSlot(node, true), encodeU64(uint64(buildRange(mid+1, hi))))
		return node
	}
	root := buildRange(0, len(items)-1)

	hdr, err := ReadHeader(as, b.HeaderAddr)
	if err != nil {
		return err
	}
	hdr.Root = root
	hdr.Size = uint64(len(items))
	EncodeHeader(as, b.HeaderAddr, hdr)
	b.Root = root
	b.Len = len(items)
	depth := 0
	for n := len(items); n > 0; n >>= 1 {
		depth++
	}
	b.MaxDepth = depth
	b.retire(gc, old...)
	b.Rebuilds++
	return nil
}
