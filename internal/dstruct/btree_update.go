package dstruct

import (
	"bytes"
	"encoding/binary"

	"qei/internal/mem"
)

// B+-tree software mutators: insert with leaf/inner splits and delete
// with borrow-else-merge, the split/merge churn the streaming workload
// exercises. Like every mutator in this package the routines run in
// host software against the simulated bytes; new nodes come from the
// Reclaimer and unlinked nodes are retired to it.
//
// Invariants maintained (matching BuildBTree's bulk-loaded shape):
//   - inner nodes hold at most Fanout-1 separators (Fanout children),
//     leaves at most Fanout entries;
//   - child i of an inner node covers keys >= separator i, the link
//     child covers keys below every separator;
//   - leaves form a singly linked chain through their link slots;
//   - the header's Root, Size, and Aux (height) fields track every
//     structural change, since both the reference walker and the
//     accelerator CFA start from the header.

// btNode is one node's bytes staged in host memory for mutation.
type btNode struct {
	addr   mem.VAddr
	keyLen int
	fanout int
	buf    []byte
}

func (t *BTree) loadNode(as *mem.AddressSpace, addr mem.VAddr) (*btNode, error) {
	n := &btNode{
		addr:   addr,
		keyLen: int(t.KeyLen),
		fanout: t.Fanout,
		buf:    make([]byte, btreeNodeSize(int(t.KeyLen), t.Fanout)),
	}
	if err := as.Read(addr, n.buf); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *btNode) store(as *mem.AddressSpace) { as.MustWrite(n.addr, n.buf) }

func (n *btNode) leaf() bool { return n.buf[btreeOffKind] == btreeKindLeaf }

func (n *btNode) setLeaf(v bool) {
	if v {
		n.buf[btreeOffKind] = btreeKindLeaf
	} else {
		n.buf[btreeOffKind] = btreeKindInner
	}
}

func (n *btNode) count() int {
	return int(binary.LittleEndian.Uint16(n.buf[btreeOffCount:]))
}

func (n *btNode) setCount(c int) {
	binary.LittleEndian.PutUint16(n.buf[btreeOffCount:], uint16(c))
}

func (n *btNode) link() mem.VAddr {
	return mem.VAddr(binary.LittleEndian.Uint64(n.buf[btreeOffLink:]))
}

func (n *btNode) setLink(a mem.VAddr) {
	binary.LittleEndian.PutUint64(n.buf[btreeOffLink:], uint64(a))
}

func (n *btNode) entryOff(i int) int {
	return btreeOffEntries + i*int(btreeEntrySize(n.keyLen))
}

func (n *btNode) key(i int) []byte {
	off := n.entryOff(i)
	return n.buf[off : off+n.keyLen]
}

func (n *btNode) ptr(i int) uint64 {
	return binary.LittleEndian.Uint64(n.buf[n.entryOff(i)+(n.keyLen+7)&^7:])
}

func (n *btNode) setEntry(i int, key []byte, ptr uint64) {
	off := n.entryOff(i)
	copy(n.buf[off:off+n.keyLen], key)
	binary.LittleEndian.PutUint64(n.buf[off+(n.keyLen+7)&^7:], ptr)
}

// insertEntry shifts entries i.. one slot right and writes (key, ptr)
// at i. The caller checks capacity.
func (n *btNode) insertEntry(i int, key []byte, ptr uint64) {
	esz := int(btreeEntrySize(n.keyLen))
	base := n.entryOff(i)
	copy(n.buf[base+esz:n.entryOff(n.count()+1)], n.buf[base:n.entryOff(n.count())])
	n.setEntry(i, key, ptr)
	n.setCount(n.count() + 1)
}

// removeEntry shifts entries i+1.. one slot left over i.
func (n *btNode) removeEntry(i int) {
	copy(n.buf[n.entryOff(i):], n.buf[n.entryOff(i+1):n.entryOff(n.count())])
	n.setCount(n.count() - 1)
}

// child returns child i of an inner node, where child 0 is the link
// slot and child i (i >= 1) is entry i-1's pointer.
func (n *btNode) child(i int) mem.VAddr {
	if i == 0 {
		return n.link()
	}
	return mem.VAddr(n.ptr(i - 1))
}

// childIndexFor returns the index (0 = link child) of the child
// covering key: one past the rightmost separator <= key.
func (n *btNode) childIndexFor(key []byte) int {
	idx := 0
	for i := 0; i < n.count(); i++ {
		if bytes.Compare(n.key(i), key) <= 0 {
			idx = i + 1
		} else {
			break
		}
	}
	return idx
}

func (t *BTree) nodeSize() uint64 { return btreeNodeSize(int(t.KeyLen), t.Fanout) }

func (t *BTree) newNode(as *mem.AddressSpace, al mem.Allocator, leaf bool) *btNode {
	n := &btNode{
		addr:   al.Alloc(t.nodeSize(), mem.LineSize),
		keyLen: int(t.KeyLen),
		fanout: t.Fanout,
		buf:    make([]byte, t.nodeSize()),
	}
	n.setLeaf(leaf)
	return n
}

// writeHeaderBack publishes Root/Size/Aux after a structural change.
func (t *BTree) writeHeaderBack(as *mem.AddressSpace) error {
	hdr, err := ReadHeader(as, t.HeaderAddr)
	if err != nil {
		return err
	}
	hdr.Root = t.Root
	hdr.Size = uint64(t.Len)
	hdr.Aux = uint64(t.Height)
	// An empty bulk load had no keys to take the length from; the first
	// insert fixes the header's KeyLen along with the root.
	hdr.KeyLen = t.KeyLen
	EncodeHeader(as, t.HeaderAddr, hdr)
	return nil
}

// Insert adds or updates key in the tree, splitting nodes as needed.
func (t *BTree) Insert(as *mem.AddressSpace, gc Reclaimer, key []byte, value uint64) error {
	if err := checkKeyLen(key, t.KeyLen); err != nil {
		return err
	}
	if t.Root == 0 {
		n := t.newNode(as, gc, true)
		n.setEntry(0, key, value)
		n.setCount(1)
		n.store(as)
		t.Root = n.addr
		t.Height = 1
		t.Len = 1
		return t.writeHeaderBack(as)
	}

	promoKey, promoRight, grew, err := t.insertRec(as, gc, t.Root, key, value)
	if err != nil {
		return err
	}
	if promoRight != 0 {
		// Root split: a fresh inner root with the old root as link child.
		root := t.newNode(as, gc, false)
		root.setLink(t.Root)
		root.setEntry(0, promoKey, uint64(promoRight))
		root.setCount(1)
		root.store(as)
		t.Root = root.addr
		t.Height++
	}
	if grew {
		t.Len++
	}
	if grew || promoRight != 0 {
		return t.writeHeaderBack(as)
	}
	return nil
}

// insertRec descends to the leaf, inserting on the way back up. A
// non-zero promoRight means node split: promoKey/promoRight must be
// inserted into the parent.
func (t *BTree) insertRec(as *mem.AddressSpace, al mem.Allocator, addr mem.VAddr, key []byte, value uint64) (promoKey []byte, promoRight mem.VAddr, grew bool, err error) {
	n, err := t.loadNode(as, addr)
	if err != nil {
		return nil, 0, false, err
	}

	if n.leaf() {
		pos := 0
		for pos < n.count() {
			c := bytes.Compare(n.key(pos), key)
			if c == 0 {
				n.setEntry(pos, key, value) // update in place
				n.store(as)
				return nil, 0, false, nil
			}
			if c > 0 {
				break
			}
			pos++
		}
		if n.count() < t.Fanout {
			n.insertEntry(pos, key, value)
			n.store(as)
			return nil, 0, true, nil
		}
		// Leaf split: stage the fanout+1 entries, keep the lower half.
		keys, ptrs := n.stageInsert(pos, key, value)
		half := (len(keys) + 1) / 2
		right := t.newNode(as, al, true)
		right.setLink(n.link())
		for i := half; i < len(keys); i++ {
			right.setEntry(i-half, keys[i], ptrs[i])
		}
		right.setCount(len(keys) - half)
		right.store(as)
		n.setLink(right.addr)
		for i := 0; i < half; i++ {
			n.setEntry(i, keys[i], ptrs[i])
		}
		n.setCount(half)
		n.store(as)
		t.Splits++
		return append([]byte(nil), keys[half]...), right.addr, true, nil
	}

	idx := n.childIndexFor(key)
	promoKey, promoRight, grew, err = t.insertRec(as, al, n.child(idx), key, value)
	if err != nil || promoRight == 0 {
		return nil, 0, grew, err
	}
	// Insert the promoted separator right after the descended child.
	if n.count() < t.Fanout-1 {
		n.insertEntry(idx, promoKey, uint64(promoRight))
		n.store(as)
		return nil, 0, grew, nil
	}
	// Inner split: children c[0..m], separators s[0..m-1] after the
	// conceptual insert; the middle separator moves up.
	seps, childs := n.stageInnerInsert(idx, promoKey, promoRight)
	mid := len(seps) / 2
	right := t.newNode(as, al, false)
	right.setLink(childs[mid+1])
	for i := mid + 1; i < len(seps); i++ {
		right.setEntry(i-mid-1, seps[i], uint64(childs[i+1]))
	}
	right.setCount(len(seps) - mid - 1)
	right.store(as)
	n.setLink(childs[0])
	for i := 0; i < mid; i++ {
		n.setEntry(i, seps[i], uint64(childs[i+1]))
	}
	n.setCount(mid)
	n.store(as)
	t.Splits++
	return append([]byte(nil), seps[mid]...), right.addr, grew, nil
}

// stageInsert returns the leaf's entries with (key, ptr) inserted at
// pos, as host-side copies.
func (n *btNode) stageInsert(pos int, key []byte, ptr uint64) ([][]byte, []uint64) {
	keys := make([][]byte, 0, n.count()+1)
	ptrs := make([]uint64, 0, n.count()+1)
	for i := 0; i < n.count(); i++ {
		if i == pos {
			keys = append(keys, append([]byte(nil), key...))
			ptrs = append(ptrs, ptr)
		}
		keys = append(keys, append([]byte(nil), n.key(i)...))
		ptrs = append(ptrs, n.ptr(i))
	}
	if pos == n.count() {
		keys = append(keys, append([]byte(nil), key...))
		ptrs = append(ptrs, ptr)
	}
	return keys, ptrs
}

// stageInnerInsert returns the inner node's separators and children
// with (sep, child) inserted after child position idx.
func (n *btNode) stageInnerInsert(idx int, sep []byte, child mem.VAddr) ([][]byte, []mem.VAddr) {
	seps := make([][]byte, 0, n.count()+1)
	childs := make([]mem.VAddr, 0, n.count()+2)
	childs = append(childs, n.link())
	for i := 0; i < n.count(); i++ {
		seps = append(seps, append([]byte(nil), n.key(i)...))
		childs = append(childs, mem.VAddr(n.ptr(i)))
	}
	// The new separator slots in at separator index idx (child idx+1).
	seps = append(seps, nil)
	copy(seps[idx+1:], seps[idx:])
	seps[idx] = append([]byte(nil), sep...)
	childs = append(childs, 0)
	copy(childs[idx+2:], childs[idx+1:])
	childs[idx+1] = child
	return seps, childs
}

// Delete removes key, rebalancing with borrow-else-merge, and retires
// the nodes the rebalance unlinked (merged-away siblings, a collapsed
// root).
func (t *BTree) Delete(as *mem.AddressSpace, gc Reclaimer, key []byte) (bool, error) {
	if err := checkKeyLen(key, t.KeyLen); err != nil {
		return false, err
	}
	if t.Root == 0 {
		return false, nil
	}
	var freed []mem.Extent
	found, _, err := t.deleteRec(as, t.Root, key, &freed)
	if err != nil || !found {
		return false, err
	}
	t.Len--

	// Collapse the root while it is an inner node with a single child.
	for {
		root, err := t.loadNode(as, t.Root)
		if err != nil {
			return false, err
		}
		if root.leaf() || root.count() > 0 {
			break
		}
		freed = append(freed, mem.Extent{Addr: t.Root, Size: t.nodeSize()})
		t.Root = root.link()
		t.Height--
	}
	err = t.writeHeaderBack(as)
	t.retire(gc, freed...)
	return true, err
}

// deleteRec removes key under addr, reporting whether the node is now
// underfull (the parent rebalances it).
func (t *BTree) deleteRec(as *mem.AddressSpace, addr mem.VAddr, key []byte, freed *[]mem.Extent) (found, underflow bool, err error) {
	n, err := t.loadNode(as, addr)
	if err != nil {
		return false, false, err
	}
	if n.leaf() {
		for i := 0; i < n.count(); i++ {
			if bytes.Equal(n.key(i), key) {
				n.removeEntry(i)
				n.store(as)
				return true, n.count() < t.minLeaf(), nil
			}
		}
		return false, false, nil
	}

	idx := n.childIndexFor(key)
	found, childUnder, err := t.deleteRec(as, n.child(idx), key, freed)
	if err != nil || !found {
		return found, false, err
	}
	if childUnder {
		if err := t.rebalanceChild(as, n, idx, freed); err != nil {
			return false, false, err
		}
	}
	return true, n.count() < t.minSep(), nil
}

// minLeaf and minSep are the underflow thresholds: half-full leaves,
// half the separator capacity for inner nodes. Sized so a merge of an
// underfull node with a non-lendable sibling always fits.
func (t *BTree) minLeaf() int { return t.Fanout / 2 }
func (t *BTree) minSep() int  { return (t.Fanout - 1) / 2 }

// rebalanceChild fixes underfull child pos of parent p: borrow one
// entry from an adjacent sibling that can spare it, else merge the
// child with a sibling. p is stored back; the caller re-checks p's own
// occupancy.
func (t *BTree) rebalanceChild(as *mem.AddressSpace, p *btNode, pos int, freed *[]mem.Extent) error {
	c, err := t.loadNode(as, p.child(pos))
	if err != nil {
		return err
	}
	min := t.minLeaf()
	if !c.leaf() {
		min = t.minSep()
	}

	var left, right *btNode
	if pos > 0 {
		if left, err = t.loadNode(as, p.child(pos-1)); err != nil {
			return err
		}
	}
	if pos < p.count() {
		if right, err = t.loadNode(as, p.child(pos+1)); err != nil {
			return err
		}
	}

	switch {
	case left != nil && left.count() > min:
		t.borrowFromLeft(p, pos, left, c)
		left.store(as)
		c.store(as)
		p.store(as)
	case right != nil && right.count() > min:
		t.borrowFromRight(p, pos, c, right)
		right.store(as)
		c.store(as)
		p.store(as)
	case left != nil:
		t.mergeInto(p, pos-1, left, c)
		left.store(as)
		p.store(as)
		*freed = append(*freed, mem.Extent{Addr: c.addr, Size: t.nodeSize()})
		t.Merges++
	case right != nil:
		t.mergeInto(p, pos, c, right)
		c.store(as)
		p.store(as)
		*freed = append(*freed, mem.Extent{Addr: right.addr, Size: t.nodeSize()})
		t.Merges++
	}
	return nil
}

// borrowFromLeft moves left's last entry into c (child pos of p). The
// separator between them is p's entry pos-1.
func (t *BTree) borrowFromLeft(p *btNode, pos int, left, c *btNode) {
	last := left.count() - 1
	if c.leaf() {
		c.insertEntry(0, left.key(last), left.ptr(last))
		p.setEntry(pos-1, c.key(0), p.ptr(pos-1))
	} else {
		// Rotate through the parent: the separator comes down in front
		// of c's children, left's last separator goes up.
		c.insertEntry(0, p.key(pos-1), uint64(c.link()))
		c.setLink(mem.VAddr(left.ptr(last)))
		p.setEntry(pos-1, left.key(last), p.ptr(pos-1))
	}
	left.removeEntry(last)
}

// borrowFromRight moves right's first entry into c (child pos of p).
// The separator between them is p's entry pos.
func (t *BTree) borrowFromRight(p *btNode, pos int, c, right *btNode) {
	if c.leaf() {
		c.insertEntry(c.count(), right.key(0), right.ptr(0))
		right.removeEntry(0)
		p.setEntry(pos, right.key(0), p.ptr(pos))
	} else {
		c.insertEntry(c.count(), p.key(pos), uint64(right.link()))
		p.setEntry(pos, right.key(0), p.ptr(pos))
		right.setLink(mem.VAddr(right.ptr(0)))
		right.removeEntry(0)
	}
}

// mergeInto folds right into left, where left is child sepIdx of p and
// right is child sepIdx+1; p's entry sepIdx (the separator and the
// pointer to right) disappears.
func (t *BTree) mergeInto(p *btNode, sepIdx int, left, right *btNode) {
	if left.leaf() {
		base := left.count()
		for i := 0; i < right.count(); i++ {
			left.setEntry(base+i, right.key(i), right.ptr(i))
		}
		left.setCount(base + right.count())
		left.setLink(right.link()) // keep the leaf chain intact
	} else {
		base := left.count()
		left.setEntry(base, p.key(sepIdx), uint64(right.link()))
		for i := 0; i < right.count(); i++ {
			left.setEntry(base+1+i, right.key(i), right.ptr(i))
		}
		left.setCount(base + 1 + right.count())
	}
	p.removeEntry(sepIdx)
}
