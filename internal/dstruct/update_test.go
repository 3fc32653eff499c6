package dstruct

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"qei/internal/mem"
)

func TestListInsertFrontAndRemove(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	keys, vals := genKeys(10, 16, 1)
	l := BuildLinkedList(as, keys, vals)

	newKey := bytes.Repeat([]byte{0x42}, 16)
	if err := l.Insert(as, gc, newKey, 999); err != nil {
		t.Fatal(err)
	}
	v, found, err := QueryLinkedListRef(as, l.HeaderAddr, newKey)
	if err != nil || !found || v != 999 {
		t.Fatalf("inserted key: v=%d found=%v err=%v", v, found, err)
	}
	// Header must have been republished with the new root.
	hdr, _ := ReadHeader(as, l.HeaderAddr)
	if hdr.Root != l.Head || hdr.Size != 11 {
		t.Fatalf("header not updated: %+v vs head %#x", hdr, uint64(l.Head))
	}
	// Upserting a present key rewrites its node: no new head, no growth.
	head := l.Head
	if err := l.Insert(as, gc, keys[3], 31337); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := QueryLinkedListRef(as, l.HeaderAddr, keys[3]); v != 31337 || l.Head != head || l.Len != 11 {
		t.Fatalf("upsert: value %d, head moved %v, len %d", v, l.Head != head, l.Len)
	}

	// Remove a middle key.
	ok, err := l.Delete(as, gc, keys[5])
	if err != nil || !ok {
		t.Fatalf("remove failed: %v %v", ok, err)
	}
	if _, found, _ := QueryLinkedListRef(as, l.HeaderAddr, keys[5]); found {
		t.Fatal("removed key still found")
	}
	// Remove the (new) head.
	ok, err = l.Delete(as, gc, newKey)
	if err != nil || !ok {
		t.Fatalf("head remove failed: %v %v", ok, err)
	}
	if _, found, _ := QueryLinkedListRef(as, l.HeaderAddr, newKey); found {
		t.Fatal("removed head still found")
	}
	// Absent key removal is a no-op.
	if ok, _ := l.Delete(as, gc, bytes.Repeat([]byte{0xEE}, 16)); ok {
		t.Fatal("absent key reported removed")
	}
	if len(gc.retired) != 2 || l.Retired != 2 {
		t.Fatalf("two deletes retired %d extents, counted %d", len(gc.retired), l.Retired)
	}
}

func TestListWrongKeyLengthRejected(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(3, 16, 2)
	l := BuildLinkedList(as, keys, vals)
	if err := l.Insert(as, &keepGC{AddressSpace: as}, []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestCuckooInsertDelete(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	keys, vals := genKeys(100, 16, 3)
	c := BuildCuckoo(as, 128, 4, 7, keys, vals)

	extra, extraVals := genKeys(50, 16, 77)
	for i, k := range extra {
		if err := c.Insert(as, gc, k, extraVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range extra {
		v, found, _ := QueryCuckooRef(as, c.HeaderAddr, k)
		if !found || v != extraVals[i] {
			t.Fatalf("inserted key %d missing", i)
		}
	}
	// Delete half the originals and verify.
	for i := 0; i < 50; i++ {
		ok, err := c.Delete(as, gc, keys[i])
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, found, _ := QueryCuckooRef(as, c.HeaderAddr, keys[i]); found {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	for i := 50; i < 100; i++ {
		v, found, _ := QueryCuckooRef(as, c.HeaderAddr, keys[i])
		if !found || v != vals[i] {
			t.Fatalf("undeleted key %d lost", i)
		}
	}
	if ok, _ := c.Delete(as, gc, bytes.Repeat([]byte{9}, 16)); ok {
		t.Fatal("absent delete reported success")
	}
}

// TestCuckooInsertRehashesInsteadOfOverflow fills a one-bucket table:
// Insert doubles the bucket array online, retiring each old one, rather
// than reporting ErrTableFull.
func TestCuckooInsertRehashesInsteadOfOverflow(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	keys, vals := genKeys(32, 16, 4)
	c := BuildCuckoo(as, 1, 4, 7, keys[:4], vals[:4])
	for i := 4; i < 32; i++ {
		if err := c.Insert(as, gc, keys[i], vals[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if c.Rehashes == 0 || c.LoadFactor() >= cuckooMaxLoad {
		t.Fatalf("%d rehashes, load factor %.2f", c.Rehashes, c.LoadFactor())
	}
	if uint64(len(gc.retired)) != c.Rehashes || c.Retired != c.Rehashes {
		t.Fatalf("%d rehashes retired %d arrays, counted %d", c.Rehashes, len(gc.retired), c.Retired)
	}
	for i, k := range keys {
		if v, found, _ := QueryCuckooRef(as, c.HeaderAddr, k); !found || v != vals[i] {
			t.Fatalf("key %d lost across rehashes", i)
		}
	}
}

func TestSkipListInsert(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(100, 32, 5)
	sl := BuildSkipList(as, 9, keys, vals)
	sl.Towers = rand.New(rand.NewSource(10))
	gc := &keepGC{AddressSpace: as}

	extra, extraVals := genKeys(60, 32, 88)
	for i, k := range extra {
		if err := sl.Insert(as, gc, k, extraVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range extra {
		v, found, _ := QuerySkipListRef(as, sl.HeaderAddr, k)
		if !found || v != extraVals[i] {
			t.Fatalf("inserted key %d missing", i)
		}
	}
	// Level-0 chain must remain sorted after inserts.
	node := sl.Head
	var prev []byte
	count := 0
	for {
		nextU, err := as.ReadU64(SkipNextSlot(node, 0))
		if err != nil {
			t.Fatal(err)
		}
		if nextU == 0 {
			break
		}
		node = mem.VAddr(nextU)
		h, _ := SkipHeight(as, node)
		k := make([]byte, 32)
		as.MustRead(SkipKeyAddr(node, h), k)
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("chain unsorted after inserts")
		}
		prev = k
		count++
	}
	if count != 160 {
		t.Fatalf("chain has %d nodes, want 160", count)
	}
	// Duplicate insert updates in place.
	if err := sl.Insert(as, gc, extra[0], 4242); err != nil {
		t.Fatal(err)
	}
	v, _, _ := QuerySkipListRef(as, sl.HeaderAddr, extra[0])
	if v != 4242 {
		t.Fatalf("in-place update: got %d", v)
	}
}

func TestBSTInsert(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(50, 8, 6)
	b := BuildBST(as, 3, 32, keys, vals)
	gc := &keepGC{AddressSpace: as}
	extra, extraVals := genKeys(30, 8, 99)
	for i, k := range extra {
		if err := b.Insert(as, gc, k, extraVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range extra {
		v, found, _ := QueryBSTRef(as, b.HeaderAddr, k)
		if !found || v != extraVals[i] {
			t.Fatalf("inserted key %d missing", i)
		}
	}
	// In-place update.
	if err := b.Insert(as, gc, keys[0], 777); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := QueryBSTRef(as, b.HeaderAddr, keys[0]); v != 777 {
		t.Fatal("BST update in place failed")
	}
}

// Property: a random interleaving of cuckoo inserts/deletes matches a Go
// map.
func TestPropertyCuckooUpdatesMatchMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := newAS()
		gc := &keepGC{AddressSpace: as}
		keys, vals := genKeys(64, 16, seed)
		c := BuildCuckoo(as, 64, 4, 3, keys[:32], vals[:32])
		ref := map[string]uint64{}
		for i := 0; i < 32; i++ {
			ref[string(keys[i])] = vals[i]
		}
		for op := 0; op < 100; op++ {
			i := rng.Intn(64)
			if rng.Intn(2) == 0 {
				if err := c.Insert(as, gc, keys[i], vals[i]^uint64(op)); err == nil {
					ref[string(keys[i])] = vals[i] ^ uint64(op)
				}
			} else {
				ok, _ := c.Delete(as, gc, keys[i])
				_, inRef := ref[string(keys[i])]
				if ok != inRef {
					return false
				}
				delete(ref, string(keys[i]))
			}
		}
		for i := 0; i < 64; i++ {
			v, found, _ := QueryCuckooRef(as, c.HeaderAddr, keys[i])
			want, inRef := ref[string(keys[i])]
			if found != inRef || (found && v != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListDelete(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(80, 32, 11)
	sl := BuildSkipList(as, 9, keys, vals)
	gc := &keepGC{AddressSpace: as}

	for i := 0; i < 40; i++ {
		ok, err := sl.Delete(as, gc, keys[i])
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
		if ext := gc.retired[len(gc.retired)-1]; len(gc.retired) != i+1 || ext.Size == 0 || ext.Addr == 0 {
			t.Fatalf("delete %d retired %d extents, last %+v", i, len(gc.retired), ext)
		}
	}
	for i := 0; i < 40; i++ {
		if _, found, _ := QuerySkipListRef(as, sl.HeaderAddr, keys[i]); found {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	for i := 40; i < 80; i++ {
		v, found, _ := QuerySkipListRef(as, sl.HeaderAddr, keys[i])
		if !found || v != vals[i] {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if ok, _ := sl.Delete(as, gc, bytes.Repeat([]byte{0xEE}, 32)); ok {
		t.Fatal("absent delete reported success")
	}
	if sl.Len != 40 {
		t.Fatalf("Len = %d, want 40", sl.Len)
	}
}

func TestBSTDelete(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(60, 8, 12)
	b := BuildBST(as, 3, 16, keys, vals)
	gc := &keepGC{AddressSpace: as}

	// Delete in an order that exercises leaf, one-child, and two-child
	// cases (the shuffled build makes the shapes vary).
	for i := 0; i < 30; i++ {
		ok, err := b.Delete(as, gc, keys[i])
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
		if len(gc.retired) != i+1 || gc.retired[i].Size == 0 {
			t.Fatalf("delete %d retired %d extents", i, len(gc.retired))
		}
	}
	for i := 0; i < 30; i++ {
		if _, found, _ := QueryBSTRef(as, b.HeaderAddr, keys[i]); found {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	for i := 30; i < 60; i++ {
		v, found, _ := QueryBSTRef(as, b.HeaderAddr, keys[i])
		if !found || v != vals[i] {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if b.Len != 30 {
		t.Fatalf("Len = %d, want 30", b.Len)
	}
}

func TestBSTDeleteToEmptyAndRefill(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(10, 8, 13)
	b := BuildBST(as, 3, 0, keys, vals)
	gc := &keepGC{AddressSpace: as}
	for i := range keys {
		if ok, err := b.Delete(as, gc, keys[i]); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if b.Len != 0 || b.Root != 0 {
		t.Fatalf("tree not empty: len=%d root=%#x", b.Len, uint64(b.Root))
	}
	if err := b.Insert(as, gc, keys[0], 5); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := QueryBSTRef(as, b.HeaderAddr, keys[0]); !found || v != 5 {
		t.Fatal("refill after empty failed")
	}
}

func TestBSTRebuildBalances(t *testing.T) {
	as := newAS()
	// Insert in sorted order to degenerate the tree into a list.
	keys, vals := genKeys(64, 8, 14)
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sortIdxByKey(idx, keys)
	b := BuildBST(as, 3, 8, keys[:1], vals[:1])
	gc := &keepGC{AddressSpace: as}
	for _, i := range idx {
		if err := b.link(as, gc, keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !b.needsRebuild() {
		t.Fatalf("degenerate tree (depth %d, len %d) not flagged", b.MaxDepth, b.Len)
	}
	if err := b.rebuild(as, gc); err != nil {
		t.Fatal(err)
	}
	if len(gc.retired) != b.Len || b.Rebuilds != 1 || b.Retired != uint64(b.Len) {
		t.Fatalf("rebuild retired %d nodes (counted %d, %d rebuilds), tree has %d",
			len(gc.retired), b.Retired, b.Rebuilds, b.Len)
	}
	if b.needsRebuild() {
		t.Fatalf("rebuilt tree still flagged: depth %d len %d", b.MaxDepth, b.Len)
	}
	_, maxDepth, _, err := BSTDepthStats(as, b.HeaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	if maxDepth != b.MaxDepth {
		t.Fatalf("tracked depth %d, measured %d", b.MaxDepth, maxDepth)
	}
	for i, k := range keys {
		v, found, _ := QueryBSTRef(as, b.HeaderAddr, k)
		if !found || v != vals[i] {
			t.Fatalf("key %d lost in rebuild", i)
		}
	}

	// Insert runs the same rebuild itself: sorted inserts never leave
	// the tree past the scapegoat bound.
	s := BuildBST(as, 3, 8, keys[:1], vals[:1])
	for _, i := range idx {
		if err := s.Insert(as, gc, keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		if s.needsRebuild() {
			t.Fatalf("Insert left depth %d at len %d", s.MaxDepth, s.Len)
		}
	}
	if s.Rebuilds == 0 {
		t.Fatal("sorted inserts ran no rebuild")
	}
}

func TestCuckooRehashDoubles(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(100, 16, 15)
	c := BuildCuckoo(as, 32, 4, 7, keys, vals)
	gc := &keepGC{AddressSpace: as}
	oldArr := c.Buckets
	oldN := c.NBuckets

	if err := c.rehash(as, gc); err != nil {
		t.Fatal(err)
	}
	want := mem.Extent{Addr: oldArr, Size: oldN * CuckooBucketSize(16, 4)}
	if len(gc.retired) != 1 || gc.retired[0] != want || c.Rehashes != 1 {
		t.Fatalf("rehash retired %+v (%d rehashes), want old array %+v", gc.retired, c.Rehashes, want)
	}
	if c.NBuckets != oldN*2 || c.Len != 100 {
		t.Fatalf("rehash geometry: %d buckets, %d entries", c.NBuckets, c.Len)
	}
	hdr, _ := ReadHeader(as, c.HeaderAddr)
	if hdr.Root != c.Buckets || hdr.Aux != c.NBuckets {
		t.Fatalf("header not republished: %+v", hdr)
	}
	for i, k := range keys {
		v, found, _ := QueryCuckooRef(as, c.HeaderAddr, k)
		if !found || v != vals[i] {
			t.Fatalf("key %d lost in rehash", i)
		}
	}
	if lf := c.LoadFactor(); lf <= 0 || lf >= 1 {
		t.Fatalf("load factor %f out of range", lf)
	}
}
