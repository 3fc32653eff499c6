package dstruct

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"qei/internal/mem"
)

func TestBTreeQuery(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(3000, 16, 40)
	bt := BuildBTree(as, 16, keys, vals)
	if bt.Len != 3000 {
		t.Fatalf("Len = %d", bt.Len)
	}
	for i, k := range keys {
		v, found, err := QueryBTreeRef(as, bt.HeaderAddr, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != vals[i] {
			t.Fatalf("key %d: found=%v v=%d want %d", i, found, v, vals[i])
		}
	}
	if _, found, _ := QueryBTreeRef(as, bt.HeaderAddr, make([]byte, 16)); found {
		t.Fatal("absent key reported found")
	}
}

func TestBTreeHeightLogarithmic(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(4096, 8, 41)
	bt := BuildBTree(as, 16, keys, vals)
	// 4096 keys at fanout 16: 256 leaves, 16 inner, 1 root = height 3.
	if bt.Height != 3 {
		t.Fatalf("height = %d, want 3", bt.Height)
	}
}

func TestBTreeSingleLeaf(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(5, 8, 42)
	bt := BuildBTree(as, 16, keys, vals)
	if bt.Height != 1 {
		t.Fatalf("height = %d, want 1 (single leaf)", bt.Height)
	}
	for i, k := range keys {
		v, found, _ := QueryBTreeRef(as, bt.HeaderAddr, k)
		if !found || v != vals[i] {
			t.Fatalf("key %d wrong", i)
		}
	}
}

func TestBTreeScanFrom(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(500, 16, 43)
	bt := BuildBTree(as, 8, keys, vals)

	// Sort host-side to know the expected order.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0 })

	// Scan 20 values from the 100th key.
	start := keys[idx[100]]
	got, err := BTreeScanFrom(as, bt.HeaderAddr, start, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("scan returned %d values", len(got))
	}
	for i := 0; i < 20; i++ {
		if got[i] != vals[idx[100+i]] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], vals[idx[100+i]])
		}
	}
	// Scan past the end clamps.
	tail, err := BTreeScanFrom(as, bt.HeaderAddr, keys[idx[495]], 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 5 {
		t.Fatalf("tail scan = %d values, want 5", len(tail))
	}
}

func TestBTreeLeafChainSorted(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(300, 16, 44)
	bt := BuildBTree(as, 8, keys, vals)
	all, err := BTreeScanFrom(as, bt.HeaderAddr, make([]byte, 16), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 300 {
		t.Fatalf("full scan = %d values", len(all))
	}
}

// Property: B+-tree agrees with a Go map for arbitrary key sets.
func TestPropertyBTreeMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		n := 50 + int(uint64(seed)%400)
		keys, vals := genKeys(n, 16, seed)
		as := newAS()
		bt := BuildBTree(as, 8, keys, vals)
		for i, k := range keys {
			v, found, err := QueryBTreeRef(as, bt.HeaderAddr, k)
			if err != nil || !found || v != vals[i] {
				return false
			}
		}
		_, found, _ := QueryBTreeRef(as, bt.HeaderAddr, bytes.Repeat([]byte{0}, 16))
		return !found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// BTreeScanFrom walks leaf links collecting up to n values starting at
// the first key >= start (range scans, the other classic index query).
func BTreeScanFrom(as *mem.AddressSpace, headerAddr mem.VAddr, start []byte, n int) ([]uint64, error) {
	h, err := ReadHeader(as, headerAddr)
	if err != nil {
		return nil, err
	}
	node := h.Root
	// Descend to the leaf that would hold start.
	for {
		leaf, _, err := BTreeNodeMeta(as, node)
		if err != nil {
			return nil, err
		}
		if leaf {
			break
		}
		ptr, _, _, _, err := BTreeSearchNode(as, node, int(h.KeyLen), start, nil)
		if err != nil {
			return nil, err
		}
		node = mem.VAddr(ptr)
	}
	var out []uint64
	for node != 0 && len(out) < n {
		leaf, count, err := BTreeNodeMeta(as, node)
		if err != nil {
			return nil, err
		}
		if !leaf {
			return nil, fmt.Errorf("dstruct: leaf chain reached an inner node")
		}
		for i := 0; i < count && len(out) < n; i++ {
			k, err := readKey(as, BTreeEntryAddr(node, int(h.KeyLen), i), h.KeyLen)
			if err != nil {
				return nil, err
			}
			if bytes.Compare(k, start) < 0 {
				continue
			}
			v, err := as.ReadU64(BTreeEntryAddr(node, int(h.KeyLen), i) + mem.VAddr(uint64((int(h.KeyLen)+7)&^7)))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		nextU, err := as.ReadU64(node + btreeOffLink)
		if err != nil {
			return nil, err
		}
		node = mem.VAddr(nextU)
	}
	return out, nil
}
