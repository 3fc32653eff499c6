package dstruct

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"qei/internal/mem"
)

// btreeCheckInvariants walks the whole tree and verifies the B+-tree
// shape: sorted keys, child/separator agreement, consistent depth, and
// an intact, sorted leaf chain covering exactly Len entries.
func btreeCheckInvariants(t *testing.T, as *mem.AddressSpace, bt *BTree) {
	t.Helper()
	if bt.Root == 0 {
		if bt.Len != 0 {
			t.Fatalf("rootless tree with Len %d", bt.Len)
		}
		return
	}
	var leafDepth int
	var walk func(node mem.VAddr, depth int, lower, upper []byte)
	walk = func(node mem.VAddr, depth int, lower, upper []byte) {
		n, err := bt.loadNode(as, node)
		if err != nil {
			t.Fatal(err)
		}
		var prev []byte
		for i := 0; i < n.count(); i++ {
			k := n.key(i)
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("unsorted keys in node %#x", uint64(node))
			}
			if lower != nil && bytes.Compare(k, lower) < 0 {
				t.Fatalf("key below subtree bound in node %#x", uint64(node))
			}
			if upper != nil && bytes.Compare(k, upper) >= 0 {
				t.Fatalf("key above subtree bound in node %#x", uint64(node))
			}
			prev = append([]byte(nil), k...)
		}
		if n.leaf() {
			if leafDepth == 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		for i := 0; i <= n.count(); i++ {
			lo, hi := lower, upper
			if i > 0 {
				lo = append([]byte(nil), n.key(i-1)...)
			}
			if i < n.count() {
				hi = append([]byte(nil), n.key(i)...)
			}
			walk(n.child(i), depth+1, lo, hi)
		}
	}
	walk(bt.Root, 1, nil, nil)
	if leafDepth != bt.Height {
		t.Fatalf("leaf depth %d, handle Height %d", leafDepth, bt.Height)
	}

	// Leaf chain: find leftmost leaf, walk links, count entries.
	node := bt.Root
	for {
		n, err := bt.loadNode(as, node)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf() {
			break
		}
		node = n.child(0)
	}
	total := 0
	var prev []byte
	for node != 0 {
		n, err := bt.loadNode(as, node)
		if err != nil {
			t.Fatal(err)
		}
		if !n.leaf() {
			t.Fatalf("leaf chain reached inner node %#x", uint64(node))
		}
		for i := 0; i < n.count(); i++ {
			if prev != nil && bytes.Compare(prev, n.key(i)) >= 0 {
				t.Fatal("leaf chain unsorted")
			}
			prev = append([]byte(nil), n.key(i)...)
			total++
		}
		node = n.link()
	}
	if total != bt.Len {
		t.Fatalf("leaf chain has %d entries, handle Len %d", total, bt.Len)
	}

	// The header must agree with the handle (the walkers trust it).
	hdr, err := ReadHeader(as, bt.HeaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Root != bt.Root || hdr.Aux != uint64(bt.Height) || hdr.Size != uint64(bt.Len) {
		t.Fatalf("header %+v disagrees with handle root=%#x h=%d len=%d",
			hdr, uint64(bt.Root), bt.Height, bt.Len)
	}
}

func TestBTreeInsertSplitsAndGrows(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	keys, vals := genKeys(8, 16, 21)
	bt := BuildBTree(as, 4, keys, vals) // fanout 4: splits come fast

	extra, extraVals := genKeys(60, 16, 22)
	for i, k := range extra {
		if err := bt.Insert(as, gc, k, extraVals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Splits == 0 {
		t.Fatal("60 inserts into a fanout-4 tree caused no splits")
	}
	if bt.Height < 2 {
		t.Fatalf("tree did not grow: height %d", bt.Height)
	}
	btreeCheckInvariants(t, as, bt)
	for i, k := range extra {
		v, found, err := QueryBTreeRef(as, bt.HeaderAddr, k)
		if err != nil || !found || v != extraVals[i] {
			t.Fatalf("inserted key %d: v=%d found=%v err=%v", i, v, found, err)
		}
	}
	// Update in place.
	if err := bt.Insert(as, gc, extra[0], 31337); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := QueryBTreeRef(as, bt.HeaderAddr, extra[0]); v != 31337 {
		t.Fatal("in-place update failed")
	}
	if bt.Len != 68 {
		t.Fatalf("Len = %d, want 68", bt.Len)
	}
}

func TestBTreeInsertIntoEmpty(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	bt := BuildBTree(as, 4, nil, nil)
	bt.KeyLen = 8 // empty build has no keys to take the length from
	k := []byte("aaaabbbb")
	if err := bt.Insert(as, gc, k, 7); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := QueryBTreeRef(as, bt.HeaderAddr, k); !found || v != 7 {
		t.Fatal("insert into empty tree not queryable")
	}
}

func TestBTreeDeleteMergesAndShrinks(t *testing.T) {
	as := newAS()
	gc := &keepGC{AddressSpace: as}
	keys, vals := genKeys(128, 16, 23)
	bt := BuildBTree(as, 4, keys, vals)
	startHeight := bt.Height

	for i := 0; i < 120; i++ {
		ok, err := bt.Delete(as, gc, keys[i])
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if bt.Merges == 0 {
		t.Fatal("120 deletes from a fanout-4 tree caused no merges")
	}
	if len(gc.retired) == 0 || bt.Retired != uint64(len(gc.retired)) {
		t.Fatalf("merges retired %d extents, counted %d", len(gc.retired), bt.Retired)
	}
	for _, e := range gc.retired {
		if e.Size != bt.nodeSize() {
			t.Fatalf("retired extent %+v, want node size %d", e, bt.nodeSize())
		}
	}
	if bt.Height >= startHeight {
		t.Fatalf("height %d did not shrink from %d", bt.Height, startHeight)
	}
	btreeCheckInvariants(t, as, bt)
	for i := 0; i < 120; i++ {
		if _, found, _ := QueryBTreeRef(as, bt.HeaderAddr, keys[i]); found {
			t.Fatalf("deleted key %d still found", i)
		}
	}
	for i := 120; i < 128; i++ {
		v, found, _ := QueryBTreeRef(as, bt.HeaderAddr, keys[i])
		if !found || v != vals[i] {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	if ok, _ := bt.Delete(as, gc, bytes.Repeat([]byte{0xEE}, 16)); ok {
		t.Fatal("absent delete reported success")
	}
}

// Property: a random interleaving of B+-tree inserts/deletes matches a
// Go map, and the structural invariants hold throughout.
func TestPropertyBTreeUpdatesMatchMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := newAS()
		gc := &keepGC{AddressSpace: as}
		keys, vals := genKeys(96, 16, seed)
		bt := BuildBTree(as, 4, keys[:48], vals[:48])
		ref := map[string]uint64{}
		for i := 0; i < 48; i++ {
			ref[string(keys[i])] = vals[i]
		}
		for op := 0; op < 300; op++ {
			i := rng.Intn(96)
			if rng.Intn(2) == 0 {
				v := vals[i] ^ uint64(op+1)
				if err := bt.Insert(as, gc, keys[i], v); err != nil {
					return false
				}
				ref[string(keys[i])] = v
			} else {
				ok, err := bt.Delete(as, gc, keys[i])
				if err != nil {
					return false
				}
				_, inRef := ref[string(keys[i])]
				if ok != inRef {
					return false
				}
				delete(ref, string(keys[i]))
			}
		}
		if bt.Len != len(ref) {
			return false
		}
		for i := 0; i < 96; i++ {
			v, found, err := QueryBTreeRef(as, bt.HeaderAddr, keys[i])
			if err != nil {
				return false
			}
			want, inRef := ref[string(keys[i])]
			if found != inRef || (found && v != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
