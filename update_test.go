package qei

import (
	"bytes"
	"errors"
	"testing"
)

func TestSoftwareUpdateHardwareQueryCoexistence(t *testing.T) {
	// The paper's usage model: updates in software, queries on QEI, both
	// over the same coherent memory. An accelerated query issued right
	// after an insert must observe it; after a delete, miss.
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(200, 16, 20)
	tb, err := sys.BuildMutable(KindCuckoo, keys[:100], vals[:100])
	if err != nil {
		t.Fatal(err)
	}

	// Insert new keys in software, query each via the accelerator.
	for i := 100; i < 150; i++ {
		if err := tb.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		res, err := tb.Query(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("accelerator did not observe software insert %d: %+v", i, res)
		}
	}
	// Delete and verify the accelerator observes the removal.
	for i := 0; i < 50; i++ {
		ok, err := tb.Delete(keys[i])
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
		res, err := tb.Query(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("accelerator still finds deleted key %d", i)
		}
	}
}

func TestMutableSkipListAndBST(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(120, 32, 21)

	sl, err := sys.BuildMutable(KindSkipList, keys[:60], vals[:60])
	if err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 90; i++ {
		if err := sl.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 90; i++ {
		res, err := sl.Query(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("skiplist key %d: %+v", i, res)
		}
	}
	// Deletion is software too; the accelerator observes the unlink.
	for i := 0; i < 10; i++ {
		ok, err := sl.Delete(keys[i])
		if err != nil || !ok {
			t.Fatalf("skiplist delete %d: %v %v", i, ok, err)
		}
		if res, _ := sl.Query(keys[i]); res.Found {
			t.Fatalf("deleted skiplist key %d still visible", i)
		}
	}

	bkeys, bvals := testKeys(80, 8, 22)
	bst, err := sys.BuildMutable(KindBST, bkeys[:40], bvals[:40])
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 80; i++ {
		if err := bst.Insert(bkeys[i], bvals[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		res, err := bst.Query(bkeys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != bvals[i] {
			t.Fatalf("bst key %d: %+v", i, res)
		}
	}
	for i := 0; i < 10; i++ {
		ok, err := bst.Delete(bkeys[i])
		if err != nil || !ok {
			t.Fatalf("bst delete %d: %v %v", i, ok, err)
		}
		if res, _ := bst.Query(bkeys[i]); res.Found {
			t.Fatalf("deleted bst key %d still visible", i)
		}
	}
}

func TestMutableLinkedList(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(30, 16, 23)
	ll, err := sys.BuildMutable(KindLinkedList, keys[:20], vals[:20])
	if err != nil {
		t.Fatal(err)
	}
	// Prepend: the accelerator must observe the republished header root.
	for i := 20; i < 30; i++ {
		if err := ll.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ll.Query(keys[29])
	if err != nil || !res.Found || res.Value != vals[29] {
		t.Fatalf("prepended key not visible to accelerator: %+v %v", res, err)
	}
	ok, err := ll.Delete(keys[25])
	if err != nil || !ok {
		t.Fatalf("list delete: %v %v", ok, err)
	}
	res, _ = ll.Query(keys[25])
	if res.Found {
		t.Fatal("deleted list key still visible")
	}
}

// TestMutableLinkedListUpsert inserts a key that is already present:
// the list updates the node in place, so one delete removes the key and
// no stale copy resurfaces behind it.
func TestMutableLinkedListUpsert(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(20, 16, 23)
	ll, err := sys.BuildMutable(KindLinkedList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := ll.Insert(keys[7], 777); err != nil {
		t.Fatal(err)
	}
	if res, err := ll.Query(keys[7]); err != nil || !res.Found || res.Value != 777 {
		t.Fatalf("upserted key: %+v %v, want value 777", res, err)
	}
	if ok, err := ll.Delete(keys[7]); err != nil || !ok {
		t.Fatalf("delete upserted key: %v %v", ok, err)
	}
	if res, err := ll.Query(keys[7]); err != nil || res.Found {
		t.Fatalf("deleted key still visible after an upsert: %+v %v", res, err)
	}
}

func TestMutableKeyValidation(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(10, 16, 24)
	tb, err := sys.BuildMutable(KindCuckoo, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(bytes.Repeat([]byte{1}, 7), 1); err == nil {
		t.Fatal("wrong-length key accepted")
	}
}

// readsInFlight keeps a window of accelerated lookups in flight while a
// test mutates the table, and checks each against the value its key
// held when the lookup was admitted (the epoch protocol's
// snapshot-at-admission contract).
type readsInFlight struct {
	t     *testing.T
	sys   *System
	tb    *MutableTable
	model map[string]uint64
	q     []admittedRead
}

type admittedRead struct {
	h     AsyncHandle
	key   []byte
	found bool
	want  uint64
}

// readsWindow bounds the lookups held in flight, under the
// Core-integrated QST capacity of 10.
const readsWindow = 8

func newReadsInFlight(t *testing.T, sys *System, tb *MutableTable, keys [][]byte, vals []uint64) *readsInFlight {
	r := &readsInFlight{t: t, sys: sys, tb: tb, model: map[string]uint64{}}
	for i, k := range keys {
		r.model[string(k)] = vals[i]
	}
	return r
}

// issue admits a lookup of key, first retiring the oldest one if the
// window is full.
func (r *readsInFlight) issue(key []byte) {
	if len(r.q) == readsWindow {
		r.retire()
	}
	h, err := r.sys.QueryAsync(r.tb.Table, key)
	if err != nil {
		r.t.Fatal(err)
	}
	want, found := r.model[string(key)]
	r.q = append(r.q, admittedRead{h: h, key: key, found: found, want: want})
}

func (r *readsInFlight) retire() {
	a := r.q[0]
	r.q = r.q[1:]
	res, err := r.sys.Wait(a.h)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		r.t.Fatalf("in-flight lookup of %x: %v", a.key, err)
	}
	if res.Found != a.found || a.found && res.Value != a.want {
		r.t.Fatalf("in-flight lookup of %x: found=%v value=%d, want found=%v value=%d at admission",
			a.key, res.Found, res.Value, a.found, a.want)
	}
}

func (r *readsInFlight) insert(key []byte, value uint64) {
	if err := r.tb.Insert(key, value); err != nil {
		r.t.Fatal(err)
	}
	r.model[string(key)] = value
}

func (r *readsInFlight) delete(key []byte) {
	if ok, err := r.tb.Delete(key); err != nil || !ok {
		r.t.Fatalf("delete %x: %v %v", key, ok, err)
	}
	delete(r.model, string(key))
}

// drain retires every lookup still in flight and checks that none read
// retired memory.
func (r *readsInFlight) drain() {
	for len(r.q) > 0 {
		r.retire()
	}
	if v := r.sys.EpochViolations(); v != 0 {
		r.t.Fatalf("%d read-after-retire violations", v)
	}
}

// TestMutableBTree grows and shrinks a B+-tree through splits and
// merges while lookups stay in flight across every mutation: each
// answers as the tree stood at its admission.
func TestMutableBTree(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(120, 16, 26)
	tb, err := sys.BuildMutable(KindBTree, keys[:40], vals[:40])
	if err != nil {
		t.Fatal(err)
	}
	reads := newReadsInFlight(t, sys, tb, keys[:40], vals[:40])
	for i := 40; i < 120; i++ {
		reads.issue(keys[i])
		reads.issue(keys[i/2])
		reads.insert(keys[i], vals[i])
	}
	reads.drain()
	for i := 0; i < 120; i++ {
		res, err := tb.Query(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("btree key %d: %+v", i, res)
		}
	}
	for i := 0; i < 100; i++ {
		reads.issue(keys[i])
		reads.issue(keys[119-i])
		reads.delete(keys[i])
	}
	reads.drain()
	for i := 0; i < 100; i++ {
		if res, _ := tb.Query(keys[i]); res.Found {
			t.Fatalf("deleted btree key %d still visible", i)
		}
	}
	st := tb.MutStats()
	if st.Splits == 0 || st.Merges == 0 {
		t.Fatalf("80 inserts + 100 deletes exercised no rebalances: %+v", st)
	}
	if st.RetiredNodes == 0 {
		t.Fatal("merges retired no nodes")
	}
}

func TestBuildMutableGenericAndUnsupported(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(50, 16, 27)
	for _, kind := range []StructKind{KindCuckoo, KindSkipList, KindBST, KindLinkedList, KindBTree} {
		tb, err := sys.BuildMutable(kind, keys, vals)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res, err := tb.Query(keys[0]); err != nil || !res.Found {
			t.Fatalf("%s: built table not queryable: %+v %v", kind, res, err)
		}
	}
	if _, err := sys.BuildMutable(KindHashTable, keys, vals); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("hash table mutable build: %v, want ErrUnsupportedOp", err)
	}
	if _, err := sys.BuildMutable(KindTrie, keys, vals); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("trie mutable build: %v, want ErrUnsupportedOp", err)
	}
}

func TestCuckooOnlineRehash(t *testing.T) {
	// Growing a cuckoo table past its load ceiling must trigger an
	// online rehash that retires the old bucket array and keeps every
	// key reachable by the accelerator — including lookups admitted
	// before the rehash and still in flight across it.
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(600, 16, 28)
	tb, err := sys.BuildMutable(KindCuckoo, keys[:50], vals[:50])
	if err != nil {
		t.Fatal(err)
	}
	// The build allocates one bucket per key (512 slots here), so 600
	// keys cross the 0.85 load ceiling.
	reads := newReadsInFlight(t, sys, tb, keys[:50], vals[:50])
	for i := 50; i < 600; i++ {
		reads.issue(keys[i])
		reads.issue(keys[i/3])
		reads.insert(keys[i], vals[i])
	}
	reads.drain()
	st := tb.MutStats()
	if st.Rehashes == 0 {
		t.Fatal("12x growth caused no rehash")
	}
	if st.RetiredNodes == 0 {
		t.Fatal("rehash retired no bucket array")
	}
	for i := 0; i < 600; i += 13 {
		res, err := tb.Query(keys[i])
		if err != nil || !res.Found || res.Value != vals[i] {
			t.Fatalf("post-rehash key %d: %+v %v", i, res, err)
		}
	}
	es := sys.EpochStats()
	if es.Retired == 0 || es.Epoch == 0 {
		t.Fatalf("epoch GC saw no activity: %+v", es)
	}
}

func TestAsyncPinsHoldReclamation(t *testing.T) {
	// An async query pins its admission epoch: memory retired while it
	// is in flight must not be reclaimed until the query is drained.
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(100, 32, 29)
	tb, err := sys.BuildMutable(KindSkipList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.QueryAsync(tb.Table, keys[50])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if ok, err := tb.Delete(keys[i]); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	es := sys.EpochStats()
	if es.Retired != 20 {
		t.Fatalf("retired %d nodes, want 20", es.Retired)
	}
	if es.Reclaimed != 0 {
		t.Fatalf("reclaimed %d extents under an in-flight query", es.Reclaimed)
	}
	if res, err := sys.Wait(h); err != nil || !res.Found || res.Value != vals[50] {
		t.Fatalf("pinned query result: %+v %v", res, err)
	}
	// The pin is gone; the next mutation's epoch bump frees the limbo.
	if ok, err := tb.Delete(keys[20]); err != nil || !ok {
		t.Fatal("post-wait delete failed")
	}
	es = sys.EpochStats()
	if es.Reclaimed == 0 {
		t.Fatalf("limbo not reclaimed after drain: %+v", es)
	}
	if es.PinsOutstanding != 0 {
		t.Fatalf("%d pins leaked", es.PinsOutstanding)
	}
	if v := sys.EpochStats().Violations; v != 0 {
		t.Fatalf("%d read-after-retire violations", v)
	}
}

func TestInterruptFlushAPI(t *testing.T) {
	// Sec. IV-D: an interrupt flushes in-flight non-blocking queries;
	// software observes the abort code and reissues.
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(100, 32, 25)
	tb, err := sys.Build(KindSkipList, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Issue a burst of async queries (long-latency pointer chases), then
	// interrupt before they can possibly complete.
	handles := make([]AsyncHandle, 8)
	for i := range handles {
		h, err := sys.QueryAsync(tb, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	lat := sys.Interrupt()
	if lat == 0 {
		t.Fatal("flush with pending queries should cost cycles")
	}
	aborted := 0
	for _, h := range handles {
		if _, err := sys.Wait(h); errors.Is(err, ErrAborted) {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no queries aborted by the interrupt")
	}
	// Reissue the aborted work; it must succeed now.
	for i := range handles {
		res, err := sys.Query(tb, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("reissued query %d failed: %+v", i, res)
		}
	}
	// A second interrupt with nothing in flight is free.
	if lat := sys.Interrupt(); lat != 0 {
		t.Fatalf("idle flush cost %d cycles", lat)
	}
}
