package cfa

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

func newAS() *mem.AddressSpace {
	return mem.NewAddressSpace(mem.NewPhysical())
}

func genKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	keys := make([][]byte, 0, n)
	vals := make([]uint64, 0, n)
	for len(keys) < n {
		k := make([]byte, keyLen)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
		vals = append(vals, uint64(len(keys))*13+1)
	}
	return keys, vals
}

// stageKey writes a probe key into simulated memory and returns its addr.
func stageKey(as *mem.AddressSpace, key []byte) mem.VAddr {
	a := as.AllocLines(uint64(len(key)))
	as.MustWrite(a, key)
	return a
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	r := DefaultRegistry()
	if r.Len() != 7 {
		t.Fatalf("registry has %d programs, want 7", r.Len())
	}
	for _, tc := range []uint8{
		dstruct.TypeLinkedList, dstruct.TypeHashTable, dstruct.TypeCuckoo,
		dstruct.TypeSkipList, dstruct.TypeBST, dstruct.TypeTrie, dstruct.TypeBTree,
	} {
		if _, ok := r.Lookup(tc); !ok {
			t.Fatalf("type %s not registered", dstruct.TypeName(tc))
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(LinkedListProgram{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(LinkedListProgram{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

type badProgram struct{ states int }

func (b badProgram) TypeCode() uint8                  { return 99 }
func (b badProgram) Name() string                     { return "bad" }
func (b badProgram) NumStates() int                   { return b.states }
func (b badProgram) Step(q *Query, _ StateID) Request { return q.Finish(false, 0) }

func TestValidateProgramStateBounds(t *testing.T) {
	if err := ValidateProgram(badProgram{states: 255}); err == nil {
		t.Fatal("255-state program accepted (254 + 2 reserved is the cap)")
	}
	if err := ValidateProgram(badProgram{states: 0}); err == nil {
		t.Fatal("0-state program accepted")
	}
	if err := ValidateProgram(badProgram{states: 200}); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestLinkedListCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(30, 16, 1)
	l := dstruct.BuildLinkedList(as, keys, vals)
	reg := DefaultRegistry()
	for i, k := range keys {
		ka := stageKey(as, k)
		res, err := Run(reg, as, l.HeaderAddr, ka, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
	}
	ka := stageKey(as, make([]byte, 16))
	res, err := Run(reg, as, l.HeaderAddr, ka, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent key found")
	}
	// Full scan: at least one mem line per node.
	if res.MemLines < 30 {
		t.Fatalf("miss scan fetched %d lines, want >= 30", res.MemLines)
	}
}

func TestHashTableCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(300, 16, 2)
	ht := dstruct.BuildHashTable(as, 64, 9, keys, vals)
	reg := DefaultRegistry()
	for i, k := range keys {
		res, err := Run(reg, as, ht.HeaderAddr, stageKey(as, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		if res.Ops[OpHash] != 1 {
			t.Fatalf("hash table query used %d hash ops, want 1", res.Ops[OpHash])
		}
	}
}

func TestCuckooCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(1000, 16, 3)
	c := dstruct.BuildCuckoo(as, 512, 4, 11, keys, vals)
	reg := DefaultRegistry()
	for i, k := range keys {
		res, err := Run(reg, as, c.HeaderAddr, stageKey(as, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		// Fixed small access count: header + key + at most 2 buckets.
		if res.MemLines > 8 {
			t.Fatalf("cuckoo query fetched %d lines, want <= 8", res.MemLines)
		}
	}
	res, _ := Run(reg, as, c.HeaderAddr, stageKey(as, make([]byte, 16)), 0)
	if res.Found {
		t.Fatal("absent key found")
	}
}

func TestSkipListCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(500, 32, 4)
	sl := dstruct.BuildSkipList(as, 5, keys, vals)
	reg := DefaultRegistry()
	for i, k := range keys {
		res, err := Run(reg, as, sl.HeaderAddr, stageKey(as, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: found=%v value=%d want %d", i, res.Found, res.Value, vals[i])
		}
	}
	res, _ := Run(reg, as, sl.HeaderAddr, stageKey(as, bytes.Repeat([]byte{0xff}, 32)), 0)
	if res.Found {
		t.Fatal("absent key found")
	}
}

func TestBSTCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(600, 8, 5)
	b := dstruct.BuildBST(as, 7, 64, keys, vals)
	reg := DefaultRegistry()
	for i, k := range keys {
		res, err := Run(reg, as, b.HeaderAddr, stageKey(as, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: found=%v value=%d want %d", i, res.Found, res.Value, vals[i])
		}
	}
}

func TestTrieCFAMatchesReference(t *testing.T) {
	as := newAS()
	kws := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	tr := dstruct.BuildTrie(as, kws, []uint64{1, 2, 3, 4})
	input := []byte("ushers and his heroes")
	want, err := dstruct.ScanTrieRef(as, tr.HeaderAddr, input)
	if err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	ka := stageKey(as, input)
	res, err := Run(reg, as, tr.HeaderAddr, ka, len(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("CFA matches %v, reference %v", res.Matches, want)
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("match %d: CFA %d, reference %d", i, res.Matches[i], want[i])
		}
	}
}

func TestCFAAgreesWithReferenceAcrossStructures(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(200, 16, 6)
	reg := DefaultRegistry()

	headers := map[string]mem.VAddr{
		"hashtable": dstruct.BuildHashTable(as, 64, 3, keys, vals).HeaderAddr,
		"cuckoo":    dstruct.BuildCuckoo(as, 128, 4, 3, keys, vals).HeaderAddr,
		"skiplist":  dstruct.BuildSkipList(as, 3, keys, vals).HeaderAddr,
		"bst":       dstruct.BuildBST(as, 3, 64, keys, vals).HeaderAddr,
	}
	for name, hdr := range headers {
		for i, k := range keys {
			res, err := Run(reg, as, hdr, stageKey(as, k), 0)
			if err != nil {
				t.Fatalf("%s key %d: %v", name, i, err)
			}
			if !res.Found || res.Value != vals[i] {
				t.Fatalf("%s key %d: found=%v value=%d want %d", name, i, res.Found, res.Value, vals[i])
			}
		}
	}
}

func TestWrongTypeFaults(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(5, 16, 7)
	dstruct.BuildLinkedList(as, keys, vals)
	// Force the cuckoo program onto a linked-list header: the walk's
	// first transition checks the header's type code against the
	// program's.
	q := &Query{AS: as, Header: dstruct.Header{Type: dstruct.TypeLinkedList}, Key: keys[0]}
	w := NewWalk(CuckooProgram{}, q, false)
	req, err := w.Next()
	if req.Next != StateException || req.Fault == nil || err != req.Fault {
		t.Fatalf("cuckoo CFA accepted a linked-list header: req %+v, err %v", req, err)
	}
}

func TestUnknownStateFaults(t *testing.T) {
	q := &Query{Header: dstruct.Header{Type: dstruct.TypeLinkedList}}
	req := LinkedListProgram{}.Step(q, StateID(200))
	if req.Next != StateException {
		t.Fatal("undefined state did not fault")
	}
}

// firmwareExtension demonstrates the paper's firmware-update path: a new
// data structure type (a fixed-size array of key/value pairs, scanned
// linearly) added without touching the engine.
type arrayProgram struct{}

const typeArray uint8 = 42

func (arrayProgram) TypeCode() uint8 { return typeArray }
func (arrayProgram) Name() string    { return "array" }
func (arrayProgram) NumStates() int  { return 3 }

func (p arrayProgram) Step(q *Query, state StateID) Request {
	stride := uint64(q.Header.KeyLen) + 8
	switch state {
	case StateStart:
		q.Level = 0
		return q.Continue(stComp, true,
			MemRead(q.KeyAddr, uint64(q.Header.KeyLen)),
			MemRead(q.Header.Root, stride))
	case stComp:
		if uint64(q.Level) >= q.Header.Size {
			return q.Finish(false, 0)
		}
		ea := q.Header.Root + mem.VAddr(uint64(q.Level)*stride)
		stored := make([]byte, q.Header.KeyLen)
		if err := q.AS.Read(ea, stored); err != nil {
			return Fail(err)
		}
		cmp := Compare(ea, uint64(q.Header.KeyLen))
		if bytes.Equal(stored, q.Key) {
			v, err := q.AS.ReadU64(ea + mem.VAddr(q.Header.KeyLen))
			if err != nil {
				return Fail(err)
			}
			return q.Finish(true, v, cmp)
		}
		q.Level++
		return q.Continue(stComp, false, cmp, MemRead(ea+mem.VAddr(stride), stride))
	default:
		return Fail(errBadState("array", state))
	}
}

func TestFirmwareUpdateNewStructure(t *testing.T) {
	as := newAS()
	reg := DefaultRegistry()
	if err := reg.Register(arrayProgram{}); err != nil {
		t.Fatal(err)
	}
	// Lay out a 10-element array structure by hand.
	keys, vals := genKeys(10, 16, 8)
	stride := uint64(16 + 8)
	arr := as.AllocLines(10 * stride)
	for i, k := range keys {
		as.MustWrite(arr+mem.VAddr(uint64(i)*stride), k)
		var vb [8]byte
		for j := 0; j < 8; j++ {
			vb[j] = byte(vals[i] >> (8 * j))
		}
		as.MustWrite(arr+mem.VAddr(uint64(i)*stride+16), vb[:])
	}
	hdr := dstruct.WriteHeader(as, dstruct.Header{
		Root: arr, Type: typeArray, KeyLen: 16, Size: 10,
	})
	for i, k := range keys {
		res, err := Run(reg, as, hdr, stageKey(as, k), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("array key %d: %+v want %d", i, res, vals[i])
		}
	}
}

func TestRunawayFirmwareBounded(t *testing.T) {
	as := newAS()
	reg := NewRegistry()
	if err := reg.Register(loopProgram{}); err != nil {
		t.Fatal(err)
	}
	hdr := dstruct.WriteHeader(as, dstruct.Header{Type: 43, KeyLen: 8})
	ka := stageKey(as, make([]byte, 8))
	if _, err := Run(reg, as, hdr, ka, 0); err == nil {
		t.Fatal("runaway CFA not detected")
	}
}

func TestPanickingFirmwareRejected(t *testing.T) {
	as := newAS()
	reg := NewRegistry()
	if err := reg.Register(panicProgram{}); err != nil {
		t.Fatal(err)
	}
	hdr := dstruct.WriteHeader(as, dstruct.Header{Type: 44, KeyLen: 8})
	ka := stageKey(as, make([]byte, 8))
	if _, err := Run(reg, as, hdr, ka, 0); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("panicking firmware: err = %v, want ErrInvalidProgram", err)
	}
}

type panicProgram struct{}

func (panicProgram) TypeCode() uint8 { return 44 }
func (panicProgram) Name() string    { return "panic" }
func (panicProgram) NumStates() int  { return 1 }
func (panicProgram) Step(q *Query, s StateID) Request {
	panic("firmware bug: unchecked index")
}

type loopProgram struct{}

func (loopProgram) TypeCode() uint8 { return 43 }
func (loopProgram) Name() string    { return "loop" }
func (loopProgram) NumStates() int  { return 2 }
func (loopProgram) Step(q *Query, s StateID) Request {
	return q.Continue(StateID(1), false)
}

func TestBTreeCFA(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(2000, 16, 45)
	bt := dstruct.BuildBTree(as, 16, keys, vals)
	reg := DefaultRegistry()
	for i := 0; i < 300; i++ {
		res, err := Run(reg, as, bt.HeaderAddr, stageKey(as, keys[i]), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: found=%v value=%d want %d", i, res.Found, res.Value, vals[i])
		}
		// Logarithmic work: height ~3 node fetches plus header/key.
		if res.MemLines > 30 {
			t.Fatalf("btree query fetched %d lines — not logarithmic", res.MemLines)
		}
	}
	res, err := Run(reg, as, bt.HeaderAddr, stageKey(as, make([]byte, 16)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent key found")
	}
}
