package cfa

import (
	"testing"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// walkCase is one built-in structure with a staged probe.
type walkCase struct {
	name   string
	header mem.VAddr
	key    mem.VAddr
	keyLen int // 0: the header's
}

func walkCases(as *mem.AddressSpace) []walkCase {
	keys, vals := genKeys(512, 16, 21)
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("passwd"), []byte("admin")}
	scan := []byte("GET /index.html?lang=en HTTP/1.1")
	return []walkCase{
		{"linkedlist", dstruct.BuildLinkedList(as, keys[:32], vals[:32]).HeaderAddr, stageKey(as, keys[20]), 0},
		{"hashtable", dstruct.BuildHashTable(as, 64, 3, keys, vals).HeaderAddr, stageKey(as, keys[7]), 0},
		{"cuckoo", dstruct.BuildCuckoo(as, 256, 4, 3, keys, vals).HeaderAddr, stageKey(as, keys[7]), 0},
		{"skiplist", dstruct.BuildSkipList(as, 3, keys, vals).HeaderAddr, stageKey(as, keys[7]), 0},
		{"bst", dstruct.BuildBST(as, 3, 64, keys, vals).HeaderAddr, stageKey(as, keys[7]), 0},
		{"trie", dstruct.BuildTrie(as, kws, []uint64{1, 2, 3, 4}).HeaderAddr, stageKey(as, scan), len(scan)},
		{"btree", dstruct.BuildBTree(as, 16, keys, vals).HeaderAddr, stageKey(as, keys[7]), 0},
	}
}

// walk stages c into q and steps its program to a terminal state,
// handing each request to visit.
func walk(reg *Registry, as *mem.AddressSpace, c walkCase, q *Query, visit func(Request)) error {
	prog, err := Stage(reg, as, c.header, c.key, c.keyLen, q)
	if err != nil {
		return err
	}
	w := NewWalk(prog, q, false)
	for {
		req, err := w.Next()
		if err != nil {
			return err
		}
		visit(req)
		if req.Next == StateDone {
			return nil
		}
	}
}

// TestConsecutiveStepsOwnTheirOps walks a BST query: each transition's
// request holds exactly the ops that transition asked for, none left
// over from the previous (longer) one, although both live in the
// query's one ops buffer.
func TestConsecutiveStepsOwnTheirOps(t *testing.T) {
	as := newAS()
	keys, vals := genKeys(64, 16, 4)
	bst := dstruct.BuildBST(as, 3, 64, keys, vals)
	reg := DefaultRegistry()
	var q Query
	for _, k := range [][]byte{keys[9], []byte("absent-key-16byt")} {
		var reqs []Request
		c := walkCase{header: bst.HeaderAddr, key: stageKey(as, k)}
		if err := walk(reg, as, c, &q, func(r Request) { reqs = append(reqs, r) }); err != nil {
			t.Fatal(err)
		}
		// Every transition but the last fetches the next node: a compare
		// (the start transition: the key) plus two reads. The last only
		// compares.
		for i, r := range reqs[:len(reqs)-1] {
			if len(r.Ops) != 3 {
				t.Fatalf("key %x transition %d: %d ops %v, want 3", k, i, len(r.Ops), r.Ops)
			}
		}
		if last := reqs[len(reqs)-1]; len(last.Ops) != 1 || last.Ops[0].Kind != OpCompare {
			t.Fatalf("key %x final transition ops %v, want one compare", k, last.Ops)
		}
	}
}

// TestWalkAllocatesNothing pins every built-in program: a warmed walk
// staged into a reused Query allocates nothing.
func TestWalkAllocatesNothing(t *testing.T) {
	as := newAS()
	reg := DefaultRegistry()
	var q Query
	for _, c := range walkCases(as) {
		run := func() {
			if err := walk(reg, as, c, &q, func(Request) {}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocs per warmed walk, want 0", c.name, got)
		}
	}
}

// BenchmarkWalk measures one warmed functional walk of each built-in
// program, staged into a reused Query.
func BenchmarkWalk(b *testing.B) {
	as := newAS()
	reg := DefaultRegistry()
	var q Query
	for _, c := range walkCases(as) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := walk(reg, as, c, &q, func(Request) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
