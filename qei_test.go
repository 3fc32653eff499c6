package qei

import (
	"math/rand"
	"strings"
	"testing"
)

func testKeys(n, keyLen int, seed int64) ([][]byte, []uint64) {
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
		vals = append(vals, rng.Uint64()|1)
	}
	return keys, vals
}

// mustBuild is Build for tests: it fails tb on a build error.
func mustBuild(tb testing.TB, sys *System, kind StructKind, keys [][]byte, vals []uint64) Table {
	tb.Helper()
	table, err := sys.Build(kind, keys, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return table
}

func TestSystemQuickstartFlow(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(500, 16, 1)
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	for i := 0; i < 100; i++ {
		res, err := sys.Query(table, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("key %d: %+v want %d", i, res, vals[i])
		}
		if res.Latency == 0 {
			t.Fatal("zero latency reported")
		}
	}
	res, err := sys.Query(table, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("absent key found")
	}
	if sys.Stats().Queries != 101 {
		t.Fatalf("stats queries = %d", sys.Stats().Queries)
	}
}

func TestAllBuildersAndSchemes(t *testing.T) {
	keys, vals := testKeys(200, 16, 2)
	for _, sch := range Schemes() {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			t.Parallel()
			sys := NewSystem(sch)
			tables := []Table{}
			for _, kind := range []StructKind{KindCuckoo, KindHashTable, KindSkipList, KindBST, KindLinkedList} {
				n := len(keys)
				if kind == KindLinkedList {
					n = 30
				}
				// Kinds other than KindBST ignore the payload.
				tb, err := sys.Build(kind, keys[:n], vals[:n], WithBSTPayload(64))
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, tb)
			}
			for ti, tb := range tables {
				n := 50
				if tb.Kind == KindLinkedList {
					n = 30
				}
				for i := 0; i < n; i++ {
					res, err := sys.Query(tb, keys[i])
					if err != nil {
						t.Fatalf("%s: %v", tb.Kind, err)
					}
					if !res.Found || res.Value != vals[i] {
						t.Fatalf("table %d (%s) key %d: got %+v want %d", ti, tb.Kind, i, res, vals[i])
					}
				}
			}
		})
	}
}

func TestTrieScanAPI(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	tr, err := sys.Build(KindTrie, [][]byte{[]byte("alpha"), []byte("beta")}, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Scan(tr, []byte("xx alpha yy beta zz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != 10 || res.Matches[1] != 20 {
		t.Fatalf("matches = %v", res.Matches)
	}
	// Scan on a non-trie table must be rejected.
	keys, vals := testKeys(10, 8, 3)
	ht, _ := sys.Build(KindHashTable, keys, vals)
	if _, err := sys.Scan(ht, []byte("x")); err == nil {
		t.Fatal("Scan accepted a hash table")
	}
}

func TestBuilderValidation(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	if _, err := sys.Build(KindCuckoo, nil, nil); err == nil {
		t.Fatal("empty key set accepted")
	}
	if _, err := sys.Build(KindCuckoo, [][]byte{{1, 2}}, []uint64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := sys.Build(KindCuckoo, [][]byte{{1, 2}, {1, 2, 3}}, []uint64{1, 2}); err == nil {
		t.Fatal("ragged keys accepted")
	}
	if _, err := sys.Build(KindTrie, [][]byte{[]byte("x")}, []uint64{0}); err == nil {
		t.Fatal("zero trie value accepted")
	}
	if _, err := sys.Build(KindBST, [][]byte{{1}}, []uint64{1}, WithBSTPayload(-1)); err == nil {
		t.Fatal("negative payload accepted")
	}
}

func TestAsyncQueryFlow(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(100, 16, 4)
	table := mustBuild(t, sys, KindCuckoo, keys, vals)
	handles := make([]AsyncHandle, 10)
	for i := range handles {
		h, err := sys.QueryAsync(table, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := sys.Wait(h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != vals[i] {
			t.Fatalf("async %d: %+v want %d", i, res, vals[i])
		}
	}
}

func TestQueryLatencyOrderingAcrossSchemes(t *testing.T) {
	keys, vals := testKeys(300, 32, 5)
	latency := func(s Scheme) uint64 {
		sys := NewSystem(s)
		tb, err := sys.Build(KindSkipList, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := 0; i < 20; i++ {
			res, err := sys.Query(tb, keys[i*10])
			if err != nil {
				t.Fatal(err)
			}
			total += res.Latency
		}
		return total
	}
	ci := latency(CoreIntegrated)
	di := latency(DeviceIndirect)
	if ci >= di {
		t.Fatalf("Core-integrated latency (%d) should beat Device-indirect (%d)", ci, di)
	}
}

func TestPublicTracing(t *testing.T) {
	sys := NewSystem(CoreIntegrated, WithTimeline())
	keys, vals := testKeys(64, 16, 70)
	tb := mustBuild(t, sys, KindCuckoo, keys, vals)
	for i := 0; i < 12; i++ {
		if _, err := sys.Query(tb, keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	doc := sys.ExportTrace()
	if !strings.Contains(doc, `"ph":"X"`) || !strings.Contains(doc, `"name":"query"`) {
		t.Fatalf("trace export malformed:\n%s", doc)
	}
	// Without WithTimeline nothing is recorded: the document is empty.
	if doc := NewSystem(CoreIntegrated).ExportTrace(); strings.Contains(doc, `"name"`) {
		t.Fatalf("untraced system exported events:\n%s", doc)
	}
}
