package qei

// Tests for the guest memory a System reuses to serve queries: one key
// area for Query and QueryAsync, one for QueryBatch, and result lines
// that go back on a free list once software has observed them.

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"qei/internal/mem"
)

// sameAnswer reports whether two results agree architecturally: found,
// value, matches and fault, latency aside.
func sameAnswer(a, b Result) bool {
	return a.Found == b.Found && a.Value == b.Value &&
		slices.Equal(a.Matches, b.Matches) && (a.Err == nil) == (b.Err == nil)
}

// TestServedStagingBoundedMemory serves many QST windows of QueryAsync,
// Poll and Wait, with QueryBatch, blocking Query and trie Scan mixed in
// and some windows cut by an Interrupt, on one System. The first window
// stages the longest input and the largest batch; from then on the
// guest address space must not grow, and every answer must equal
// QuerySoftware's.
func TestServedStagingBoundedMemory(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(256, 16, 21)
	absent, _ := testKeys(32, 16, 22)
	tables := []Table{
		mustBuild(t, sys, KindBTree, keys, vals),
		mustBuild(t, sys, KindCuckoo, keys, vals),
		mustBuild(t, sys, KindSkipList, keys, vals),
	}
	trie := mustBuild(t, sys, KindTrie,
		[][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}, []uint64{1, 2, 3})
	rng := rand.New(rand.NewSource(5))
	probe := func() []byte {
		if rng.Intn(5) == 0 {
			return absent[rng.Intn(len(absent))]
		}
		return keys[rng.Intn(len(keys))]
	}
	words := []string{"alpha ", "beta ", "gamma ", "delta ", "x"}
	scanInput := func(n int) []byte {
		var b bytes.Buffer
		for b.Len() < n {
			b.WriteString(words[rng.Intn(len(words))])
		}
		return b.Bytes()[:n]
	}

	// served collects the window's answers; they are checked against the
	// software walker at the window's end, so its walks do not move the
	// clock under queries still in flight.
	type served struct {
		t   Table
		key []byte
		got Result
	}
	var answers []served
	verify := func(window int) {
		t.Helper()
		for _, a := range answers {
			want, err := sys.QuerySoftware(a.t, a.key)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(a.got, want) {
				t.Fatalf("window %d: %s key %x: got %+v, software %+v", window, a.t.Name(), a.key, a.got, want)
			}
		}
		answers = answers[:0]
	}

	const windows, maxScan, maxBatch = 40, 700, 48
	capacity := sys.QSTCapacity()
	var brk mem.VAddr
	var aborted, full int
	for w := 0; w < windows; w++ {
		scanLen, batchLen := maxScan, maxBatch
		if w > 0 {
			scanLen, batchLen = 1+rng.Intn(maxScan), 1+rng.Intn(maxBatch)
		}
		in := scanInput(scanLen)
		res, err := sys.Scan(trie, in)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, served{trie, in, res})

		for i := 0; i < 3; i++ {
			tb, k := tables[rng.Intn(len(tables))], probe()
			res, err := sys.Query(tb, k)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, served{tb, k, res})
		}

		// Issue twice the QST's entries back to back: the bound trips.
		type pending struct {
			t   Table
			key []byte
			h   AsyncHandle
		}
		var inflight []pending
		for i := 0; i < 2*capacity; i++ {
			tb, k := tables[rng.Intn(len(tables))], probe()
			h, err := sys.QueryAsync(tb, k)
			if errors.Is(err, ErrQSTFull) {
				full++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			inflight = append(inflight, pending{tb, k, h})
		}
		if w%4 == 3 {
			sys.Interrupt()
		}
		for i, p := range inflight {
			var res Result
			var err error
			if i%2 == 0 {
				res, err = sys.Poll(p.h)
				if errors.Is(err, ErrResultPending) {
					res, err = sys.Wait(p.h)
				}
			} else {
				res, err = sys.Wait(p.h)
			}
			if errors.Is(err, ErrAborted) {
				// Observe the abort once more, then restart the query.
				if _, err := sys.Poll(p.h); !errors.Is(err, ErrAborted) {
					t.Fatalf("second Poll of an aborted handle: %v", err)
				}
				aborted++
				h, qerr := sys.QueryAsync(p.t, p.key)
				if qerr != nil {
					t.Fatal(qerr)
				}
				res, err = sys.Wait(h)
			}
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, served{p.t, p.key, res})
		}

		tb := tables[rng.Intn(len(tables))]
		batch := make([][]byte, batchLen)
		for i := range batch {
			batch[i] = probe()
		}
		rs, err := sys.QueryBatch(tb, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			answers = append(answers, served{tb, batch[i], r})
		}
		verify(w)

		if w == 0 {
			brk = sys.m.AS.Brk()
		} else if got := sys.m.AS.Brk(); got != brk {
			t.Fatalf("window %d: guest memory grew from brk %#x to %#x", w, brk, got)
		}
	}
	if aborted == 0 || full == 0 {
		t.Fatalf("soak exercised too little: %d aborts observed, %d ErrQSTFull", aborted, full)
	}
}

// TestAbortedLineHeldUntilObserved checks that a query aborted by an
// Interrupt keeps its result line until software observes the abort,
// and that polling it again, or polling a retired handle again, never
// frees a line twice.
func TestAbortedLineHeldUntilObserved(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(64, 16, 31)
	tb := mustBuild(t, sys, KindSkipList, keys, vals)

	h, err := sys.QueryAsync(tb, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	sys.Interrupt()
	// Until the abort is observed, no other query gets h's line, however
	// many lines are freed and taken again meanwhile.
	for i := 1; i < 20; i++ {
		h2, err := sys.QueryAsync(tb, keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if h2.resultAddr == h.resultAddr {
			t.Fatalf("query %d took the unobserved aborted query's line %#x", i, h.resultAddr)
		}
		if res, err := sys.Wait(h2); err != nil || res.Value != vals[i] {
			t.Fatalf("query %d: %+v, %v", i, res, err)
		}
	}

	free := len(sys.freeLines)
	for i := 0; i < 3; i++ {
		if _, err := sys.Poll(h); !errors.Is(err, ErrAborted) {
			t.Fatalf("Poll %d of the aborted handle: %v, want ErrAborted", i, err)
		}
		if _, err := sys.Wait(h); !errors.Is(err, ErrAborted) {
			t.Fatalf("Wait %d on the aborted handle: %v, want ErrAborted", i, err)
		}
		if got := len(sys.freeLines); got != free+1 {
			t.Fatalf("after observing the abort %d times, %d lines free, want %d", i+1, got, free+1)
		}
	}

	// The freed line is the next one handed out; observing the old
	// abort again must not free it from under its new owner.
	h3, err := sys.QueryAsync(tb, keys[3])
	if err != nil {
		t.Fatal(err)
	}
	if h3.resultAddr != h.resultAddr {
		t.Fatalf("observed abort's line %#x not reused, got %#x", h.resultAddr, h3.resultAddr)
	}
	free = len(sys.freeLines)
	if _, err := sys.Poll(h); !errors.Is(err, ErrAborted) {
		t.Fatalf("Poll of the aborted handle after reuse: %v", err)
	}
	if got := len(sys.freeLines); got != free {
		t.Fatalf("re-polling the old abort freed its reused line: %d lines free, want %d", got, free)
	}
	if res, err := sys.Wait(h3); err != nil || res.Value != vals[3] {
		t.Fatalf("query on the reused line: %+v, %v", res, err)
	}

	// A retired handle frees its line once, however often it is polled.
	h4, err := sys.QueryAsync(tb, keys[4])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wait(h4); err != nil {
		t.Fatal(err)
	}
	free = len(sys.freeLines)
	for i := 0; i < 2; i++ {
		if _, err := sys.Poll(h4); !errors.Is(err, ErrUnknownHandle) {
			t.Fatalf("Poll of a retired handle: %v, want ErrUnknownHandle", err)
		}
		if _, err := sys.Wait(h4); !errors.Is(err, ErrUnknownHandle) {
			t.Fatalf("Wait on a retired handle: %v, want ErrUnknownHandle", err)
		}
	}
	if got := len(sys.freeLines); got != free {
		t.Fatalf("re-polling a retired handle changed the free lines: %d, want %d", got, free)
	}
	// No line is on the free list twice.
	seen := map[mem.VAddr]bool{}
	for _, l := range sys.freeLines {
		if seen[l] {
			t.Fatalf("line %#x is free twice", l)
		}
		seen[l] = true
	}
}

// TestScanThenShortKeysAsFresh stages a long trie input and then keys
// shorter than their table's 96-byte KeyLen, through Query, QueryAsync
// and QueryBatch: each must answer as the same key staged in fresh
// memory does (QueryAt over System.Write), so the reused areas hold no
// bytes of the earlier input past the key.
func TestScanThenShortKeysAsFresh(t *testing.T) {
	sys := NewSystem(CoreIntegrated)
	keys, vals := testKeys(32, 96, 41)
	// Key 0 is a 40-byte prefix padded with zeros: a short probe of the
	// prefix matches it only if the bytes after it read as zero.
	prefix := keys[0][:40]
	clear(keys[0][40:])
	ht := mustBuild(t, sys, KindHashTable, keys, vals)
	trie := mustBuild(t, sys, KindTrie, [][]byte{[]byte("needle")}, []uint64{9})
	long := bytes.Repeat([]byte("haystack needle "), 64)

	fresh := func(tb Table, k []byte) Result {
		t.Helper()
		r, err := sys.QueryAt(tb, sys.Write(k), len(k))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	probes := [][]byte{prefix, keys[1][:40], keys[2], []byte("abc")}
	for _, k := range probes {
		if _, err := sys.Scan(trie, long); err != nil {
			t.Fatal(err)
		}
		want := fresh(ht, k)
		got, err := sys.Query(ht, k)
		if err != nil || !sameAnswer(got, want) {
			t.Fatalf("Query %x after a long scan: %+v, %v; fresh staging %+v", k, got, err, want)
		}
		if _, err := sys.Scan(trie, long); err != nil {
			t.Fatal(err)
		}
		h, err := sys.QueryAsync(ht, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sys.Wait(h); err != nil || !sameAnswer(got, want) {
			t.Fatalf("QueryAsync %x after a long scan: %+v, %v; fresh staging %+v", k, got, err, want)
		}
	}
	if r := fresh(ht, prefix); !r.Found || r.Value != vals[0] {
		t.Fatalf("fresh staging of the zero-padded prefix: %+v, want value %d", r, vals[0])
	}

	// Short trie inputs after the long one match only what they hold.
	for _, in := range [][]byte{[]byte("need"), []byte("a needle"), []byte("")} {
		want := fresh(trie, in)
		got, err := sys.Scan(trie, in)
		if err != nil || !sameAnswer(got, want) {
			t.Fatalf("Scan %q after a long scan: %+v, %v; fresh staging %+v", in, got, err, want)
		}
	}

	// A batch of long inputs, then a batch of short keys.
	if _, err := sys.QueryBatch(trie, [][]byte{long, long}); err != nil {
		t.Fatal(err)
	}
	got, err := sys.QueryBatch(ht, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probes {
		if want := fresh(ht, k); !sameAnswer(got[i], want) {
			t.Fatalf("batched %x after a long batch: %+v; fresh staging %+v", k, got[i], want)
		}
	}
}
