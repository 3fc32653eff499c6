package qei

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/scheme"
)

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
		vals = append(vals, uint64(len(keys))*17+3)
	}
	return keys, vals
}

func stage(m *machine.Machine, key []byte) mem.VAddr {
	a := m.AS.AllocLines(uint64(len(key)))
	m.AS.MustWrite(a, key)
	return a
}

func newAccel(t *testing.T, k scheme.Kind) (*machine.Machine, *Accelerator) {
	t.Helper()
	m := machine.New(hwdesc.Default())
	return m, New(m, scheme.ForKind(k), cfa.DefaultRegistry(), 3)
}

func TestBlockingQueryCorrectAllSchemes(t *testing.T) {
	for _, k := range scheme.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			m, a := newAccel(t, k)
			keys, vals := genKeys(200, 16, 1)
			ht := dstruct.BuildCuckoo(m.AS, 128, 4, 7, keys, vals)
			cycle := uint64(100)
			for i, key := range keys {
				qd := &isa.QueryDesc{
					HeaderAddr: ht.HeaderAddr,
					KeyAddr:    stage(m, key),
					Tag:        uint64(i),
				}
				done, err := a.IssueBlocking(qd, cycle)
				if err != nil {
					t.Fatal(err)
				}
				if done <= cycle {
					t.Fatalf("query %d completed at %d, issued at %d", i, done, cycle)
				}
				r, ok := a.Result(uint64(i))
				if !ok || !r.Found || r.Value != vals[i] {
					t.Fatalf("query %d result = %+v, want value %d", i, r, vals[i])
				}
				cycle = done
			}
		})
	}
}

func TestAllStructuresThroughAccelerator(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(100, 16, 2)
	headers := map[string]mem.VAddr{
		"linkedlist": dstruct.BuildLinkedList(m.AS, keys[:20], vals[:20]).HeaderAddr,
		"hashtable":  dstruct.BuildHashTable(m.AS, 32, 3, keys, vals).HeaderAddr,
		"cuckoo":     dstruct.BuildCuckoo(m.AS, 64, 4, 3, keys, vals).HeaderAddr,
		"skiplist":   dstruct.BuildSkipList(m.AS, 3, keys, vals).HeaderAddr,
		"bst":        dstruct.BuildBST(m.AS, 3, 64, keys, vals).HeaderAddr,
	}
	tag := uint64(0)
	for name, hdr := range headers {
		n := len(keys)
		if name == "linkedlist" {
			n = 20
		}
		for i := 0; i < n; i++ {
			qd := &isa.QueryDesc{HeaderAddr: hdr, KeyAddr: stage(m, keys[i]), Tag: tag}
			if _, err := a.IssueBlocking(qd, 10); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, _ := a.Result(tag)
			if !r.Found || r.Value != vals[i] {
				t.Fatalf("%s key %d: %+v want %d", name, i, r, vals[i])
			}
			tag++
		}
	}
}

func TestTrieScanThroughAccelerator(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("admin")}
	tr := dstruct.BuildTrie(m.AS, kws, []uint64{1, 2, 3})
	input := []byte("GET /rootkit?admin=1")
	want, err := dstruct.ScanTrieRef(m.AS, tr.HeaderAddr, input)
	if err != nil {
		t.Fatal(err)
	}
	qd := &isa.QueryDesc{
		HeaderAddr: tr.HeaderAddr,
		KeyAddr:    stage(m, input),
		KeyLen:     uint32(len(input)),
		Tag:        77,
	}
	if _, err := a.IssueBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(77)
	if len(r.Matches) != len(want) {
		t.Fatalf("matches %v, want %v", r.Matches, want)
	}
}

func TestOverlappingQueriesBeatSerial(t *testing.T) {
	// Ten independent queries issued back-to-back must finish far sooner
	// than ten queries issued serially (QST MLP, Sec. IV-B).
	build := func() (*machine.Machine, *Accelerator, []mem.VAddr, mem.VAddr) {
		m, a := newAccel(t, scheme.CoreIntegrated)
		keys, vals := genKeys(2000, 32, 3)
		sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
		var kaddrs []mem.VAddr
		for i := 0; i < 10; i++ {
			kaddrs = append(kaddrs, stage(m, keys[i*20]))
		}
		return m, a, kaddrs, sl.HeaderAddr
	}

	// Overlapped: all issued at cycle 0.
	_, a1, kaddrs1, hdr1 := build()
	var lastOverlap uint64
	for i, ka := range kaddrs1 {
		done, err := a1.IssueBlocking(&isa.QueryDesc{HeaderAddr: hdr1, KeyAddr: ka, Tag: uint64(i)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if done > lastOverlap {
			lastOverlap = done
		}
	}

	// Serial: each issued after the previous finishes.
	_, a2, kaddrs2, hdr2 := build()
	var cycle uint64
	for i, ka := range kaddrs2 {
		done, err := a2.IssueBlocking(&isa.QueryDesc{HeaderAddr: hdr2, KeyAddr: ka, Tag: uint64(i)}, cycle)
		if err != nil {
			t.Fatal(err)
		}
		cycle = done
	}

	if lastOverlap >= cycle {
		t.Fatalf("overlapped makespan %d not better than serial %d", lastOverlap, cycle)
	}
	if float64(cycle)/float64(lastOverlap) < 1.5 {
		t.Fatalf("overlap speedup only %.2fx; QST should extract real MLP", float64(cycle)/float64(lastOverlap))
	}
}

func TestQSTBackPressure(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(500, 32, 4)
	sl := dstruct.BuildSkipList(m.AS, 7, keys, vals)
	// Issue 50 queries at cycle 0 against a 10-entry QST: stalls must occur.
	for i := 0; i < 50; i++ {
		qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[i*5]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().QSTStallCycles == 0 {
		t.Fatal("50 simultaneous queries against QST=10 recorded no stalls")
	}
}

func TestNonBlockingWritesResult(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(50, 16, 5)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 9, keys, vals)
	resAddr := m.AS.AllocLines(64)
	qd := &isa.QueryDesc{
		HeaderAddr: ck.HeaderAddr,
		KeyAddr:    stage(m, keys[7]),
		ResultAddr: resAddr,
		Tag:        7,
	}
	accepted, err := a.IssueNonBlocking(qd, 100)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(7)
	if accepted >= r.Done {
		t.Fatalf("accepted at %d, result done at %d — acceptance must precede completion", accepted, r.Done)
	}
	if !r.Found || r.Value != vals[7] {
		t.Fatalf("result %+v, want %d", r, vals[7])
	}
	// The completion flag and value must be visible in memory (polling).
	flag, err := m.AS.ReadU64(resAddr)
	if err != nil {
		t.Fatal(err)
	}
	if flag != 3 {
		t.Fatalf("completion flag = %d, want 3 (found)", flag)
	}
	val, _ := m.AS.ReadU64(resAddr + 8)
	if val != vals[7] {
		t.Fatalf("polled value = %d, want %d", val, vals[7])
	}
}

func TestNonBlockingRejectsMissingResultAddr(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(5, 16, 6)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 9, keys, vals)
	qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[0])}
	if _, err := a.IssueNonBlocking(qd, 0); err == nil {
		t.Fatal("non-blocking query without result address accepted")
	}
}

func TestExceptionOnUnmappedStructure(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	// A header whose root points into unmapped memory.
	hdr := dstruct.WriteHeader(m.AS, dstruct.Header{
		Root: 0xdead0000, Type: dstruct.TypeLinkedList, KeyLen: 8, Size: 1,
	})
	key := stage(m, make([]byte, 8))
	done, err := a.IssueBlocking(&isa.QueryDesc{HeaderAddr: hdr, KeyAddr: key, Tag: 1}, 0)
	if err != nil {
		t.Fatalf("exception should be architectural, not a simulator error: %v", err)
	}
	if done == 0 {
		t.Fatal("exception query has no completion cycle")
	}
	r, _ := a.Result(1)
	if r.Fault == nil {
		t.Fatal("fault not recorded in result")
	}
	if a.Stats().Exceptions != 1 {
		t.Fatalf("Exceptions = %d, want 1", a.Stats().Exceptions)
	}
}

func TestFlushAbortsInFlightNB(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(50, 16, 7)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 9, keys, vals)
	resAddr := m.AS.AllocLines(64)
	qd := &isa.QueryDesc{
		HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[3]),
		ResultAddr: resAddr, Tag: 3,
	}
	if _, err := a.IssueNonBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	// Interrupt arrives at cycle 1, long before completion.
	lat := a.Flush(1)
	if lat == 0 {
		t.Fatal("flush with pending NB queries should cost cycles")
	}
	r, _ := a.Result(3)
	if !r.Aborted {
		t.Fatal("in-flight NB query not aborted")
	}
	code, _ := m.AS.ReadU64(resAddr)
	if code != 0xAB {
		t.Fatalf("abort code = %#x, want 0xAB", code)
	}
	if a.Stats().AbortedNB != 1 {
		t.Fatalf("AbortedNB = %d", a.Stats().AbortedNB)
	}
}

func TestFlushAfterCompletionIsFree(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(10, 16, 8)
	ck := dstruct.BuildCuckoo(m.AS, 16, 4, 9, keys, vals)
	resAddr := m.AS.AllocLines(64)
	qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[0]), ResultAddr: resAddr, Tag: 0}
	if _, err := a.IssueNonBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := a.Result(0)
	if lat := a.Flush(r.Done + 100); lat != 0 {
		t.Fatalf("flush after completion cost %d cycles, want 0", lat)
	}
	if r2, _ := a.Result(0); r2.Aborted {
		t.Fatal("completed query marked aborted")
	}
}

// TestInFlightCountMatchesBruteForce drives a seeded mix of QUERY_NB
// issues (fresh and reissued tags), blocking queries, Forgets and
// Flushes at non-decreasing cycles, and checks inFlightNB and every
// TryIssueNonBlocking admit or reject against a brute-force count of
// the queries still executing.
func TestInFlightCountMatchesBruteForce(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(64, 16, 11)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 9, keys, vals)
	keyAddrs := make([]mem.VAddr, len(keys))
	for i, k := range keys {
		keyAddrs[i] = stage(m, k)
	}
	resAddr := m.AS.AllocLines(64)
	rng := rand.New(rand.NewSource(3))
	// live holds the done cycle of every accepted query not yet
	// forgotten or flushed.
	live := map[uint64]uint64{}
	brute := func(at uint64) int {
		n := 0
		for _, done := range live {
			if done > at {
				n++
			}
		}
		return n
	}
	// liveTag picks a recorded tag by the seeded source, so the sequence
	// does not depend on map iteration order.
	liveTag := func() (uint64, bool) {
		if len(live) == 0 {
			return 0, false
		}
		tags := make([]uint64, 0, len(live))
		for tag := range live {
			tags = append(tags, tag)
		}
		slices.Sort(tags)
		return tags[rng.Intn(len(tags))], true
	}
	var at, next uint64
	var admits, rejects, flushes int
	for step := 0; step < 4000; step++ {
		at += uint64(rng.Intn(25))
		k := rng.Intn(len(keys))
		switch r := rng.Intn(20); {
		case r < 12:
			tag := next + 1
			if old, ok := liveTag(); ok && r == 0 {
				tag = old // reissue a tag still recorded
			} else {
				next++
			}
			full := brute(at) >= a.Capacity()
			qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: keyAddrs[k], ResultAddr: resAddr, Tag: tag}
			_, err := a.TryIssueNonBlocking(qd, at)
			if full != errors.Is(err, ErrQSTFull) {
				t.Fatalf("step %d: brute count %d at cycle %d, capacity %d, but TryIssueNonBlocking returned %v",
					step, brute(at), at, a.Capacity(), err)
			}
			if err == nil {
				rec, _ := a.Result(tag)
				live[tag] = rec.Done
				admits++
			} else {
				rejects++
			}
		case r < 14:
			next++
			qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: keyAddrs[k], Tag: next}
			if _, err := a.IssueBlocking(qd, at); err != nil {
				t.Fatal(err)
			}
			a.Forget(next)
		case r < 19:
			if tag, ok := liveTag(); ok {
				a.Forget(tag)
				delete(live, tag)
			}
		default:
			if rng.Intn(8) == 0 {
				want := uint64(brute(at))
				before := a.Stats().AbortedNB
				a.Flush(at)
				if got := a.Stats().AbortedNB - before; got != want {
					t.Fatalf("step %d: Flush aborted %d queries, brute count %d", step, got, want)
				}
				clear(live)
				flushes++
			}
		}
		if rng.Intn(4) == 0 {
			if got, want := a.inFlightNB(at), brute(at); got != want {
				t.Fatalf("step %d: inFlightNB(%d) = %d, brute count %d", step, at, got, want)
			}
		}
	}
	t.Logf("%d admits, %d rejects, %d flushes", admits, rejects, flushes)
	if admits == 0 || rejects == 0 || flushes == 0 {
		t.Fatalf("sequence exercised too little: %d admits, %d rejects, %d flushes", admits, rejects, flushes)
	}
}

func TestCoreIntegratedAvoidsL1Pollution(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(400, 32, 9)
	sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
	for i := 0; i < 100; i++ {
		qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[i*3]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The serving core's L1D must be untouched by accelerator traffic.
	hits, misses, _, _ := m.Hier.L1D[3].Stats()
	if hits+misses != 0 {
		t.Fatalf("accelerator touched the L1D (%d accesses)", hits+misses)
	}
	// And the L2 must have been used (DataViaL2).
	h2, m2, _, _ := m.Hier.L2[3].Stats()
	if h2+m2 == 0 {
		t.Fatal("Core-integrated scheme did not use the shared L2")
	}
}

func TestCHASchemesAvoidPrivateCachesEntirely(t *testing.T) {
	m, a := newAccel(t, scheme.CHATLB)
	keys, vals := genKeys(200, 16, 10)
	ck := dstruct.BuildCuckoo(m.AS, 128, 4, 5, keys, vals)
	for i := 0; i < 100; i++ {
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, keys[i]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	for core := 0; core < m.Desc.Cores; core++ {
		h1, m1, _, _ := m.Hier.L1D[core].Stats()
		h2, m2, _, _ := m.Hier.L2[core].Stats()
		if h1+m1+h2+m2 != 0 {
			t.Fatalf("CHA scheme touched private caches of core %d", core)
		}
	}
}

func TestRemoteCompareUsedForLargeKeys(t *testing.T) {
	// RocksDB-style 100 B keys are not inline in the fetched node line,
	// so Core-integrated must compare remotely at the CHAs.
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(300, 100, 11)
	sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
	for i := 0; i < 50; i++ {
		qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[i*2]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
		r, _ := a.Result(uint64(i))
		if !r.Found || r.Value != vals[i*2] {
			t.Fatalf("query %d wrong: %+v", i, r)
		}
	}
	s := a.Stats()
	if s.RemoteCompares == 0 {
		t.Fatal("no remote compares recorded for 100 B keys")
	}
}

func TestDeviceSchemesFetchInsteadOfRemoteCompare(t *testing.T) {
	m, a := newAccel(t, scheme.DeviceIndirect)
	keys, vals := genKeys(100, 100, 12)
	sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
	qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[10]), Tag: 0}
	if _, err := a.IssueBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.RemoteCompares != 0 {
		t.Fatal("device scheme performed remote compares")
	}
	if s.LocalCompares == 0 {
		t.Fatal("no local compares recorded")
	}
}

func TestSchemeLatencyOrdering(t *testing.T) {
	// For a single dependent-heavy query, Tab. I predicts:
	// Core-integrated < CHA-TLB < Device-direct < Device-indirect.
	latency := func(k scheme.Kind) uint64 {
		m, a := newAccel(t, k)
		keys, vals := genKeys(500, 32, 13)
		sl := dstruct.BuildSkipList(m.AS, 3, keys, vals)
		qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[250]), Tag: 0}
		done, err := a.IssueBlocking(qd, 0)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	ci := latency(scheme.CoreIntegrated)
	ct := latency(scheme.CHATLB)
	dd := latency(scheme.DeviceDirect)
	di := latency(scheme.DeviceIndirect)
	if !(ci < dd && ct < dd && dd < di) {
		t.Fatalf("latency ordering violated: CI=%d CHA-TLB=%d DD=%d DI=%d", ci, ct, dd, di)
	}
}

func TestCHANoTLBSlowerThanCHATLB(t *testing.T) {
	// At steady state the dedicated TLBs hit almost always ("few TLB
	// misses in our tests", Sec. VII-A) and the core-MMU round trip of
	// CHA-noTLB shows. Enough queries are needed to amortize warming all
	// 24 per-CHA TLBs, so measure only after a warmup pass.
	run := func(k scheme.Kind) uint64 {
		m, a := newAccel(t, k)
		keys, vals := genKeys(500, 32, 14)
		sl := dstruct.BuildSkipList(m.AS, 9, keys, vals)
		var cycle uint64
		for i := 0; i < 200; i++ { // warmup: touch every page from every instance
			qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[(i*13)%500]), Tag: uint64(i)}
			done, err := a.IssueBlocking(qd, cycle)
			if err != nil {
				t.Fatal(err)
			}
			cycle = done
		}
		start := cycle
		for i := 0; i < 200; i++ {
			qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[(i*7)%500]), Tag: uint64(1000 + i)}
			done, err := a.IssueBlocking(qd, cycle)
			if err != nil {
				t.Fatal(err)
			}
			cycle = done
		}
		return cycle - start
	}
	withTLB := run(scheme.CHATLB)
	without := run(scheme.CHANoTLB)
	if without <= withTLB {
		t.Fatalf("CHA-noTLB (%d) should be slower than CHA-TLB (%d) at steady state", without, withTLB)
	}
	// Paper: the gap is 0.5%–17.9%, "not as much as we initially
	// expected" — it must not be an order of magnitude.
	if ratio := float64(without) / float64(withTLB); ratio > 1.6 {
		t.Fatalf("CHA-noTLB/CHA-TLB = %.2f — gap implausibly large", ratio)
	}
}

func TestOccupancyTracked(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(300, 32, 15)
	sl := dstruct.BuildSkipList(m.AS, 5, keys, vals)
	for i := 0; i < 100; i++ {
		qd := &isa.QueryDesc{HeaderAddr: sl.HeaderAddr, KeyAddr: stage(m, keys[i*2]), Tag: uint64(i)}
		if _, err := a.IssueBlocking(qd, 0); err != nil {
			t.Fatal(err)
		}
	}
	occ := a.Stats().Occupancy()
	if occ <= 0 {
		t.Fatalf("occupancy = %f, want > 0", occ)
	}
	if occ > float64(a.Params().QSTEntriesPerInstance)+0.01 {
		t.Fatalf("occupancy %f exceeds QST capacity %d", occ, a.Params().QSTEntriesPerInstance)
	}
}
