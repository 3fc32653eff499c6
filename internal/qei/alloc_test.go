package qei

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qei/internal/cfa"
	"qei/internal/dstruct"
	"qei/internal/hwdesc"
	"qei/internal/isa"
	"qei/internal/machine"
	"qei/internal/mem"
	"qei/internal/metrics"
	"qei/internal/scheme"
)

// kindCase is one built-in structure with a staged probe.
type kindCase struct {
	name   string
	header mem.VAddr
	key    []byte
	keyLen uint32 // descriptor KeyLen (trie scans only)
}

// builtinCases builds one instance of each of the seven built-in
// structures in m with a probe that hits. The trie probe is a scan that
// matches no keyword: a scan that matches allocates exactly the Matches
// its result keeps.
func builtinCases(m *machine.Machine) []kindCase {
	keys, vals := genKeys(512, 16, 9)
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("passwd"), []byte("admin")}
	scan := []byte("GET /index.html?lang=en HTTP/1.1")
	return []kindCase{
		{"linkedlist", dstruct.BuildLinkedList(m.AS, keys[:32], vals[:32]).HeaderAddr, keys[20], 0},
		{"hashtable", dstruct.BuildHashTable(m.AS, 64, 3, keys, vals).HeaderAddr, keys[7], 0},
		{"cuckoo", dstruct.BuildCuckoo(m.AS, 256, 4, 3, keys, vals).HeaderAddr, keys[7], 0},
		{"skiplist", dstruct.BuildSkipList(m.AS, 3, keys, vals).HeaderAddr, keys[7], 0},
		{"bst", dstruct.BuildBST(m.AS, 3, 64, keys, vals).HeaderAddr, keys[7], 0},
		{"trie", dstruct.BuildTrie(m.AS, kws, []uint64{1, 2, 3, 4}).HeaderAddr, scan, uint32(len(scan))},
		{"btree", dstruct.BuildBTree(m.AS, 16, keys, vals).HeaderAddr, keys[7], 0},
	}
}

// TestQueryAllocatesNothing pins the per-query path: once warmed, a
// blocking execution of every built-in kind, with its result read and
// forgotten the way System retires it, allocates nothing on the host.
func TestQueryAllocatesNothing(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	for _, c := range builtinCases(m) {
		qd := &isa.QueryDesc{HeaderAddr: c.header, KeyAddr: stage(m, c.key), KeyLen: c.keyLen}
		cycle := uint64(0)
		run := func() {
			qd.Tag++
			done, err := a.IssueBlocking(qd, cycle)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := a.Result(qd.Tag); !ok || r.Fault != nil {
				t.Fatalf("%s: result %+v, %v", c.name, r, ok)
			}
			a.Forget(qd.Tag)
			cycle = done
		}
		for i := 0; i < 8; i++ {
			run()
		}
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("%s: %v allocs per warmed query, want 0", c.name, got)
		}
	}
}

// batchAllocBound is the stated ceiling on the average host
// allocations of one warmed ExecuteBatch. Everything the engine needs
// comes from the accelerator's batchPool; only the result records' map
// could still allocate, when it rehashes, which averages out well below
// one per batch.
const batchAllocBound = 0

// TestExecuteBatchAllocationBounded pins the level-wise engine on a B+
// tree and a cuckoo table: a warmed batch of 16 keys allocates at most
// batchAllocBound times.
func TestExecuteBatchAllocationBounded(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(2048, 16, 5)
	for _, c := range []struct {
		name   string
		header mem.VAddr
	}{
		{"btree", dstruct.BuildBTree(m.AS, 16, keys, vals).HeaderAddr},
		{"cuckoo", dstruct.BuildCuckoo(m.AS, 1024, 4, 3, keys, vals).HeaderAddr},
	} {
		qds := make([]*isa.QueryDesc, 16)
		for i := range qds {
			qds[i] = &isa.QueryDesc{HeaderAddr: c.header, KeyAddr: stage(m, keys[i*97]),
				ResultAddr: m.AS.AllocLines(mem.LineSize)}
		}
		tag, cycle := uint64(0), uint64(0)
		run := func() {
			for _, qd := range qds {
				tag++
				qd.Tag = tag
			}
			done, deferred, err := a.ExecuteBatch(qds, cycle)
			if err != nil || len(deferred) != 0 {
				t.Fatalf("%s: deferred %v, err %v", c.name, deferred, err)
			}
			for _, qd := range qds {
				a.Forget(qd.Tag)
			}
			cycle = done
		}
		for i := 0; i < 4; i++ {
			run()
		}
		if got := testing.AllocsPerRun(100, run); got > batchAllocBound {
			t.Errorf("%s: %v allocs per warmed batch, want ≤ %d", c.name, got, batchAllocBound)
		}
	}
}

// TestBatchCursorsOwnTheirStorage stages two batch cursors from the
// same header staging and steps them alternately: neither cursor's
// request ops may change when the other steps, since each cursor's
// query owns its own storage.
func TestBatchCursorsOwnTheirStorage(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(256, 16, 3)
	bt := dstruct.BuildBTree(m.AS, 8, keys, vals)
	qds := []*isa.QueryDesc{
		{HeaderAddr: bt.HeaderAddr, KeyAddr: stage(m, keys[3]), Tag: 1},
		{HeaderAddr: bt.HeaderAddr, KeyAddr: stage(m, keys[200]), Tag: 2},
	}
	if a.stageBatch(qds) == nil || len(a.batch.reps) != 2 {
		t.Fatalf("staged %d representatives, want 2", len(a.batch.reps))
	}
	c0, c1 := a.batch.reps[0], a.batch.reps[1]
	for step := 0; ; step++ {
		r0, err0 := c0.walk.Next()
		ops0 := slices.Clone(r0.Ops)
		r1, err1 := c1.walk.Next()
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if !slices.Equal(r0.Ops, ops0) {
			t.Fatalf("step %d: cursor 0's ops %v changed to %v when cursor 1 stepped", step, ops0, r0.Ops)
		}
		if step == 0 && (r0.Ops[0].Addr != qds[0].KeyAddr || r1.Ops[0].Addr != qds[1].KeyAddr) {
			t.Fatalf("key fetches %v, %v; want each cursor's own key", r0.Ops[0], r1.Ops[0])
		}
		if r0.Next == cfa.StateDone || r1.Next == cfa.StateDone {
			if !r0.Found || r0.Value != vals[3] || !r1.Found || r1.Value != vals[200] {
				t.Fatalf("results %+v, %+v; want %d, %d", r0, r1, vals[3], vals[200])
			}
			return
		}
	}
}

// TestMatchesSurviveLaterQueries keeps trie-scan results and checks a
// later query — per-query or batched on the same pooled cursors —
// never writes into their Matches.
func TestMatchesSurviveLaterQueries(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	kws := [][]byte{[]byte("attack"), []byte("root"), []byte("passwd"), []byte("admin")}
	tr := dstruct.BuildTrie(m.AS, kws, []uint64{1, 2, 3, 4})
	inputs := [][]byte{
		[]byte("GET /rootkit?admin=1"),
		[]byte("attack passwd attack"),
		[]byte("admin root root admin"),
		[]byte("passwd=admin;root;attack"),
	}
	want := make([][]uint64, len(inputs))
	for i, in := range inputs {
		w, err := dstruct.ScanTrieRef(m.AS, tr.HeaderAddr, in)
		if err != nil || len(w) < 2 {
			t.Fatalf("reference scan %q: %v %v", in, w, err)
		}
		want[i] = w
	}
	desc := func(i int, tag uint64) *isa.QueryDesc {
		return &isa.QueryDesc{HeaderAddr: tr.HeaderAddr, KeyAddr: stage(m, inputs[i]),
			KeyLen: uint32(len(inputs[i])), ResultAddr: m.AS.AllocLines(mem.LineSize), Tag: tag}
	}
	check := func(what string, tags []uint64, idx []int) {
		t.Helper()
		for j, tag := range tags {
			r, ok := a.Result(tag)
			if !ok || !slices.Equal(r.Matches, want[idx[j]]) {
				t.Fatalf("%s: tag %d matches %v, want %v", what, tag, r.Matches, want[idx[j]])
			}
		}
	}

	// Per-query: two scans in a row on the accelerator's one scratch.
	for i := 0; i < 2; i++ {
		if _, err := a.IssueBlocking(desc(i, uint64(10+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	check("per-query", []uint64{10, 11}, []int{0, 1})

	// Batched: a second batch reuses the first one's cursors.
	first := []*isa.QueryDesc{desc(0, 20), desc(1, 21)}
	second := []*isa.QueryDesc{desc(2, 30), desc(3, 31)}
	for _, qds := range [][]*isa.QueryDesc{first, second} {
		if _, deferred, err := a.ExecuteBatch(qds, 0); err != nil || len(deferred) != 0 {
			t.Fatalf("deferred %v, err %v", deferred, err)
		}
	}
	check("first batch", []uint64{20, 21}, []int{0, 1})
	check("second batch", []uint64{30, 31}, []int{2, 3})
	check("per-query after batches", []uint64{10, 11}, []int{0, 1})
}

// TestStampMapMatchesMap drives stampMap against a reference map on
// random operation sequences, with generations of up to 6000 distinct
// lines (beyond the 4096 a long trie scan stages) and resets in
// between.
func TestStampMapMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sm stampMap
		ref := map[uint64]uint64{}
		for gen := 0; gen < 40; gen++ {
			// Line addresses: 64-byte aligned, clustered like a walk's.
			span := uint64(8 + rng.Intn(6000))
			base := uint64(rng.Intn(1<<20)) * mem.LineSize
			for op := 0; op < 3*int(span); op++ {
				key := base + uint64(rng.Int63n(int64(span)))*mem.LineSize
				switch rng.Intn(4) {
				case 0:
					v := rng.Uint64()
					_, had := ref[key]
					if added := sm.put(key, v); added == had {
						t.Fatalf("seed %d: put(%#x) added=%v, reference had=%v", seed, key, added, had)
					}
					ref[key] = v
				case 1:
					_, had := ref[key]
					if added := sm.add(key); added == had {
						t.Fatalf("seed %d: add(%#x) added=%v, reference had=%v", seed, key, added, had)
					}
					if !had {
						ref[key] = 0
					}
				default:
					v, ok := sm.get(key)
					rv, rok := ref[key]
					if ok != rok || v != rv || sm.has(key) != rok {
						t.Fatalf("seed %d: get(%#x) = %d,%v; reference %d,%v", seed, key, v, ok, rv, rok)
					}
				}
			}
			if sm.live != len(ref) {
				t.Fatalf("seed %d: %d live keys, reference %d", seed, sm.live, len(ref))
			}
			sm.reset()
			clear(ref)
			for i := 0; i < 64; i++ {
				if sm.has(base + uint64(i)*mem.LineSize) {
					t.Fatalf("seed %d: key survived reset", seed)
				}
			}
		}
	}
}

// TestStampMapGenerationWrap forces the generation counter around and
// checks keys stamped before the wrap do not come back.
func TestStampMapGenerationWrap(t *testing.T) {
	var sm stampMap
	sm.add(64)
	sm.gen = ^uint32(0) - 1 // as if 2^32-2 resets had passed
	sm.put(128, 7)
	sm.reset() // gen = max
	sm.add(192)
	sm.reset() // wraps
	if !sm.add(256) || sm.live != 1 {
		t.Fatalf("add after wrap: live %d", sm.live)
	}
	for _, k := range []uint64{64, 128, 192} {
		if sm.has(k) {
			t.Errorf("key %d present after the generation wrapped", k)
		}
	}
}

// BenchmarkExecute measures one warmed per-query execution of each
// built-in kind on the Core-integrated scheme, result retired.
func BenchmarkExecute(b *testing.B) {
	m := machine.New(hwdesc.Default())
	a := New(m, scheme.ForKind(scheme.CoreIntegrated), cfa.DefaultRegistry(), 3)
	for _, c := range builtinCases(m) {
		qd := &isa.QueryDesc{HeaderAddr: c.header, KeyAddr: stage(m, c.key), KeyLen: c.keyLen}
		b.Run(c.name, func(b *testing.B) {
			cycle := uint64(0)
			run := func() {
				qd.Tag++
				done, err := a.IssueBlocking(qd, cycle)
				if err != nil {
					b.Fatal(err)
				}
				a.Forget(qd.Tag)
				cycle = done
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkExecuteBatch measures one warmed level-wise batch of 16 B+
// tree lookups, results retired.
func BenchmarkExecuteBatch(b *testing.B) {
	m := machine.New(hwdesc.Default())
	a := New(m, scheme.ForKind(scheme.CoreIntegrated), cfa.DefaultRegistry(), 3)
	keys, vals := genKeys(4096, 16, 5)
	bt := dstruct.BuildBTree(m.AS, 16, keys, vals)
	qds := make([]*isa.QueryDesc, 16)
	for i := range qds {
		qds[i] = &isa.QueryDesc{HeaderAddr: bt.HeaderAddr, KeyAddr: stage(m, keys[i*251]),
			ResultAddr: m.AS.AllocLines(mem.LineSize)}
	}
	tag, cycle := uint64(0), uint64(0)
	run := func() {
		for _, qd := range qds {
			tag++
			qd.Tag = tag
		}
		done, _, err := a.ExecuteBatch(qds, cycle)
		if err != nil {
			b.Fatal(err)
		}
		for _, qd := range qds {
			a.Forget(qd.Tag)
		}
		cycle = done
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestForgetDropsRecords checks Forget drops both records a
// non-blocking query leaves: its result and its flush record.
func TestForgetDropsRecords(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(64, 16, 8)
	bst := dstruct.BuildBST(m.AS, 3, 64, keys, vals)
	qd := &isa.QueryDesc{HeaderAddr: bst.HeaderAddr, KeyAddr: stage(m, keys[4]),
		ResultAddr: m.AS.AllocLines(mem.LineSize), Tag: 9}
	if _, err := a.IssueNonBlocking(qd, 0); err != nil {
		t.Fatal(err)
	}
	if len(a.results) != 1 || len(a.nbInFlight) != 1 {
		t.Fatalf("after issue: %d results, %d flush records; want 1, 1", len(a.results), len(a.nbInFlight))
	}
	a.Forget(qd.Tag)
	if len(a.results) != 0 || len(a.nbInFlight) != 0 {
		t.Fatalf("after Forget: %d results, %d flush records; want none", len(a.results), len(a.nbInFlight))
	}
}

// TestBatchPoolReuseIsInvisible runs the same batch twice on one
// accelerator: the second run reuses every pooled buffer, and its
// functional counters must equal the first run's.
func TestBatchPoolReuseIsInvisible(t *testing.T) {
	m, a := newAccel(t, scheme.CoreIntegrated)
	keys, vals := genKeys(2048, 16, 6)
	bt := dstruct.BuildBTree(m.AS, 16, keys, vals)
	qds := make([]*isa.QueryDesc, 24)
	for i := range qds {
		k := keys[(i%20)*61] // four duplicate keys coalesce
		qds[i] = &isa.QueryDesc{HeaderAddr: bt.HeaderAddr, KeyAddr: stage(m, k),
			ResultAddr: m.AS.AllocLines(mem.LineSize), Tag: uint64(i)}
	}
	var deltas [2]Stats
	for run := range deltas {
		before := a.Stats()
		if _, deferred, err := a.ExecuteBatch(qds, 0); err != nil || len(deferred) != 0 {
			t.Fatalf("run %d: deferred %v, err %v", run, deferred, err)
		}
		d := a.Stats().Sub(before)
		if d.BatchTranslationsSaved == 0 || d.BatchLinesDeduped == 0 || d.BatchCoalescedProbes != 4 {
			t.Fatalf("run %d: batch shares nothing: %+v", run, d)
		}
		deltas[run] = d
	}
	first, second := deltas[0], deltas[1]
	if first.BatchTranslationsSaved != second.BatchTranslationsSaved ||
		first.BatchLinesDeduped != second.BatchLinesDeduped ||
		first.BatchCoalescedProbes != second.BatchCoalescedProbes ||
		first.BatchLevels != second.BatchLevels || first.MemLines != second.MemLines ||
		first.Transitions != second.Transitions {
		t.Fatalf("reused pool changed the batch's counters:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// resetRun is what one run of resetWorkload observes: each query's
// completion and record, the flush latency, the statistics and the
// metrics registered over the accelerator.
type resetRun struct {
	Done    []uint64
	Results []Result
	Flush   uint64
	Stats   Stats
	Metrics string
}

// resetWorkload lays a cuckoo table out in m, which is in the state
// machine.New builds, and runs blocking and non-blocking queries on a
// and an interrupt among them.
func resetWorkload(t *testing.T, m *machine.Machine, a *Accelerator, reg *metrics.Registry) resetRun {
	t.Helper()
	keys, vals := genKeys(96, 16, 11)
	ck := dstruct.BuildCuckoo(m.AS, 64, 4, 9, keys, vals)
	results := m.AS.AllocLines(32 * mem.LineSize)
	var run resetRun
	cycle := uint64(100)
	for i, key := range keys {
		qd := &isa.QueryDesc{HeaderAddr: ck.HeaderAddr, KeyAddr: stage(m, key), Tag: uint64(i)}
		var done uint64
		var err error
		if i%3 == 0 {
			qd.ResultAddr = results + mem.VAddr(i%32*mem.LineSize)
			done, err = a.TryIssueNonBlocking(qd, cycle)
		} else {
			done, err = a.IssueBlocking(qd, cycle)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == 60 {
			run.Flush = a.Flush(done)
		}
		run.Done = append(run.Done, done)
		cycle = done
	}
	for i := range keys {
		r, _ := a.Result(uint64(i))
		run.Results = append(run.Results, r)
	}
	run.Stats = a.Stats()
	run.Metrics = reg.Snapshot().String()
	return run
}

// TestResetMatchesNew runs one machine and accelerator through every
// scheme, each run after Machine.Reset and Accelerator.Reset, with the
// accelerator's metrics registered once before the first, and requires
// each run to equal the same run on a new machine and accelerator with
// a registry of their own: the dedicated TLBs kept from a CHA-TLB run
// must serve a device scheme's run as new ones do.
func TestResetMatchesNew(t *testing.T) {
	m := machine.New(hwdesc.Default())
	a := New(m, scheme.ForKind(scheme.CoreIntegrated), cfa.DefaultRegistry(), 3)
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)
	for _, k := range []scheme.Kind{scheme.CHATLB, scheme.CoreIntegrated, scheme.DeviceDirect, scheme.CHANoTLB, scheme.CHATLB, scheme.DeviceIndirect} {
		p := scheme.ForKind(k)
		m.Reset()
		a.Reset(m, p, cfa.DefaultRegistry(), 3)
		got := resetWorkload(t, m, a, reg)

		fm := machine.New(hwdesc.Default())
		fa := New(fm, p, cfa.DefaultRegistry(), 3)
		freg := metrics.NewRegistry()
		fa.RegisterMetrics(freg)
		if want := resetWorkload(t, fm, fa, freg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a reset accelerator's run differs from a new one's:\n%+v\nwant\n%+v", k, got, want)
		}
	}
}
