package qei

// Tests for the level-wise batch engine: parity with the per-query path
// (clean, under chaos, and across mutations), determinism, and batched
// admission in the serving frontend.

import (
	"math/rand"
	"slices"
	"testing"

	iqei "qei/internal/qei"
	"qei/internal/serve"
)

// batchKinds are the built-in fixed-length-key kinds the engine walks
// level-wise.
var batchKinds = []StructKind{
	KindBTree, KindBST, KindSkipList, KindCuckoo, KindHashTable, KindLinkedList,
}

// batchTestProbes draws a shuffled probe set over keys with duplicates
// and absent keys mixed in.
func batchTestProbes(keys, absent [][]byte, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && rng.Intn(6) == 0:
			probes = append(probes, probes[rng.Intn(len(probes))])
		case rng.Intn(6) == 0:
			probes = append(probes, absent[rng.Intn(len(absent))])
		default:
			probes = append(probes, keys[rng.Intn(len(keys))])
		}
	}
	return probes
}

// TestQueryBatchLevelWiseMatchesPerQuery pins the engine's core
// contract on a clean machine: for every built-in fixed-key kind, the
// level-wise batch returns exactly what sequential per-query lookups
// return, probe for probe, under shuffled order, duplicates, and
// misses. Batches of 1 and 3 keys and trie scans take the same engine
// and must match too, a trie scan's Matches included.
func TestQueryBatchLevelWiseMatchesPerQuery(t *testing.T) {
	type batchCase struct {
		name string
		kind StructKind
		n    int
	}
	var cases []batchCase
	for _, kind := range batchKinds {
		cases = append(cases, batchCase{kind.String(), kind, 48})
	}
	cases = append(cases,
		batchCase{"btree-1", KindBTree, 1},
		batchCase{"cuckoo-3", KindCuckoo, 3},
		batchCase{"trie", KindTrie, 0})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			keys, vals := testKeys(256, 16, 21)
			absent, _ := testKeys(32, 16, 22)
			probes := batchTestProbes(keys, absent, c.n, 23)
			query := (*System).Query
			if c.kind == KindTrie {
				keys, vals = [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}, []uint64{10, 20, 30}
				probes = [][]byte{
					[]byte("xx alpha yy beta"), []byte("nothing here"), []byte("gammagamma"),
					[]byte("xx alpha yy beta"), []byte("betalphabet"),
				}
				query = (*System).Scan
			}

			s := NewSystem(CoreIntegrated)
			tb, err := s.Build(c.kind, keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.QueryBatch(tb, probes)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(probes) {
				t.Fatalf("%d results for %d probes", len(got), len(probes))
			}
			for i, p := range probes {
				want, err := query(s, tb, p)
				if err != nil {
					t.Fatal(err)
				}
				g := got[i]
				if g.Found != want.Found || g.Value != want.Value || !slices.Equal(g.Matches, want.Matches) || (g.Err == nil) != (want.Err == nil) {
					t.Fatalf("probe %d: batch (found=%v value=%d matches=%v err=%v) != per-query (found=%v value=%d matches=%v err=%v)",
						i, g.Found, g.Value, g.Matches, g.Err, want.Found, want.Value, want.Matches, want.Err)
				}
			}
		})
	}
}

// TestQueryBatchLevelWiseUnderChaosAndMutation is the property test:
// with fault injection and the cycle watchdog armed and software
// mutations interleaved between batches, every level-wise and every
// per-query result that carries no fault equals the software walker's
// answer on the same table state — and the epoch GC records zero
// read-after-retire violations.
func TestQueryBatchLevelWiseUnderChaosAndMutation(t *testing.T) {
	for _, kind := range []StructKind{KindBST, KindSkipList, KindCuckoo} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := NewSystem(CoreIntegrated,
				// Recoverable chaos only: timing faults and spurious traps
				// either retry to the correct answer or surface as a
				// fault; flip corrupts data silently and no execution
				// strategy can agree on it.
				WithFaultInjection(MustParseFaultSpec("17:nocdelay=0.05,spurious=0.02,evict=0.05,shootdown=0.05")),
				WithQueryCycleBudget(2_000_000))
			keys, vals := testKeys(128, 16, 41)
			absent, extra := testKeys(64, 16, 42)
			mt, err := s.BuildMutable(kind, keys, vals)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(43))
			live := append([][]byte(nil), keys...)
			var answered int
			for round := 0; round < 4; round++ {
				// Mutate between batches: a few inserts of fresh keys and
				// deletes of live ones.
				for i := 0; i < 6; i++ {
					j := round*8 + i
					if i%2 == 0 && j < len(absent) {
						if err := mt.Insert(absent[j], extra[j]); err != nil {
							t.Fatal(err)
						}
						live = append(live, absent[j])
					} else if len(live) > 8 {
						di := rng.Intn(len(live))
						if _, err := mt.Delete(live[di]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:di], live[di+1:]...)
					}
				}
				probes := batchTestProbes(live, absent, 32, 44+int64(round))
				got, err := s.QueryBatch(mt.Table, probes)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range probes {
					per, err := s.Query(mt.Table, p)
					if err != nil {
						t.Fatal(err)
					}
					sw, err := s.QuerySoftware(mt.Table, p)
					if err != nil {
						t.Fatal(err)
					}
					// A result without a fault must carry the software
					// walker's answer; latency may differ.
					check := func(path string, r Result) {
						if r.Err != nil {
							return
						}
						answered++
						if r.Found != sw.Found || r.Value != sw.Value {
							t.Fatalf("round %d probe %d: %s (found=%v value=%d) != software (found=%v value=%d)",
								round, i, path, r.Found, r.Value, sw.Found, sw.Value)
						}
					}
					check("batch", got[i])
					check("per-query", per)
				}
			}
			if answered == 0 {
				t.Fatal("every result faulted; nothing was compared")
			}
			if v := s.EpochViolations(); v != 0 {
				t.Fatalf("%d read-after-retire epoch violations", v)
			}
		})
	}
}

// TestQueryBatchLevelWiseDeterministic pins determinism: two fresh
// machines given the identical batch produce identical cycle counts,
// results, and engine counters.
func TestQueryBatchLevelWiseDeterministic(t *testing.T) {
	keys, vals := testKeys(512, 16, 51)
	absent, _ := testKeys(32, 16, 52)
	probes := batchTestProbes(keys, absent, 64, 53)

	run := func() ([]Result, uint64, iqei.Stats) {
		s := NewSystem(CoreIntegrated)
		tb, err := s.Build(KindBTree, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		start := s.Now()
		rs, err := s.QueryBatch(tb, probes)
		if err != nil {
			t.Fatal(err)
		}
		return rs, s.Now() - start, s.accel.Stats()
	}
	r1, c1, st1 := run()
	r2, c2, st2 := run()
	if c1 != c2 {
		t.Fatalf("batch cycles differ across identical runs: %d vs %d", c1, c2)
	}
	if st1 != st2 {
		t.Fatalf("engine stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	for i := range r1 {
		if r1[i].Found != r2[i].Found || r1[i].Value != r2[i].Value || r1[i].Latency != r2[i].Latency {
			t.Fatalf("probe %d differs across identical runs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if st1.BatchTranslationsSaved == 0 || st1.BatchLinesDeduped == 0 {
		t.Fatalf("amortization counters flat: %+v", st1)
	}
}

// TestServeBatchedAdmission pins the serving frontend's batched path:
// the same stream served with and without batched admission retires
// every request with identical architectural answers — read-only,
// under writes, and under injected faults on the resilient path — and
// the batch report carries the flush and amortization counters.
func TestServeBatchedAdmission(t *testing.T) {
	cfg := DefaultServingConfig()
	cfg.Requests = 160
	cfg.Kind = KindBTree
	plain, batched := servePlainAndBatched(t, cfg)
	if batched.Batch == nil {
		t.Fatal("batched run carries no batch report")
	}
	if batched.Batch.Batches == 0 || batched.Batch.BatchedReads == 0 {
		t.Fatalf("batched run flushed nothing: %+v", batched.Batch)
	}
	if batched.Batch.TranslationsSaved == 0 {
		t.Fatalf("batched run amortized no translations: %+v", batched.Batch)
	}
	if plain.Batch != nil {
		t.Fatal("plain run unexpectedly carries a batch report")
	}

	// The software walker has no batch path; batched admission on it is
	// a configuration error, not a silent fallback.
	bcfg := cfg
	bcfg.Backend = "baseline"
	bcfg.BatchAdmit = 8
	if _, err := RunServing(bcfg); err == nil {
		t.Fatal("baseline backend accepted batched admission")
	}

	// Batched admission under writes keeps read-your-writes ordering.
	wcfg := DefaultServingConfig()
	wcfg.Requests = 160
	wcfg.Kind = KindBST
	wcfg.WriteFraction = 0.25
	servePlainAndBatched(t, wcfg)

	// Batched reads that still fault after the engine's per-query re-run
	// fail over like unbatched ones (no deadline: SLO 0).
	fcfg := cfg
	spec := MustParseFaultSpec("9:spurious=0.3,shootdown=0.05")
	fcfg.Faults = &spec
	fcfg.Resilient = true
	fcfg.SLO = 0
	_, fbatched := servePlainAndBatched(t, fcfg)
	if fbatched.Total.Faults != 0 || fbatched.Total.FailedOver == 0 {
		t.Fatalf("batched chaos run: %d faults surfaced, %d failed over", fbatched.Total.Faults, fbatched.Total.FailedOver)
	}
}

// servePlainAndBatched serves cfg without and with batched admission
// (groups of 8) and fails unless both retire every request with the
// same found/value answer and no epoch violation.
func servePlainAndBatched(t *testing.T, cfg ServingConfig) (plain, batched *serve.Report) {
	t.Helper()
	cfg.KeepResults = true
	plain, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatchAdmit = 8
	batched, err = RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := batched.Total.Requests, plain.Total.Requests; got != want {
		t.Fatalf("batched run retired %d requests, plain retired %d", got, want)
	}
	for seq := range plain.Results {
		p, b := plain.Results[seq], batched.Results[seq]
		if p.Found != b.Found || p.Value != b.Value {
			t.Fatalf("request %d: batched (found=%v value=%d) != plain (found=%v value=%d)",
				seq, b.Found, b.Value, p.Found, p.Value)
		}
	}
	if v := batched.EpochViolations; v != 0 {
		t.Fatalf("%d epoch violations under batched admission", v)
	}
	return plain, batched
}

// The qei adapter is the batch-capable backend the server requires.
var _ serve.BatchBackend = (*qeiServeBackend)(nil)
