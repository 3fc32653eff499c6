package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qei/internal/golden"
	"qei/internal/workload"
)

// refKey is the key encoding TenantKey documents, written out on its
// own so the reference generator below shares no key code with the
// package.
func refKey(cfg GenConfig, t, rank int) []byte {
	k := make([]byte, cfg.KeyLen)
	binary.BigEndian.PutUint32(k[0:4], uint32(t))
	binary.BigEndian.PutUint32(k[4:8], uint32(rank))
	x := uint64(t)<<32 | uint64(rank) | 1
	for i := 8; i < cfg.KeyLen; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k[i] = byte(x)
	}
	return k
}

// refGenerate is the stream generator's specification: each tenant's
// sub-stream drawn in full, one allocated key per request, then every
// stream concatenated and stably sorted by (arrival, tenant).
func refGenerate(cfg GenConfig) []Request {
	counts := tenantCounts(cfg)
	w := zipfWeights(cfg.Tenants, cfg.TenantSkew)
	var merged []Request
	for t := 0; t < cfg.Tenants; t++ {
		if counts[t] == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(tenantSeed(cfg.Seed, t, 0)))
		pick := workload.NewZipfPicker(cfg.KeysPerTenant, cfg.KeySkew, tenantSeed(cfg.Seed, t, 1))
		var wrng *rand.Rand
		if cfg.WriteFraction > 0 {
			wrng = rand.New(rand.NewSource(tenantSeed(cfg.Seed, t, 2)))
		}
		gap := uint64(math.Round(float64(cfg.MeanGap) / w[t]))
		if gap < 1 {
			gap = 1
		}
		at := uint64(0)
		for i := 0; i < counts[t]; i++ {
			at += 1 + uint64(rng.Int63n(int64(2*gap-1)))
			req := Request{Tenant: t, At: at, Key: refKey(cfg, t, pick.Next())}
			if wrng != nil && wrng.Float64() < cfg.WriteFraction {
				if wrng.Float64() < cfg.DeleteFraction {
					req.Op = OpDel
				} else {
					req.Op = OpPut
					req.Value = wrng.Uint64() | 1
				}
			}
			merged = append(merged, req)
		}
	}
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].At != merged[b].At {
			return merged[a].At < merged[b].At
		}
		return merged[a].Tenant < merged[b].Tenant
	})
	for i := range merged {
		merged[i].Seq = i
	}
	return merged
}

// GenerateParallel must produce the reference stream exactly, at any
// worker count: one tenant and hundreds (most of them idle under a
// steep tenant skew), arrivals that tie across tenants (MeanGap 1),
// uniform and skewed tenants, writes and deletes, and keys of the bare
// eight-byte header, one tail byte and a long tail.
func TestGenerateMatchesSortedMerge(t *testing.T) {
	base := GenConfig{Requests: 3000, KeysPerTenant: 64, KeyLen: 16, Kind: "cuckoo",
		TenantSkew: 0.99, KeySkew: 0.99, MeanGap: 50, Seed: 11}
	cases := []func(c *GenConfig){
		func(c *GenConfig) { c.Tenants, c.KeyLen = 1, 8 },
		func(c *GenConfig) { c.Tenants, c.MeanGap, c.WriteFraction, c.DeleteFraction = 4, 1, 0.3, 0.3 },
		func(c *GenConfig) { c.Tenants, c.KeyLen, c.TenantSkew, c.MeanGap = 37, 9, 0, 1 },
		func(c *GenConfig) { c.Tenants, c.KeyLen, c.TenantSkew, c.KeySkew = 37, 24, 2, 0 },
		func(c *GenConfig) {
			c.Tenants, c.KeyLen, c.TenantSkew, c.MeanGap, c.WriteFraction, c.DeleteFraction = 300, 24, 2, 3, 0.5, 1
		},
		func(c *GenConfig) {
			c.Tenants, c.KeyLen, c.TenantSkew, c.MeanGap, c.WriteFraction = 300, 8, 0, 1, 0.2
		},
	}
	for _, edit := range cases {
		cfg := base
		edit(&cfg)
		want := refGenerate(cfg)
		for _, workers := range []int{1, 3, 0} {
			got, err := GenerateParallel(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v at %d workers: stream differs from the sorted merge", cfg, workers)
			}
		}
	}
}

// streamDigest is FNV-64a over every field of every request.
func streamDigest(reqs []Request) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range reqs {
		word(uint64(r.Seq))
		word(uint64(r.Tenant))
		word(r.At)
		word(uint64(len(r.Key)))
		h.Write(r.Key)
		word(uint64(len(r.Op)))
		h.Write([]byte(r.Op))
		word(r.Value)
	}
	return h.Sum64()
}

// servingGen is a full-size read-only stream: 200 000
// requests over four tenants' 1024-key tables, Zipf 0.99 on both axes.
func servingGen() GenConfig {
	return GenConfig{Tenants: 4, Requests: 200000, KeysPerTenant: 1024, KeyLen: 16,
		Kind: "bst", TenantSkew: 0.99, KeySkew: 0.99, MeanGap: 64, Seed: 1}
}

// Full-size streams are pinned by digest, so a generator change that
// moves one byte of a 200 000-request stream fails here before any
// serving golden has to be read.
func TestGenerateDigestGolden(t *testing.T) {
	rw := servingGen()
	rw.WriteFraction, rw.DeleteFraction = 0.3, 0.3
	var out strings.Builder
	out.WriteString("# FNV-64a over Seq, Tenant, At, Key, Op and Value of every request\n")
	for _, c := range []struct {
		name string
		cfg  GenConfig
	}{{"read", servingGen()}, {"rw", rw}} {
		reqs, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s requests=%d digest=%016x\n", c.name, len(reqs), streamDigest(reqs))
	}
	golden.Check(t, "testdata/stream_digests.txt", out.String())
}

// A stream costs a fixed number of allocations per tenant, whatever
// its length: arrivals carry no pointers and every key lives in one
// arena.
func TestGenerateAllocationsIndependentOfRequests(t *testing.T) {
	cfg := testGenRW()
	allocs := func(requests int) float64 {
		cfg.Requests = requests
		return testing.AllocsPerRun(5, func() {
			if _, err := GenerateParallel(cfg, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n, n4 := allocs(2000), allocs(8000); n != n4 {
		t.Fatalf("%v allocations for 2000 requests, %v for 8000", n, n4)
	}
}

// Benchmark results land in these so the measured calls stay live.
var (
	benchStream []Request
	benchReport *Report
)

// BenchmarkGenerate generates a 200 000-request, four-tenant stream on
// one worker.
func BenchmarkGenerate(b *testing.B) {
	cfg := servingGen()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		reqs, err := GenerateParallel(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchStream = reqs
	}
}

// BenchmarkServeRun serves a 20 000-request, four-tenant read-write
// stream through the test backend: the server loop's admission,
// queueing and accounting with table builds of map cost.
func BenchmarkServeRun(b *testing.B) {
	cfg := servingGen()
	cfg.Requests, cfg.WriteFraction, cfg.DeleteFraction = 20000, 0.3, 0.3
	reqs, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rep, err := Run(&fakeBackend{lat: 200, cap: 8}, Config{Gen: cfg}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
}
