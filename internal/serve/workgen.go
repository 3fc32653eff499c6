package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qei/internal/runner"
	"qei/internal/workload"
)

// GenConfig describes one synthetic multi-tenant request stream. The
// stream is a pure function of the config (including Seed): two
// generations with equal configs are byte-identical, at any generation
// parallelism.
type GenConfig struct {
	// Tenants is the number of tenants; tenant popularity follows
	// Zipf(TenantSkew) over tenant rank (tenant 0 hottest).
	Tenants int `json:"tenants"`
	// Requests is the total request count across all tenants.
	Requests int `json:"requests"`
	// KeysPerTenant is each tenant's table population; per-request key
	// choice follows Zipf(KeySkew) over key rank.
	KeysPerTenant int `json:"keys_per_tenant"`
	// KeyLen is the fixed key length in bytes (>= 8: the first eight
	// bytes encode tenant and key rank).
	KeyLen int `json:"key_len"`
	// Kind is the structure kind each tenant's table is built as
	// ("cuckoo", "skiplist", "hashtable", "bst", "btree", "linkedlist").
	Kind string `json:"kind"`
	// TenantSkew and KeySkew are the Zipf exponents (0 = uniform,
	// 0.99 = the YCSB default).
	TenantSkew float64 `json:"tenant_skew"`
	KeySkew    float64 `json:"key_skew"`
	// MeanGap is the aggregate open-loop arrival process's mean
	// inter-arrival time in simulated cycles: requests arrive whether or
	// not earlier ones finished.
	MeanGap uint64 `json:"mean_gap"`
	// Seed drives every random choice.
	Seed int64 `json:"seed"`
	// WriteFraction makes that share of each tenant's requests software
	// mutations instead of lookups; of those, DeleteFraction are deletes
	// and the rest are upserts. Both default to 0 (read-only), and a
	// zero WriteFraction draws nothing from the write RNG, so pre-write
	// streams and their traces stay byte-identical.
	WriteFraction  float64 `json:"write_fraction,omitempty"`
	DeleteFraction float64 `json:"delete_fraction,omitempty"`
}

// Validate checks the config's invariants.
func (c GenConfig) Validate() error {
	switch {
	case c.Tenants < 1:
		return fmt.Errorf("serve: %d tenants", c.Tenants)
	case c.Requests < 1:
		return fmt.Errorf("serve: %d requests", c.Requests)
	case c.KeysPerTenant < 1:
		return fmt.Errorf("serve: %d keys per tenant", c.KeysPerTenant)
	case c.KeyLen < 8:
		return fmt.Errorf("serve: key length %d < 8", c.KeyLen)
	case c.MeanGap < 1:
		return fmt.Errorf("serve: zero mean arrival gap")
	case !(c.WriteFraction >= 0 && c.WriteFraction <= 1): // NaN fails too
		return fmt.Errorf("serve: write fraction %v outside [0,1]", c.WriteFraction)
	case !(c.DeleteFraction >= 0 && c.DeleteFraction <= 1):
		return fmt.Errorf("serve: delete fraction %v outside [0,1]", c.DeleteFraction)
	case !finiteSkew(c.TenantSkew):
		return fmt.Errorf("serve: tenant skew %v is not a finite exponent >= 0", c.TenantSkew)
	case !finiteSkew(c.KeySkew):
		return fmt.Errorf("serve: key skew %v is not a finite exponent >= 0", c.KeySkew)
	}
	return nil
}

// finiteSkew reports whether s is a usable Zipf exponent. A negative
// exponent is no Zipf popularity, and NaN or +Inf (or a large negative
// one) turns the weights into NaN, which tenantCounts cannot split.
func finiteSkew(s float64) bool { return s >= 0 && !math.IsInf(s, 1) }

// Request is one serving-layer request: tenant, probe key, and its
// open-loop arrival cycle.
type Request struct {
	// Seq is the request's position in the merged stream (arrival order).
	Seq int
	// Tenant is the issuing tenant's index.
	Tenant int
	// At is the arrival cycle: the server may not issue earlier, and
	// end-to-end latency is measured from it.
	At uint64
	// Key is the probe key (one of the tenant's TenantKeys).
	Key []byte
	// Op is the operation kind; the zero value is a lookup.
	Op Op
	// Value is the payload of an OpPut request (ignored otherwise).
	Value uint64
}

// tenantSeed derives an independent deterministic sub-seed for tenant t.
func tenantSeed(seed int64, t, salt int) int64 {
	x := uint64(seed) ^ 0x9E3779B97F4A7C15*uint64(t+1) ^ 0x85EBCA6B*uint64(salt+1)
	// xorshift mix so adjacent tenants do not share low bits.
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x >> 1)
}

// zipfWeights returns the normalized Zipf(s) popularity of n ranks.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// tenantCounts splits the total request budget across tenants by Zipf
// weight using largest-remainder rounding (deterministic; every tenant
// with weight gets its floor share, leftovers go to the largest
// fractional parts, ties to the lower tenant index).
func tenantCounts(cfg GenConfig) []int {
	w := zipfWeights(cfg.Tenants, cfg.TenantSkew)
	counts := make([]int, cfg.Tenants)
	type frac struct {
		t int
		f float64
	}
	fracs := make([]frac, cfg.Tenants)
	assigned := 0
	for t, wt := range w {
		exact := wt * float64(cfg.Requests)
		counts[t] = int(exact)
		assigned += counts[t]
		fracs[t] = frac{t, exact - float64(counts[t])}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for i := 0; assigned < cfg.Requests; i++ {
		counts[fracs[i%len(fracs)].t]++
		assigned++
	}
	return counts
}

// TenantKey returns tenant t's key of the given popularity rank: the
// first four bytes encode the tenant, the next four the rank, and the
// tail is a deterministic per-key byte pattern. Keys are unique within
// and across tenants.
func TenantKey(cfg GenConfig, t, rank int) []byte {
	k := make([]byte, cfg.KeyLen)
	fillKey(k, t, rank)
	return k
}

// fillKey writes TenantKey(cfg, t, rank) into k, which has KeyLen bytes.
func fillKey(k []byte, t, rank int) {
	binary.BigEndian.PutUint32(k[0:4], uint32(t))
	binary.BigEndian.PutUint32(k[4:8], uint32(rank))
	x := uint64(t)<<32 | uint64(rank) | 1
	for i := 8; i < len(k); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k[i] = byte(x)
	}
}

// arenaKey returns the i-th KeyLen-byte key of arena, capped so that an
// append to one key never writes into the next.
func arenaKey(arena []byte, keyLen, i int) []byte {
	return arena[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
}

// TenantValue returns the value stored under tenant t's rank-r key:
// unique across the machine and never zero (trie-safe), so backends can
// be cross-checked value-for-value.
func TenantValue(t, rank int) uint64 {
	return uint64(t+1)<<32 | uint64(rank+1)
}

// TenantKeys materializes tenant t's full table contents in rank order —
// what the server hands to Backend.Build. The keys share one arena.
func TenantKeys(cfg GenConfig, t int) (keys [][]byte, values []uint64) {
	keys = make([][]byte, cfg.KeysPerTenant)
	values = make([]uint64, cfg.KeysPerTenant)
	arena := make([]byte, cfg.KeysPerTenant*cfg.KeyLen)
	for r := range keys {
		keys[r] = arenaKey(arena, cfg.KeyLen, r)
		fillKey(keys[r], t, r)
		values[r] = TenantValue(t, r)
	}
	return keys, values
}

// arrival is one request of a tenant's sub-stream, held without a
// pointer until the merge gives it a key: its arrival cycle, put value,
// key rank and operation.
type arrival struct {
	at    uint64
	value uint64
	rank  uint32
	op    uint8 // index into arrivalOps
}

var arrivalOps = [...]Op{OpGet, OpPut, OpDel}

// genTenant produces tenant t's private request sub-stream: count
// arrivals with Zipf(KeySkew) key ranks and an open-loop arrival process
// whose mean gap is the aggregate gap divided by the tenant's
// popularity share. Entirely a function of (cfg, t, count). The keys are
// left as ranks: GenerateParallel writes them into its key arena as it
// merges the sub-streams.
func genTenant(cfg GenConfig, t, count int, share float64) []arrival {
	if count == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(tenantSeed(cfg.Seed, t, 0)))
	pick := workload.NewZipfPicker(cfg.KeysPerTenant, cfg.KeySkew, tenantSeed(cfg.Seed, t, 1))
	// The write decision stream has its own sub-seeded source, created
	// only when writes are enabled: a read-only config consumes exactly
	// the draws it always did, keeping its streams byte-identical.
	var wrng *rand.Rand
	if cfg.WriteFraction > 0 {
		wrng = rand.New(rand.NewSource(tenantSeed(cfg.Seed, t, 2)))
	}
	gap := uint64(math.Round(float64(cfg.MeanGap) / share))
	if gap < 1 {
		gap = 1
	}
	arrs := make([]arrival, count)
	at := uint64(0)
	for i := range arrs {
		// Uniform in [1, 2*gap-1]: mean gap, never zero, deterministic.
		at += 1 + uint64(rng.Int63n(int64(2*gap-1)))
		a := arrival{at: at, rank: uint32(pick.Next())}
		if wrng != nil && wrng.Float64() < cfg.WriteFraction {
			a.op = 1 // OpPut in arrivalOps; 2 is OpDel
			if wrng.Float64() < cfg.DeleteFraction {
				a.op = 2
			} else {
				a.value = wrng.Uint64() | 1 // never zero: trie-safe
			}
		}
		arrs[i] = a
	}
	return arrs
}

// Generate produces the merged open-loop request stream serially.
func Generate(cfg GenConfig) ([]Request, error) {
	return GenerateParallel(cfg, 1)
}

// GenerateParallel produces the same stream with per-tenant generation
// fanned across workers (<= 0 means GOMAXPROCS). Each tenant's
// sub-stream is an independent pure function of the config, and the
// merge orders by (arrival, tenant), so the output is byte-identical to
// Generate at any worker count.
//
// The merge takes the T sub-streams, each already in arrival order,
// through a min-heap of tenant indexes keyed on (next arrival, tenant):
// O(n log T) work into an exact-capacity stream, with Seq assigned as
// each request is emitted. Every key is written into one
// Requests×KeyLen arena, so a stream costs O(T) allocations, not one
// per request.
func GenerateParallel(cfg GenConfig, workers int) ([]Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	counts := tenantCounts(cfg)
	w := zipfWeights(cfg.Tenants, cfg.TenantSkew)
	tenants := make([]int, cfg.Tenants)
	for t := range tenants {
		tenants[t] = t
	}
	streams, err := runner.Map(workers, tenants,
		func(t int) ([]arrival, error) {
			return genTenant(cfg, t, counts[t], w[t]), nil
		})
	if err != nil {
		return nil, err
	}
	// heap holds the tenants with arrivals left, the earliest next
	// arrival (lower tenant on a tie) on top; pos[t] is tenant t's next.
	pos := make([]int, cfg.Tenants)
	heap := make([]int, 0, cfg.Tenants)
	for t, s := range streams {
		if len(s) > 0 {
			heap = append(heap, t)
		}
	}
	less := func(a, b int) bool {
		x, y := streams[a][pos[a]].at, streams[b][pos[b]].at
		return x < y || x == y && a < b
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if r := c + 1; r < len(heap) && less(heap[r], heap[c]) {
				c = r
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	merged := make([]Request, cfg.Requests)
	arena := make([]byte, cfg.Requests*cfg.KeyLen)
	for seq := range merged {
		t := heap[0]
		a := streams[t][pos[t]]
		key := arenaKey(arena, cfg.KeyLen, seq)
		fillKey(key, t, int(a.rank))
		merged[seq] = Request{Seq: seq, Tenant: t, At: a.at, Key: key, Op: arrivalOps[a.op], Value: a.value}
		pos[t]++
		if pos[t] == len(streams[t]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return merged, nil
}
