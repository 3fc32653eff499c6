package serve

import "math/bits"

// LatencyHist is a streaming latency collector over simulated cycles:
// HdrHistogram-style fixed buckets — exact below 32 cycles, then 16
// logarithmic sub-buckets per power of two — so recording is O(1) with
// no per-sample allocation and quantiles carry a bounded ~6% relative
// error at any magnitude. All state is uint64 counts, so two histograms
// fed the same samples are byte-identical regardless of feed order.
type LatencyHist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	max    uint64
}

const (
	// histLinear is the exact linear range: values < 32 get their own
	// bucket.
	histLinear = 32
	// histSubBits gives 2^4 = 16 sub-buckets per octave above the linear
	// range.
	histSubBits = 4
	// histBuckets covers the full uint64 range: 32 linear + 16 per
	// octave for exponents 5..63.
	histBuckets = histLinear + (64-5)*(1<<histSubBits)
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= 5
	sub := int((v >> uint(exp-histSubBits)) & (1<<histSubBits - 1))
	return histLinear + (exp-5)<<histSubBits + sub
}

// bucketMax returns the largest value a bucket holds — the quantile
// estimate reported for samples landing in it.
func bucketMax(i int) uint64 {
	if i < histLinear {
		return uint64(i)
	}
	i -= histLinear
	exp := 5 + i>>histSubBits
	sub := uint64(i & (1<<histSubBits - 1))
	width := uint64(1) << uint(exp-histSubBits)
	return uint64(1)<<uint(exp) + (sub+1)*width - 1
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(v uint64) {
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *LatencyHist) Count() uint64 { return h.count }

// Max returns the exact largest sample (0 when empty).
func (h *LatencyHist) Max() uint64 { return h.max }

// Mean returns the exact average (0 when empty).
func (h *LatencyHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile sample (0 <= q <= 1), clamped to the exact observed max so
// p999-of-few-samples never exceeds reality. 0 when empty.
func (h *LatencyHist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: floor(q·n) clamped to [1, n].
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMax(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds other's samples into h (bucket layouts are identical by
// construction). Merging is commutative and associative.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}
