// Package sketch provides streaming distinct-count sketches for the
// scan-analysis hot path. The workhorse is KMV, a k-minimum-values
// (bottom-k) estimator: it keeps the k smallest distinct hash values
// observed in a stream and estimates the stream's distinct cardinality
// from the k-th order statistic. Below k distinct elements the kept set
// IS the distinct set, so small streams are counted exactly — which is
// what lets the scan analyzer reproduce the trip decisions of exact
// distinct-target sets at small cardinalities. Above k
// the estimator is (k-1)/U(k) with U(k) the k-th smallest hash mapped
// to (0,1], unbiased with relative standard error ~ 1/sqrt(k-2)
// (Beyer et al., "On Synopses for Distinct-Value Estimation Under
// Multiset Operations").
//
// Hashing reuses the seeded xxh3-style mix from internal/bloom, so the
// sketches inherit the avalanche quality the Bloom tier already leans
// on, and two sketches built with the same seed are mergeable: the
// union of two bottom-k sets, trimmed back to its bottom k, is exactly
// the bottom-k of the union stream. That merge is commutative,
// associative and idempotent — a semilattice, like eia.Merge — so
// registers can be combined in any order (and the scan analyzer unions
// a register's current and previous decay generations on every probe).
package sketch

import (
	"math"

	"infilter/internal/bloom"
)

// DefaultK is the register size used when a caller passes k <= 0. 256
// keeps per-register error under ~6.3% — far tighter than needed to
// compare against scan thresholds of ~10 — while bounding a register at
// a few KiB.
const DefaultK = 256

// two64 is 2^64 as a float64, the normalization constant mapping a
// uint64 hash to (0, 1].
var two64 = math.Ldexp(1, 64)

// KMV is a k-minimum-values distinct counter. The zero value is not
// usable; construct with New. KMV is not safe for concurrent use.
type KMV struct {
	k    int
	seed uint64
	// heap is a max-heap over the kept hashes, so heap[0] is the k-th
	// smallest value seen once the sketch is full and eviction is O(log k).
	heap []uint64
	// set mirrors heap for O(1) duplicate suppression; it never holds
	// more than k entries.
	set map[uint64]struct{}
}

// New returns an empty KMV keeping the k smallest distinct hashes under
// the given seed. k <= 0 selects DefaultK. Sketches must share both k
// and seed to be merged or union-estimated.
func New(k int, seed uint64) *KMV {
	if k <= 0 {
		k = DefaultK
	}
	return &KMV{k: k, seed: seed, set: make(map[uint64]struct{}, 8)}
}

// K reports the configured register size.
func (s *KMV) K() int { return s.k }

// Seed reports the hash seed the sketch was built with.
func (s *KMV) Seed() uint64 { return s.seed }

// Count reports how many distinct hashes the sketch currently keeps
// (min(k, distinct elements observed)).
func (s *KMV) Count() int { return len(s.heap) }

// Insert adds one element, identified by a packed uint64 key, to the
// stream. Duplicate keys never change the sketch.
func (s *KMV) Insert(key uint64) {
	s.InsertHash(bloom.Hash64(key, s.seed))
}

// InsertHash adds a pre-hashed element. Exposed so merges and callers
// that batch-hash can skip rehashing; h must come from bloom.Hash64
// under the sketch's own seed for estimates to mean anything.
func (s *KMV) InsertHash(h uint64) {
	if _, dup := s.set[h]; dup {
		return
	}
	if len(s.heap) < s.k {
		s.set[h] = struct{}{}
		s.heap = append(s.heap, h)
		s.siftUp(len(s.heap) - 1)
		return
	}
	if h >= s.heap[0] {
		return
	}
	delete(s.set, s.heap[0])
	s.set[h] = struct{}{}
	s.heap[0] = h
	s.siftDown(0)
}

// Estimate returns the estimated distinct cardinality of the inserted
// stream. While fewer than k distinct elements have been seen the
// answer is exact; afterwards it is the unbiased (k-1)/U(k) estimator.
// Estimate is monotone non-decreasing under Insert.
func (s *KMV) Estimate() float64 {
	n := len(s.heap)
	if n < s.k {
		return float64(n)
	}
	return estimateFromKth(s.k, s.heap[0])
}

// RelativeStdError reports the theoretical relative standard error of
// the estimator at this register size, ~= 1/sqrt(k-2).
func (s *KMV) RelativeStdError() float64 {
	if s.k <= 2 {
		return 1
	}
	return 1 / math.Sqrt(float64(s.k-2))
}

// Merge folds other into s, leaving s the bottom-k sketch of the union
// of both input streams. Both sketches must share k and seed; Merge
// panics otherwise, because silently mixing hash spaces would produce
// garbage estimates. other is left unmodified; a nil or empty other is
// a no-op.
func (s *KMV) Merge(other *KMV) {
	if other == nil || len(other.heap) == 0 {
		return
	}
	if other.k != s.k || other.seed != s.seed {
		panic("sketch: Merge across mismatched k or seed")
	}
	for _, h := range other.heap {
		s.InsertHash(h)
	}
}

// Clone returns an independent deep copy.
func (s *KMV) Clone() *KMV {
	c := &KMV{k: s.k, seed: s.seed, heap: append([]uint64(nil), s.heap...),
		set: make(map[uint64]struct{}, len(s.set))}
	for h := range s.set {
		c.set[h] = struct{}{}
	}
	return c
}

// Reset empties the sketch in place, retaining k and seed.
func (s *KMV) Reset() {
	s.heap = s.heap[:0]
	clear(s.set)
}

// UnionEstimate estimates the distinct cardinality of the union of the
// two sketched streams without building a merged sketch. Either
// argument may be nil or empty. Both must share k and seed (panics
// otherwise). When the combined distinct hash count stays below k the
// result is exact, mirroring Estimate.
func UnionEstimate(a, b *KMV) float64 {
	switch {
	case a == nil || len(a.heap) == 0:
		if b == nil {
			return 0
		}
		return b.Estimate()
	case b == nil || len(b.heap) == 0:
		return a.Estimate()
	}
	if a.k != b.k || a.seed != b.seed {
		panic("sketch: UnionEstimate across mismatched k or seed")
	}
	// Distinct union of the kept sets; dedup via the larger set's map.
	big, small := a, b
	if len(small.heap) > len(big.heap) {
		big, small = small, big
	}
	distinct := len(big.heap)
	var extra []uint64
	for _, h := range small.heap {
		if _, dup := big.set[h]; !dup {
			distinct++
			extra = append(extra, h)
		}
	}
	if distinct < a.k {
		// Both sketches were exact and the union still fits below k.
		return float64(distinct)
	}
	// Need the k-th smallest of the union: the k-th smallest element of
	// big.heap ∪ extra. Selection over <= 2k values; a simple bounded
	// max-heap pass keeps this allocation-light and O(n log k).
	kth := kthSmallest(a.k, big.heap, extra)
	return estimateFromKth(a.k, kth)
}

func estimateFromKth(k int, kth uint64) float64 {
	// Map the k-th smallest hash to U in (0, 1]; +1 keeps U nonzero.
	u := (float64(kth) + 1) / two64
	return float64(k-1) / u
}

// kthSmallest returns the k-th smallest value of the concatenation of
// the two slices (which together hold at least k values, all distinct).
func kthSmallest(k int, xs, ys []uint64) uint64 {
	// Max-heap of the k smallest seen so far.
	heap := make([]uint64, 0, k)
	push := func(h uint64) {
		if len(heap) < k {
			heap = append(heap, h)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if heap[p] >= heap[i] {
					break
				}
				heap[p], heap[i] = heap[i], heap[p]
				i = p
			}
			return
		}
		if h >= heap[0] {
			return
		}
		heap[0] = h
		maxHeapSiftDown(heap, 0)
	}
	for _, h := range xs {
		push(h)
	}
	for _, h := range ys {
		push(h)
	}
	return heap[0]
}

func (s *KMV) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p] >= s.heap[i] {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *KMV) siftDown(i int) { maxHeapSiftDown(s.heap, i) }

func maxHeapSiftDown(heap []uint64, i int) {
	n := len(heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && heap[l] > heap[largest] {
			largest = l
		}
		if r < n && heap[r] > heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		heap[i], heap[largest] = heap[largest], heap[i]
		i = largest
	}
}
