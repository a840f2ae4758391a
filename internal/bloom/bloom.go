// Package bloom provides the probabilistic-membership substrate for the
// EIA fast tier: a cache-line-blocked Bloom filter keyed by packed
// uint64 values hashed with a seeded xxh3-style mix.
//
// The filter is "blocked" (Putze, Sanders, Singler — Cache-, Hash- and
// Space-Efficient Bloom Filters): the first hash selects one 512-bit
// block and every probe lands inside it, so a query touches exactly one
// cache line no matter how large the filter grows. That is what keeps
// per-check cost flat as EIA sets scale 10–1000×: a classic Bloom filter
// takes k scattered misses into an ever-larger bit array, while the
// blocked layout pays one miss and then reads hot words. The price is a
// slightly worse false-positive rate at equal size (block loads are
// Poisson-spread around the mean), which only costs fallback walks —
// never a wrong verdict.
package bloom

import "math/bits"

const (
	// blockWords is one cache line of filter state: 8×64 = 512 bits.
	blockWords = 8
	blockBits  = blockWords * 64
)

// Filter is a blocked Bloom filter over uint64 keys. The block count is
// a power of two so block selection is a mask, and the k in-block probes
// are derived from one hash by double hashing (Kirsch–Mitzenmacher) with
// an odd step, which cycles the full 512-bit block. A Filter has no
// false negatives: Test returns true for every key ever Added. It is not
// safe for concurrent mutation; readers may Test concurrently with each
// other but not with Add (the EIA tier publishes filters immutably
// inside copy-on-write snapshots instead of locking).
type Filter struct {
	blocks    [][blockWords]uint64
	blockMask uint64
	k         uint32
	seed      uint64
	n         int
	capacity  int
}

// New sizes a filter for capacity keys at bitsPerEntry bits each,
// rounding the block count up to a power of two (so the real bit budget
// is never below the request). The probe count per key is the
// information-optimal k = bitsPerEntry·ln2, clamped to at most 9 —
// beyond 9 probes a 512-bit block saturates faster than the extra
// probes pay back.
func New(capacity, bitsPerEntry int, seed uint64) *Filter {
	if capacity < 1 {
		capacity = 1
	}
	if bitsPerEntry < 2 {
		bitsPerEntry = 2
	}
	nblocks := nextPow2((uint64(capacity)*uint64(bitsPerEntry) + blockBits - 1) / blockBits)
	k := min(int(float64(bitsPerEntry)*0.6931+0.5), 9)
	return &Filter{
		blocks:    make([][blockWords]uint64, nblocks),
		blockMask: nblocks - 1,
		k:         uint32(k),
		seed:      seed,
		n:         0,
		capacity:  capacity,
	}
}

func nextPow2(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(v-1))
}

// probes splits one hash into the block index (low bits) and the in-block
// double-hashing pair (high bits; the step is forced odd so consecutive
// probes cycle through all 512 positions).
func (f *Filter) probes(key uint64) (block uint64, h1, h2 uint32) {
	h := hash64(key, f.seed)
	return h & f.blockMask, uint32(h >> 32), uint32(h>>52) | 1
}

// Add inserts key.
func (f *Filter) Add(key uint64) {
	bi, h1, h2 := f.probes(key)
	b := &f.blocks[bi]
	for i := uint32(0); i < f.k; i++ {
		p := (h1 + i*h2) & (blockBits - 1)
		b[p>>6] |= 1 << (p & 63)
	}
	f.n++
}

// Test reports whether key may have been added. False means definitely
// not added; true means added or a false positive.
func (f *Filter) Test(key uint64) bool {
	bi, h1, h2 := f.probes(key)
	b := &f.blocks[bi]
	for i := uint32(0); i < f.k; i++ {
		p := (h1 + i*h2) & (blockBits - 1)
		if b[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy (the copy-on-write insert path of
// the EIA tier: clone, add, publish).
func (f *Filter) Clone() *Filter {
	c := *f
	c.blocks = make([][blockWords]uint64, len(f.blocks))
	copy(c.blocks, f.blocks)
	return &c
}

// Entries returns how many keys have been added (including duplicates —
// the filter cannot distinguish them).
func (f *Filter) Entries() int { return f.n }

// Capacity returns the key count the filter was sized for.
func (f *Filter) Capacity() int { return f.capacity }

// Overflowed reports whether more keys were added than the filter was
// sized for; the owner should rebuild at a larger size to restore the
// designed false-positive rate.
func (f *Filter) Overflowed() bool { return f.n > f.capacity }

// Bits returns the total bit size.
func (f *Filter) Bits() int { return len(f.blocks) * blockBits }

// K returns the probe count per key.
func (f *Filter) K() int { return int(f.k) }

// FillRatio returns the fraction of set bits, the direct health signal
// for the designed false-positive rate (≈ (fill)^k).
func (f *Filter) FillRatio() float64 {
	if len(f.blocks) == 0 {
		return 0
	}
	set := 0
	for i := range f.blocks {
		for _, w := range f.blocks[i] {
			set += bits.OnesCount64(w)
		}
	}
	return float64(set) / float64(f.Bits())
}
