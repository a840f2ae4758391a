package bloom

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestFilterMembership(t *testing.T) {
	f := New(1000, 10, 1)
	keys := []uint64{0, 1, 0xdeadbeef, 1 << 63, ^uint64(0)}
	for _, k := range keys {
		if f.Test(k) {
			t.Errorf("empty filter claims %#x", k)
		}
	}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Errorf("added key %#x missing", k)
		}
	}
	if f.Entries() != len(keys) {
		t.Errorf("Entries = %d, want %d", f.Entries(), len(keys))
	}
}

// TestFilterNoFalseNegatives is the correctness property the EIA tier
// rests on: a key ever added must always test positive, at every fill
// level including far past the sized capacity.
func TestFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(256, 8, 42)
	added := make([]uint64, 0, 4*256)
	for i := 0; i < 4*256; i++ { // overfill to 4x capacity
		k := rng.Uint64()
		f.Add(k)
		added = append(added, k)
		for _, a := range added {
			if !f.Test(a) {
				t.Fatalf("false negative for %#x after %d adds", a, i+1)
			}
		}
	}
	if !f.Overflowed() {
		t.Error("filter at 4x capacity not Overflowed")
	}
}

// TestFilterFPRateUnderBound measures the false-positive rate at 1×,
// 10× and 100× of a base set size, all at the same bits-per-entry
// budget: the measured rate must stay under a bound derived from the
// blocked-filter geometry, and — the scaling property the fast tier
// sells — must not grow with set size.
func TestFilterFPRateUnderBound(t *testing.T) {
	const (
		base         = 1000
		bitsPerEntry = 10
		probes       = 200000
		// Blocked filters pay a Poisson block-load spread over the ideal
		// Bloom rate; at 10 bits/entry the ideal is ~0.8% and the blocked
		// expectation ~1.2%. 2.5% gives margin without hiding regressions
		// (a halved size or broken probe derivation lands far above it).
		bound = 0.025
	)
	for _, scale := range []int{1, 10, 100} {
		n := base * scale
		f := New(n, bitsPerEntry, 99)
		rng := rand.New(rand.NewSource(int64(scale)))
		present := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			k := rng.Uint64()
			present[k] = true
			f.Add(k)
		}
		fp := 0
		for i := 0; i < probes; i++ {
			k := rng.Uint64()
			if present[k] {
				continue
			}
			if f.Test(k) {
				fp++
			}
		}
		rate := float64(fp) / float64(probes)
		t.Logf("scale %4dx: n=%d bits=%d fill=%.3f fp=%.4f", scale, n, f.Bits(), f.FillRatio(), rate)
		if rate > bound {
			t.Errorf("scale %dx: false-positive rate %.4f exceeds bound %.4f", scale, rate, bound)
		}
	}
}

func TestFilterCloneIndependent(t *testing.T) {
	f := New(100, 10, 3)
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if f.Test(2) {
		t.Error("Add on clone visible in original")
	}
	if !c.Test(1) || !c.Test(2) {
		t.Error("clone lost keys")
	}
	if c.Entries() != 2 || f.Entries() != 1 {
		t.Errorf("entries: clone %d (want 2), original %d (want 1)", c.Entries(), f.Entries())
	}
}

func TestFilterSizing(t *testing.T) {
	f := New(1000, 10, 0)
	if got := f.Bits(); got < 1000*10 {
		t.Errorf("Bits = %d, below requested budget %d", got, 1000*10)
	}
	if k := f.K(); k < 1 || k > 9 {
		t.Errorf("derived K = %d out of [1,9]", k)
	}
	// Degenerate requests still produce a usable filter.
	tiny := New(0, 0, 0)
	tiny.Add(5)
	if !tiny.Test(5) {
		t.Error("degenerate filter lost its key")
	}
}

// TestHashMix sanity-checks the xxh3-style finisher: deterministic,
// seed-sensitive, and avalanching (flipping one input bit flips ~half
// the output bits on average).
func TestHashMix(t *testing.T) {
	if hash64(123, 9) != hash64(123, 9) {
		t.Fatal("hash not deterministic")
	}
	if hash64(123, 1) == hash64(123, 2) {
		t.Error("seed has no effect")
	}
	rng := rand.New(rand.NewSource(11))
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		flipped := k ^ (1 << (i % 64))
		total += bits.OnesCount64(hash64(k, 0) ^ hash64(flipped, 0))
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %.1f bits, want ~32", avg)
	}
}

func BenchmarkFilterTestNegative(b *testing.B) {
	f := New(1_000_000, 10, 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		f.Add(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(uint64(i) * 0x9e3779b97f4a7c15)
	}
}
