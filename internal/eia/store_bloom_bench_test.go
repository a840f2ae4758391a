package eia

import (
	"math/rand"
	"testing"

	"infilter/internal/netaddr"
)

// BenchmarkCheckBatchMatch measures the Bloom tier's worst case: a
// 256-record single-peer batch of expected traffic, where every probe
// that runs is wasted work and the adaptive bypass is what keeps the
// tier's tax near zero. Contrast the exact sub-benchmark against bloom
// to read the residual per-record cost of having the tier enabled.
func BenchmarkCheckBatchMatch(b *testing.B) {
	const n = 256
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"bloom", Config{BloomBitsPerEntry: 10}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			set, inserted := trainRandom(rng, tc.cfg, 600, 1)
			st := NewStore(set)
			srcs := make([]netaddr.Addr, n)
			out := make([]Verdict, n)
			for i := range srcs {
				srcs[i] = v4In(inserted[i%len(inserted)].pfx, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.CheckBatch(0, srcs, out)
			}
		})
	}
}
