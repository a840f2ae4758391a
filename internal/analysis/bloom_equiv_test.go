package analysis

import (
	"fmt"
	"testing"
)

// bloomCfgVariant returns base with the EIA Bloom tier enabled at the
// given bits-per-entry budget.
func bloomCfgVariant(base Config, bitsPerEntry int) Config {
	base.EIA.BloomBitsPerEntry = bitsPerEntry
	return base
}

// TestBloomTierVerdictStreamIdentical is the Bloom tier's correctness
// gate on one-record batches: with the fast tier enabled, the serial
// engine must produce an identical per-record decision stream — verdict,
// attack flag, deciding stage, NNS assessment, promotions — over a
// workload that spans promotions and re-homes. Run at 1 bit/entry
// (filters saturate, heavy false-positive pressure, every path through
// the fallback) and at the production default of 10.
func TestBloomTierVerdictStreamIdentical(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	want := runSerialBatches(t, w.cfg, w, detector, stream, 1).decisions

	for _, bits := range []int{1, 10} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			requireSameDecisions(t, runSerialBatches(t, bloomCfgVariant(w.cfg, bits), w, detector, stream, 1).decisions, want)
		})
	}
}

// TestBloomTierBatchMatchesExact replays the mixed stream through the
// batch loop with the Bloom tier on — Engine.ProcessBatch, and a
// ParallelEngine at 1 and 3 shards — at every pinned batch size:
// counters, per-peer alert streams and the EIA end-state (and, for the
// serial engine, every record's Decision) must match the tier-free
// one-record-batch reference. The wider sizes span
// promotions, so the mid-batch snapshot refresh runs against freshly
// republished filters.
func TestBloomTierBatchMatchesExact(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	want := runSerialReference(t, w.cfg, w, detector, stream)

	for _, bits := range []int{1, 10} {
		cfg := bloomCfgVariant(w.cfg, bits)
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("bits=%d/serial/batch=%d", bits, size), func(t *testing.T) {
				requireSameOutcome(t, runSerialBatches(t, cfg, w, detector, stream, size), want)
			})
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("bits=%d/shards=%d/batch=%d", bits, shards, size), func(t *testing.T) {
					requireSameOutcome(t, runMixedStream(t, cfg, w, detector, stream, shards, size), want)
				})
			}
		}
	}
}

// TestBloomTierParallelMatchesExact drives the sharded engine with the
// Bloom tier enabled — concurrent SubmitBatch against the COW snapshot
// store republishing filters under promotion load — and demands the
// counters, alert streams and EIA end-state of the exact serial
// reference. Under -race this is also the data-race gate for the
// published tier.
func TestBloomTierParallelMatchesExact(t *testing.T) {
	w := buildParallelWorkload(t)
	detector := mustDetector(t, w)
	want := runSerialReference(t, w.cfg, w, detector, mixedStream(w))
	got := runPerPeerStreams(t, bloomCfgVariant(w.cfg, 10), w, detector, 3, 16)
	requireSameOutcome(t, got, want)
}
