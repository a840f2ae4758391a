package analysis

import (
	"bytes"
	"fmt"
	"testing"
)

// bloomCfgVariant returns base with the EIA Bloom tier enabled at the
// given bits-per-entry budget.
func bloomCfgVariant(base Config, bitsPerEntry int) Config {
	base.EIA.BloomBitsPerEntry = bitsPerEntry
	return base
}

// encodeDecision packs the observable outcome of one flow into the
// verdict stream the equivalence gate compares byte-for-byte.
func encodeDecision(buf *bytes.Buffer, d Decision) {
	buf.WriteByte(byte(d.Verdict))
	if d.Attack {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	buf.WriteString(string(d.Stage))
	if d.Promoted {
		buf.WriteByte('P')
	}
	buf.WriteByte('\n')
}

// TestBloomTierVerdictStreamIdentical is the Bloom tier's correctness
// gate on the per-record path: with the fast tier enabled, the serial
// engine must produce a byte-identical per-record decision stream —
// verdict, attack flag, deciding stage, promotions — over a workload that
// spans promotions and re-homes. Run at 1 bit/entry (filters saturate,
// heavy false-positive pressure, every path through the fallback) and at
// the production default of 10.
func TestBloomTierVerdictStreamIdentical(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)

	runStream := func(cfg Config) []byte {
		eng, err := NewEngine(cfg, freshTrainedSet(cfg, w.labeled), detector)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for _, lr := range stream {
			encodeDecision(&out, eng.Process(lr.Peer, lr.Record))
		}
		return out.Bytes()
	}
	want := runStream(w.cfg)

	for _, bits := range []int{1, 10} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			got := runStream(bloomCfgVariant(w.cfg, bits))
			if !bytes.Equal(got, want) {
				t.Fatalf("decision stream with Bloom tier (%d bits/entry) differs from exact-only stream", bits)
			}
		})
	}
}

// TestBloomTierBatchMatchesExact replays the mixed stream through the
// batch loop with the Bloom tier on — Engine.ProcessBatch, and a
// ParallelEngine at 1 and 3 shards — at every pinned batch size:
// counters, per-peer alert streams and the EIA end-state must match the
// tier-free per-record Engine.Process reference. The wider sizes span
// promotions, so the mid-batch snapshot refresh runs against freshly
// republished filters.
func TestBloomTierBatchMatchesExact(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	want, _ := runSerialReference(t, w.cfg, w, detector, stream)

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
	want, _ := runSerialReference(t, w.cfg, w, detector, mixedStream(w))
	got := runPerPeerStreams(t, bloomCfgVariant(w.cfg, 10), w, detector, 3, 16)
	requireSameOutcome(t, got, want)
}
