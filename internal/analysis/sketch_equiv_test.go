package analysis

import (
	"fmt"
	"math"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/scan"
)

// scanEquivProbes is each peer's scan width in the equivalence workload.
const scanEquivProbes = 20

// buildScanEquivWorkload is the small-cardinality workload of the
// sketch-vs-ring equivalence gate: per-peer streams that interleave
// legal flows with a 20-probe network scan from one foreign source. Each
// peer's scan has its own destination port and hosts, so its trip
// decisions do not depend on which other peers share its shard's
// analyzer, and all 160 suspects together fit both the 200-entry ring
// (no eviction) and the KMV registers' exact range (20 < k = 256) with no
// decay rotation — so either backend, at any shard count, must emit
// byte-identical verdicts; any divergence is a bug, not noise. Promotion
// is pushed out of reach so the scanning source can never be laundered
// into the EIA set mid-stream.
func buildScanEquivWorkload(t *testing.T) parallelWorkload {
	t.Helper()
	cfg := Config{
		Mode: ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 1 << 30},
		Scan: scan.Config{}, // defaults; ExactBuffer toggled per engine
	}
	w := parallelWorkload{cfg: cfg, streams: make(map[eia.PeerAS][]flow.Record)}
	for p := 1; p <= workloadPeers; p++ {
		peer := eia.PeerAS(p)
		trainPfx := netaddr.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", 20+p))
		for _, r := range flowsFromPackets(t, int64(p), 120, trainPfx) {
			w.labeled = append(w.labeled, LabeledRecord{Peer: peer, Record: r})
		}

		legal := flowsFromPackets(t, int64(1000+p), 30, trainPfx)
		scanSrc := netaddr.MustParseAddr(fmt.Sprintf("%d.9.9.9", 200+p))
		var stream []flow.Record
		for i := 0; i < scanEquivProbes; i++ {
			if i < len(legal) {
				stream = append(stream, legal[i])
			}
			stream = append(stream, flow.Record{
				Key: flow.Key{
					Src:     scanSrc,
					Dst:     netaddr.MustParseAddr(fmt.Sprintf("192.0.%d.%d", 2+p, i+1)),
					Proto:   flow.ProtoUDP,
					SrcPort: uint16(40000 + i),
					DstPort: uint16(1434 + p),
					InputIf: 1,
				},
				Packets: 1, Bytes: 404,
				Start: start, End: start,
			})
		}
		w.streams[peer] = stream
	}
	return w
}

// TestSketchMatchesRingOracleThroughParallelEngine is the end-to-end
// arm of the sketch-vs-ring equivalence: at small cardinalities the
// streaming backend must reproduce the exact ring oracle's verdicts
// flow for flow. The reference is the ring under the serial engine's
// one-record batches; both backends then run the same mixed-peer stream
// through the batch loop of a ParallelEngine at 1 and 3 shards and every
// pinned batch width. Run under -race this also exercises the sketch
// registers' single-driver-per-shard ownership.
func TestSketchMatchesRingOracleThroughParallelEngine(t *testing.T) {
	w := buildScanEquivWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)

	ring := w.cfg
	ring.Scan.ExactBuffer = true
	want := runSerialReference(t, ring, w, detector, stream)
	if want.stats.ByStage[idmef.StageScan] == 0 {
		t.Fatalf("degenerate workload: ring oracle stats %+v", want.stats)
	}
	if want.stats.Promotions != 0 {
		t.Fatalf("workload promoted the scanning source: %+v", want.stats)
	}

	for _, cfg := range []Config{ring, w.cfg} {
		backend := "sketch"
		if cfg.Scan.ExactBuffer {
			backend = "ring"
		}
		for _, shards := range []int{1, 3} {
			for _, size := range batchSizes {
				t.Run(fmt.Sprintf("%s/shards=%d/batch=%d", backend, shards, size), func(t *testing.T) {
					requireSameOutcome(t, runMixedStream(t, cfg, w, detector, stream, shards, size), want)
				})
			}
		}
	}
}

// TestSketchDivergesOnlyBeyondRingCapacity pins the intended
// difference between the backends at the engine level: a scan spread
// thinner than the ring can hold saturates the oracle silently while
// the sketch backend still converges on it. This is the reason the
// sketch is the default, stated as a test.
func TestSketchDivergesOnlyBeyondRingCapacity(t *testing.T) {
	cfg := Config{
		Mode: ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 1 << 30},
		Scan: scan.Config{
			NetworkScanThreshold: 300, // beyond the 200-entry ring
			HostScanThreshold:    math.MaxInt32,
			DecayEvery:           1 << 30, // no rotation inside the stream
		},
	}
	trainPfx := netaddr.MustParsePrefix("21.0.0.0/8")
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 120, trainPfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	probes := make([]flow.Record, 400)
	for i := range probes {
		probes[i] = flow.Record{
			Key: flow.Key{
				Src:     netaddr.MustParseAddr("201.9.9.9"),
				Dst:     netaddr.MustParseAddr(fmt.Sprintf("192.0.%d.%d", 2+i/250, 1+i%250)),
				Proto:   flow.ProtoUDP,
				SrcPort: uint16(40000 + i),
				DstPort: 1434,
				InputIf: 1,
			},
			Packets: 1, Bytes: 404, Start: start, End: start,
		}
	}

	for _, tc := range []struct {
		backend string
		exact   bool
		detects bool
	}{
		{"ring-saturates", true, false},
		{"sketch-detects", false, true},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			c := cfg
			c.Scan.ExactBuffer = tc.exact
			eng, err := Train(c, labeled)
			if err != nil {
				t.Fatal(err)
			}
			eng.ProcessBatch(1, probes, nil)
			trips := eng.Stats().ByStage[idmef.StageScan]
			if tc.detects && trips == 0 {
				t.Error("sketch backend missed a 400-host scan above ring capacity")
			}
			if !tc.detects && trips != 0 {
				t.Errorf("ring oracle tripped %d times past saturation; its capacity contract changed", trips)
			}
		})
	}
}
