package analysis

import (
	"testing"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/scan"
)

// trainedEngineHH is trainedEngine with the heavy-hitter stage enabled.
func trainedEngineHH(t *testing.T, threshold int) *Engine {
	t.Helper()
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 900, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	for _, r := range flowsFromPackets(t, 2, 900, peer2Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 2, Record: r})
	}
	eng, err := Train(Config{
		Mode:        ModeEnhanced,
		HeavyHitter: scan.HeavyHitterConfig{Threshold: threshold},
	}, labeled)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestHeavyHitterStageDisabledByDefault(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	if eng.shards[0].pl.hh != nil {
		t.Fatal("default config built a heavy-hitter stage")
	}
}

// TestHeavyHitterStageFlagsFlood: a source flooding suspect flows is
// flagged at the heavy-hitter stage once its sketch estimate crosses the
// threshold, and every later suspect flow from it short-circuits there —
// before Scan Analysis and NNS ever see the flow.
func TestHeavyHitterStageFlagsFlood(t *testing.T) {
	const threshold = 20
	eng := trainedEngineHH(t, threshold)
	// Spoofed flood: one unknown source, multi-packet flows (so the scan
	// stage's probe filter is not what stops them).
	src := netaddr.MustParseAddr("203.0.113.99")
	hhFlagged := 0
	for i := 0; i < 100; i++ {
		rec := flow.Record{
			Key: flow.Key{
				Src:     src,
				Dst:     netaddr.MustParseAddr("192.0.2.10"),
				Proto:   6,
				SrcPort: uint16(40000 + i),
				DstPort: 80,
			},
			Packets: 5,
			Bytes:   2000,
			Start:   start,
			End:     start,
		}
		d := eng.Process(1, rec)
		if d.Stage == idmef.StageHeavyHitter {
			hhFlagged++
			if !d.Attack {
				t.Fatal("heavy-hitter stage set without Attack")
			}
		}
		if i >= threshold && d.Stage != idmef.StageHeavyHitter {
			t.Fatalf("flow %d past threshold %d decided at stage %q, want heavy-hitter", i, threshold, d.Stage)
		}
	}
	if hhFlagged == 0 {
		t.Fatal("heavy-hitter stage never fired on a 100-flow single-source flood")
	}
	st := eng.Stats()
	if st.ByStage[idmef.StageHeavyHitter] != hhFlagged {
		t.Errorf("ByStage[heavy-hitter] = %d, want %d", st.ByStage[idmef.StageHeavyHitter], hhFlagged)
	}
}

// TestHeavyHitterStageSparesQuietSources: with the stage enabled, benign
// holdout traffic from trained subnets (many distinct sources, low per-
// source volume) is not flagged by the heavy-hitter stage.
func TestHeavyHitterStageSparesQuietSources(t *testing.T) {
	eng := trainedEngineHH(t, 20)
	for _, r := range flowsFromPackets(t, 3, 100, peer1Pfx) {
		if d := eng.Process(1, r); d.Stage == idmef.StageHeavyHitter {
			t.Fatalf("benign flow from %v flagged as heavy hitter", r.Key.Src)
		}
	}
}
