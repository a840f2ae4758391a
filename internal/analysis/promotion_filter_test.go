package analysis

import (
	"testing"

	"infilter/internal/eia"
	"infilter/internal/netaddr"
)

// trainedFilteredEngine is trainedEngine with a promotion filter
// installed at construction.
func trainedFilteredEngine(t *testing.T, filter func(eia.PeerAS) bool) *Engine {
	t.Helper()
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 900, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	for _, r := range flowsFromPackets(t, 2, 900, peer2Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 2, Record: r})
	}
	eng, err := Train(Config{Mode: ModeEnhanced, PromotionFilter: filter}, labeled)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPromotionFilterGatesTraining pins the cluster-mode training
// contract: a filter rejecting the peer suppresses EIA promotion (the
// workload that promotes in TestPromotionAdaptsEIA must not), while
// verdicts and an accepting filter behave exactly as with no filter.
func TestPromotionFilterGatesTraining(t *testing.T) {
	moved := flowsFromPackets(t, 8, 300, netaddr.MustParsePrefix("70.4.4.0/24"))

	notOwned := trainedFilteredEngine(t, func(peer eia.PeerAS) bool { return peer != 1 })
	for _, d := range decide(notOwned, 1, moved...) {
		if d.Promoted {
			t.Fatal("promotion completed although the filter rejects peer 1")
		}
	}
	if n := notOwned.Stats().Promotions; n != 0 {
		t.Errorf("filtered engine recorded %d promotions, want 0", n)
	}
	if got := notOwned.EIASet().Check(1, netaddr.MustParseAddr("70.4.4.77")); got == eia.Match {
		t.Error("filtered engine still learned the moved subnet at peer 1")
	}

	owned := trainedFilteredEngine(t, func(peer eia.PeerAS) bool { return peer == 1 })
	promoted := false
	for _, d := range decide(owned, 1, moved...) {
		promoted = promoted || d.Promoted
	}
	if !promoted {
		t.Fatal("accepting filter blocked promotion")
	}
	if got := owned.EIASet().Check(1, netaddr.MustParseAddr("70.4.4.77")); got != eia.Match {
		t.Errorf("post-promotion Check = %v, want match", got)
	}
}
