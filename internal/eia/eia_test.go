package eia

import (
	"reflect"
	"testing"

	"infilter/internal/blocks"
	"infilter/internal/netaddr"
)

func TestCheckVerdicts(t *testing.T) {
	s := NewSet(Config{})
	s.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	s.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))

	tests := []struct {
		peer PeerAS
		src  string
		want Verdict
	}{
		{1, "61.5.5.5", Match},
		{2, "70.1.2.3", Match},
		{2, "61.5.5.5", WrongPeer},
		{1, "70.1.2.3", WrongPeer},
		{1, "9.9.9.9", Unknown},
	}
	st := NewStore(s)
	for _, tt := range tests {
		if got := st.Check(tt.peer, netaddr.MustParseAddr(tt.src)); got != tt.want {
			t.Errorf("Check(%d, %s) = %v, want %v", tt.peer, tt.src, got, tt.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Match.String() != "match" || WrongPeer.String() != "wrong-peer" || Unknown.String() != "unknown" {
		t.Error("verdict names wrong")
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Errorf("unknown verdict = %q", Verdict(9).String())
	}
}

func TestExpectedPeerLongestPrefixWins(t *testing.T) {
	s := NewSet(Config{})
	s.AddPrefix(1, netaddr.MustParsePrefix("4.0.0.0/8"))
	s.AddPrefix(2, netaddr.MustParsePrefix("4.2.101.0/24"))
	st := NewStore(s)
	// The §3.2 worked example: 4.2.101.20 routes via the /24's peer.
	if got := st.Check(2, netaddr.MustParseAddr("4.2.101.20")); got != Match {
		t.Errorf("4.2.101.20 at peer 2 = %v, want Match", got)
	}
	if got := st.Check(1, netaddr.MustParseAddr("4.2.101.20")); got != WrongPeer {
		t.Errorf("4.2.101.20 at peer 1 = %v, want WrongPeer", got)
	}
	if got := st.Check(1, netaddr.MustParseAddr("4.9.9.9")); got != Match {
		t.Errorf("4.9.9.9 at peer 1 = %v, want Match", got)
	}
}

func TestAddPrefixRehoming(t *testing.T) {
	s := NewSet(Config{})
	p := netaddr.MustParsePrefix("61.0.0.0/11")
	s.AddPrefix(1, p)
	if got := s.Peers(); !reflect.DeepEqual(got, []PeerAS{1}) {
		t.Fatalf("Peers = %v, want [1]", got)
	}
	s.AddPrefix(2, p) // route change: same block now enters via peer 2
	if got := s.Peers(); !reflect.DeepEqual(got, []PeerAS{2}) {
		t.Errorf("Peers after rehome = %v, want [2]", got)
	}
	// Re-adding same mapping is a no-op.
	s.AddPrefix(2, p)
	if got := s.Peers(); s.Len() != 1 || !reflect.DeepEqual(got, []PeerAS{2}) {
		t.Errorf("idempotent add broke counts: len=%d peers=%v", s.Len(), got)
	}
	if got := NewStore(s).Check(2, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("after rehoming Check = %v, want Match", got)
	}
}

func TestPromotionAfterThreshold(t *testing.T) {
	set := NewSet(Config{PromoteThreshold: 3, PromoteMaskBits: 24})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	s := NewStore(set)
	src := netaddr.MustParseAddr("61.10.1.7")

	// Route change: traffic from 61.10.1/24 now arrives at peer 2.
	if s.Check(2, src) != WrongPeer {
		t.Fatal("precondition: expected WrongPeer")
	}
	if s.RecordLegal(2, src) {
		t.Error("promoted after 1 flow, threshold 3")
	}
	if s.RecordLegal(2, src) {
		t.Error("promoted after 2 flows")
	}
	if !s.RecordLegal(2, src) {
		t.Error("not promoted after 3 flows")
	}
	// The promotion cleared the pending count: counting starts over.
	if s.RecordLegal(2, src) || s.RecordLegal(2, src) {
		t.Error("pending count not cleared by the promotion")
	}
	// Now the whole /24 matches at peer 2; the rest of the /11 still
	// matches at peer 1.
	if got := s.Check(2, netaddr.MustParseAddr("61.10.1.200")); got != Match {
		t.Errorf("promoted subnet Check = %v", got)
	}
	if got := s.Check(1, netaddr.MustParseAddr("61.20.0.1")); got != Match {
		t.Errorf("rest of block Check = %v", got)
	}
}

func TestPromotionCountsPerPeerAndSubnet(t *testing.T) {
	set := NewSet(Config{PromoteThreshold: 2})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	s := NewStore(set)
	a := netaddr.MustParseAddr("61.10.1.1")
	b := netaddr.MustParseAddr("61.22.1.1") // different /24
	s.RecordLegal(2, a)
	if s.RecordLegal(2, b) {
		t.Error("counts leaked across subnets")
	}
	if s.RecordLegal(3, a) {
		t.Error("counts leaked across peers")
	}
	if !s.RecordLegal(2, a) {
		t.Error("same subnet+peer should promote at threshold 2")
	}
}

func TestTrainBuildsSets(t *testing.T) {
	s := NewSet(Config{})
	obs := []TrainingSource{
		{Peer: 1, Src: netaddr.MustParseAddr("61.1.2.3")},
		{Peer: 1, Src: netaddr.MustParseAddr("61.1.2.99")}, // same /24
		{Peer: 2, Src: netaddr.MustParseAddr("70.4.5.6")},
	}
	s.Train(obs, 24)
	if s.Len() != 2 {
		t.Errorf("trained %d prefixes, want 2", s.Len())
	}
	st := NewStore(s)
	if got := st.Check(1, netaddr.MustParseAddr("61.1.2.200")); got != Match {
		t.Errorf("Check in trained /24 = %v", got)
	}
	if got := st.Check(1, netaddr.MustParseAddr("61.9.9.9")); got != Unknown {
		t.Errorf("Check outside trained subnets = %v", got)
	}
	peers := s.Peers()
	if len(peers) != 2 || peers[0] != 1 || peers[1] != 2 {
		t.Errorf("Peers() = %v", peers)
	}
}

func TestTrainDefaultMask(t *testing.T) {
	s := NewSet(Config{PromoteMaskBits: 16})
	s.Train([]TrainingSource{{Peer: 1, Src: netaddr.MustParseAddr("61.1.2.3")}}, 0)
	if got := NewStore(s).Check(1, netaddr.MustParseAddr("61.1.200.200")); got != Match {
		t.Errorf("default mask not honored: %v", got)
	}
}

// TestTable3Preload reproduces the testbed EIA configuration: peer AS i
// holds the i-th hundred of the 1000 experiment sub-blocks.
func TestTable3Preload(t *testing.T) {
	s := NewSet(Config{})
	for as := 1; as <= blocks.DefaultSources; as++ {
		set, err := blocks.EIAAllocation(as)
		if err != nil {
			t.Fatal(err)
		}
		for _, sb := range set {
			s.AddPrefix(PeerAS(as), sb.Prefix())
		}
	}
	if s.Len() != blocks.NumUsedSubBlocks {
		t.Fatalf("preloaded %d prefixes", s.Len())
	}
	st := NewStore(s)
	// 1a = 3.0.0.0/11 belongs to peer AS 1; 113e (index 900) to AS 10.
	if got := st.Check(1, netaddr.MustParseAddr("3.1.2.3")); got != Match {
		t.Errorf("3.1.2.3 at AS1 = %v", got)
	}
	sb := blocks.MustParseNotation("113e")
	if got := st.Check(10, sb.Prefix().Addr()); got != Match {
		t.Errorf("113e at AS10 = %v", got)
	}
	if got := st.Check(4, netaddr.MustParseAddr("3.1.2.3")); got != WrongPeer {
		t.Errorf("3.1.2.3 at AS4 = %v", got)
	}
	// 205/8 onward was not allocated to any source.
	if got := st.Check(1, netaddr.MustParseAddr("205.1.1.1")); got != Unknown {
		t.Errorf("205.1.1.1 = %v", got)
	}
}
