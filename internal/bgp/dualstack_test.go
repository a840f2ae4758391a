package bgp

import (
	"testing"

	"infilter/internal/netaddr"
)

func entry6(network string, nextHop string, path ...uint16) Entry {
	return Entry{
		Network: netaddr.MustParsePrefix(network),
		NextHop: netaddr.MustParseAddr(nextHop),
		Path:    path,
	}
}

// TestDeriveMappingV6 derives the peer→sources mapping for a v6 target
// network: a source AS on paths for several covering v6 prefixes must
// follow the most specific one (the paper's 4.2.101.0/24 vs 4.0.0.0/8
// case, transplanted to v6).
func TestDeriveMappingV6(t *testing.T) {
	target := netaddr.MustParseAddr("2001:db8:4000::1")
	entries := []Entry{
		// Source 3356 reaches the covering /32 via peer 7018 ...
		entry6("2001:db8::/32", "2001:db8:ffff::1", 3356, 7018, 80),
		// ... but the more specific /48 re-homes it to peer 209.
		entry6("2001:db8:4000::/48", "2001:db8:ffff::3", 3356, 209, 80),
		// A route for an unrelated v6 block must not contribute.
		entry6("2001:dead::/32", "2001:db8:ffff::4", 9, 10, 11),
	}
	m := DeriveMapping(entries, target)
	peers := m.Peers()
	if len(peers) != 1 || peers[0] != 209 {
		t.Fatalf("peers = %v, want [209] (the /48 overrides the /32)", peers)
	}
	srcs := m[209]
	if len(srcs) != 1 || srcs[0] != 3356 {
		t.Fatalf("sources via 209 = %v, want [3356]", srcs)
	}
}
