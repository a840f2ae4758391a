package topo

import (
	"testing"
)

func TestNewDefaults(t *testing.T) {
	n := New(Config{Seed: 1})
	if n.Targets() != DefaultTargets || n.LGSites() != DefaultLGSites {
		t.Errorf("sizes %d/%d", n.Targets(), n.LGSites())
	}
	for tgt := 0; tgt < n.Targets(); tgt++ {
		if pc := len(n.targets[tgt].peers); pc < DefaultMinPeers || pc > DefaultMaxPeers {
			t.Errorf("target %d has %d peers", tgt, pc)
		}
	}
}

func TestTracerouteShape(t *testing.T) {
	n := New(Config{Seed: 2})
	p := n.Traceroute(0, 0)
	if len(p.Hops) != DefaultMidPathHops+2 {
		t.Fatalf("path has %d hops", len(p.Hops))
	}
	peer, br := p.PeerHop(), p.BRHop()
	if peer.FQDN == "" || br.FQDN == "" {
		t.Error("last-hop FQDNs empty")
	}
	if peer.Addr == br.Addr {
		t.Error("peer and BR share an address")
	}
}

func TestTracerouteOutOfRangePanics(t *testing.T) {
	n := New(Config{Seed: 3})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range traceroute did not panic")
		}
	}()
	n.Traceroute(999, 0)
}

// TestLastHopStability verifies the InFilter hypothesis holds in the
// simulated topology: the last-hop *routers* (FQDN identity) rarely change,
// even though interface addresses flap with load sharing.
func TestLastHopStability(t *testing.T) {
	n := New(Config{Seed: 4})
	const samples = 400
	var rawChanges, fqdnChanges int
	var prev Path
	for i := 0; i < samples; i++ {
		p := n.Traceroute(3, 5)
		if i > 0 {
			if p.PeerHop().Addr != prev.PeerHop().Addr || p.BRHop().Addr != prev.BRHop().Addr {
				rawChanges++
			}
			if p.PeerHop().FQDN != prev.PeerHop().FQDN || p.BRHop().FQDN != prev.BRHop().FQDN {
				fqdnChanges++
			}
		}
		prev = p
	}
	if fqdnChanges > rawChanges {
		t.Errorf("fqdn changes %d exceed raw changes %d", fqdnChanges, rawChanges)
	}
	if fqdnChanges > samples/20 {
		t.Errorf("last-hop router changed %d/%d times — hypothesis violated in sim", fqdnChanges, samples)
	}
}

// TestPolicyChangesMovePeers runs long enough that policy events occur and
// verifies the current peer changes only through them.
func TestPolicyChangesMovePeers(t *testing.T) {
	n := New(Config{Seed: 5, PolicyChangeProb: 0.2})
	first := n.stateFor(0, 0).peerSlot
	changed := false
	for i := 0; i < 100; i++ {
		n.Traceroute(0, 0)
		if n.stateFor(0, 0).peerSlot != first {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("no policy change in 100 samples at 20% rate")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := New(Config{Seed: 7}), New(Config{Seed: 7})
	for i := 0; i < 50; i++ {
		pa, pb := a.Traceroute(1, 2), b.Traceroute(1, 2)
		if len(pa.Hops) != len(pb.Hops) {
			t.Fatal("hop counts differ")
		}
		for h := range pa.Hops {
			if pa.Hops[h] != pb.Hops[h] {
				t.Fatalf("sample %d hop %d differs", i, h)
			}
		}
	}
}

// TestSingleTargetManyPeersDistinctAdjacencies checks adjacency identities
// are unique per peer slot.
func TestDistinctAdjacencies(t *testing.T) {
	n := New(Config{Seed: 8, Targets: 1, MinPeers: 6, MaxPeers: 6, PolicyChangeProb: 0.9})
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		p := n.Traceroute(0, 0)
		seen[p.BRHop().FQDN] = true
	}
	if len(seen) < 3 {
		t.Errorf("only %d distinct BRs observed under heavy policy churn", len(seen))
	}
}
