// Package topo models the slice of the Internet that the paper's
// hypothesis validation measures (§3): target networks with a handful of
// peer ASes, Looking Glass sites scattered around the world, BGP-policy
// path selection from each site to each target (stable, changing only on
// rare policy events), redundant/load-shared links on the peer-AS ↔ border
// router adjacency (the source of "raw" last-hop flapping), and IGP churn
// inside transit ASes (the source of mid-path variability).
package topo

import (
	"fmt"
	"math/rand"
	"strconv"

	"infilter/internal/netaddr"
)

// Config parameterizes the simulated topology. Zero values take the
// paper's measurement-campaign defaults.
type Config struct {
	// Seed fixes the construction and all sampling randomness.
	Seed int64
	// Targets is the number of target networks (paper: 20, in the USA).
	Targets int
	// LGSites is the number of Looking Glass sites (paper: 24, global).
	LGSites int
	// MinPeers and MaxPeers bound each target's peer-AS count.
	MinPeers, MaxPeers int
	// ParallelLinkProb is the probability a peer-BR adjacency is realized
	// as a redundant/load-sharing link pair (Figure 4).
	ParallelLinkProb float64
	// CrossSubnetPairProb is the probability a parallel pair's two links
	// sit in different /24 subnets (the case FQDN smoothing handles).
	CrossSubnetPairProb float64
	// LoadShareSwitchProb is the per-sample probability a traceroute takes
	// the other link of a pair.
	LoadShareSwitchProb float64
	// PolicyChangeProb is the per-sample probability that a (site, target)
	// pair's BGP policy shifts it to a different peer AS — a true
	// last-hop change.
	PolicyChangeProb float64
	// MidPathHops is the number of transit hops before the last AS-level
	// hop; IGP churn re-rolls them frequently.
	MidPathHops int
	// IGPChurnProb is the per-sample probability a transit hop's router
	// differs from the previous sample (affects full-path stability only).
	IGPChurnProb float64
}

// Defaults chosen to match the measured change rates of §3.1.1.
const (
	DefaultTargets             = 20
	DefaultLGSites             = 24
	DefaultMinPeers            = 2
	DefaultMaxPeers            = 6
	DefaultParallelLinkProb    = 0.5
	DefaultCrossSubnetPairProb = 0.25
	DefaultLoadShareSwitchProb = 0.08
	DefaultPolicyChangeProb    = 0.005
	DefaultMidPathHops         = 6
	DefaultIGPChurnProb        = 0.15
)

func (c Config) withDefaults() Config {
	if c.Targets <= 0 {
		c.Targets = DefaultTargets
	}
	if c.LGSites <= 0 {
		c.LGSites = DefaultLGSites
	}
	if c.MinPeers <= 0 {
		c.MinPeers = DefaultMinPeers
	}
	if c.MaxPeers < c.MinPeers {
		c.MaxPeers = DefaultMaxPeers
	}
	if c.ParallelLinkProb == 0 {
		c.ParallelLinkProb = DefaultParallelLinkProb
	}
	if c.CrossSubnetPairProb == 0 {
		c.CrossSubnetPairProb = DefaultCrossSubnetPairProb
	}
	if c.LoadShareSwitchProb == 0 {
		c.LoadShareSwitchProb = DefaultLoadShareSwitchProb
	}
	if c.PolicyChangeProb == 0 {
		c.PolicyChangeProb = DefaultPolicyChangeProb
	}
	if c.MidPathHops <= 0 {
		c.MidPathHops = DefaultMidPathHops
	}
	if c.IGPChurnProb == 0 {
		c.IGPChurnProb = DefaultIGPChurnProb
	}
	return c
}

// Hop is one traceroute hop: a router interface address and its DNS name.
type Hop struct {
	Addr netaddr.Addr
	FQDN string
}

// Path is a full IP-level path from a Looking Glass site to a target; the
// last two hops are the peer-AS router and the target's border router.
type Path struct {
	Hops []Hop
}

// PeerHop returns the peer-AS-side hop of the last AS-level adjacency.
func (p Path) PeerHop() Hop { return p.Hops[len(p.Hops)-2] }

// BRHop returns the target-side border-router hop.
func (p Path) BRHop() Hop { return p.Hops[len(p.Hops)-1] }

// link is one physical link of a peer-BR adjacency: addresses + names for
// both ends.
type link struct {
	peer Hop
	br   Hop
}

// adjacency is a peer-AS ↔ border-router adjacency, possibly realized as
// a redundant pair of links.
type adjacency struct {
	links []link
}

// target is one target network with its peers.
type target struct {
	id    int
	peers []adjacency // index = peer AS slot
}

// pairState is the per-(site,target) routing state: the chosen peer slot
// (BGP policy) and the link in use (load sharing).
type pairState struct {
	peerSlot int
	linkIdx  int
}

// Network is the simulated topology plus its mutable routing state.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	targets []target
	state   map[[2]int]*pairState // [site, target] -> state
}

// New constructs the topology.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{
		cfg:   cfg,
		rng:   rng,
		state: make(map[[2]int]*pairState),
	}
	for t := 0; t < cfg.Targets; t++ {
		numPeers := cfg.MinPeers + rng.Intn(cfg.MaxPeers-cfg.MinPeers+1)
		tg := target{id: t}
		for p := 0; p < numPeers; p++ {
			tg.peers = append(tg.peers, n.makeAdjacency(t, p))
		}
		n.targets = append(n.targets, tg)
	}
	return n
}

// makeAdjacency builds the peer-BR links for target t's peer slot p.
func (n *Network) makeAdjacency(t, p int) adjacency {
	base := netaddr.FromOctets(10, byte(t), byte(p*8), 0)
	peerName := fmt.Sprintf("ge-0-0.peer%d.as%d.example.net", p, 65000+t*8+p)
	brName := fmt.Sprintf("br%02d.target%d.example.net", p, t)
	adj := adjacency{links: []link{{
		peer: Hop{Addr: (base + 1).Addr(), FQDN: peerName},
		br:   Hop{Addr: (base + 2).Addr(), FQDN: brName},
	}}}
	if n.rng.Float64() < n.cfg.ParallelLinkProb {
		// Redundant pair: same routers (same FQDNs), second interface pair.
		second := base + 5
		if n.rng.Float64() < n.cfg.CrossSubnetPairProb {
			// The pair's links sit in different /24s.
			second = base + 256 + 5
		}
		adj.links = append(adj.links, link{
			peer: Hop{Addr: second.Addr(), FQDN: peerName},
			br:   Hop{Addr: (second + 1).Addr(), FQDN: brName},
		})
	}
	return adj
}

// Targets returns the number of target networks.
func (n *Network) Targets() int { return n.cfg.Targets }

// LGSites returns the number of Looking Glass sites.
func (n *Network) LGSites() int { return n.cfg.LGSites }

func (n *Network) stateFor(site, tgt int) *pairState {
	key := [2]int{site, tgt}
	st, ok := n.state[key]
	if !ok {
		st = &pairState{
			peerSlot: n.rng.Intn(len(n.targets[tgt].peers)),
		}
		n.state[key] = st
	}
	return st
}

// Traceroute samples the IP path from a Looking Glass site to a target,
// advancing the simulated routing state: policy changes occasionally move
// the pair to another peer, load sharing occasionally flips the link in
// use, and IGP churn re-rolls transit hops.
func (n *Network) Traceroute(site, tgt int) Path {
	if site < 0 || site >= n.cfg.LGSites || tgt < 0 || tgt >= n.cfg.Targets {
		panic(fmt.Sprintf("topo: traceroute(%d,%d) out of range", site, tgt))
	}
	st := n.stateFor(site, tgt)
	tg := n.targets[tgt]

	// BGP policy event: move to a different peer AS.
	if len(tg.peers) > 1 && n.rng.Float64() < n.cfg.PolicyChangeProb {
		next := n.rng.Intn(len(tg.peers) - 1)
		if next >= st.peerSlot {
			next++
		}
		st.peerSlot = next
		st.linkIdx = 0
	}
	adj := tg.peers[st.peerSlot]
	// Load sharing: flip between the parallel links.
	if len(adj.links) > 1 && n.rng.Float64() < n.cfg.LoadShareSwitchProb {
		st.linkIdx = 1 - st.linkIdx
	}
	if st.linkIdx >= len(adj.links) {
		st.linkIdx = 0
	}
	lk := adj.links[st.linkIdx]

	// Transit hops: deterministic router identity per (site,hop) with IGP
	// churn re-rolling the interface used.
	hops := make([]Hop, 0, n.cfg.MidPathHops+2)
	for h := 0; h < n.cfg.MidPathHops; h++ {
		variant := 0
		if n.rng.Float64() < n.cfg.IGPChurnProb {
			variant = n.rng.Intn(4)
		}
		hops = append(hops, Hop{
			Addr: netaddr.FromOctets(172, byte(site), byte(h), byte(variant+1)).Addr(),
			FQDN: "core" + strconv.Itoa(h) + "-" + strconv.Itoa(variant) +
				".transit" + strconv.Itoa(site) + ".example.net",
		})
	}
	hops = append(hops, lk.peer, lk.br)
	return Path{Hops: hops}
}
