// Package eia implements the Expected source IP Address sets at the heart
// of Basic InFilter (paper §3, §5.1.3). An EIA set maps each peer AS to the
// source address ranges whose traffic is expected to enter the target
// network through it. Lookups are longest-prefix, so a promoted /24 or /32
// learned after a route change overrides the broad training-time block.
package eia

import (
	"fmt"
	"sort"

	"infilter/internal/netaddr"
)

// PeerAS identifies one peering autonomous system / border router ingress.
type PeerAS uint16

// Verdict classifies one source-address check (paper §5.2 normal
// processing phase case analysis).
type Verdict int

// Verdicts.
const (
	// Match: the source's expected peer AS is the observed one (case b —
	// legal flow).
	Match Verdict = iota + 1
	// WrongPeer: the source belongs to a different peer AS's EIA set
	// (case a — possible spoofing or route change).
	WrongPeer
	// Unknown: the source is in no EIA set (case a — possible spoofing).
	Unknown
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Match:
		return "match"
	case WrongPeer:
		return "wrong-peer"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Config tunes the EIA set behavior.
type Config struct {
	// PromoteThreshold is how many flows from the same source must be seen
	// (and pass deeper analysis) at an unexpected peer AS before the source
	// is added to that peer's EIA set (§5.2(a)). Zero defaults to 20 — it
	// must exceed the Scan Analysis thresholds, or a scan whose flows slip
	// past NNS gets its spoofed source promoted before the scan counters
	// can fire.
	PromoteThreshold int
	// PromoteMaskBits is the prefix length learned on v4 promotion. Zero
	// defaults to 24 (the subnet granularity used throughout §3.1).
	PromoteMaskBits int
	// PromoteMaskBitsV6 is the prefix length learned when the promoted
	// source is IPv6. Zero defaults to 48, the customer-site granularity
	// that plays the role a /24 does in v4.
	PromoteMaskBitsV6 int
	// BloomBitsPerEntry, when positive, enables the probabilistic fast
	// tier on Store: per-peer blocked Bloom filters (plus one global
	// filter) published inside each snapshot, sized at this many bits per
	// trie prefix. The tier short-circuits only provably-Unknown checks —
	// Bloom positives always confirm against the exact trie — so verdicts
	// are identical with the tier on or off; the knob trades memory for
	// fewer fallback walks (10 bits/entry ≈ 1% false-positive rate). The
	// probe count per query is derived from it. Zero (the default)
	// disables the tier.
	BloomBitsPerEntry int
}

// Defaults for Config.
const (
	DefaultPromoteThreshold  = 20
	DefaultPromoteMaskBits   = 24
	DefaultPromoteMaskBitsV6 = 48
)

func (c Config) withDefaults() Config {
	if c.PromoteThreshold <= 0 {
		c.PromoteThreshold = DefaultPromoteThreshold
	}
	if c.PromoteMaskBits <= 0 {
		c.PromoteMaskBits = DefaultPromoteMaskBits
	}
	if c.PromoteMaskBitsV6 <= 0 {
		c.PromoteMaskBitsV6 = DefaultPromoteMaskBitsV6
	}
	return c
}

// promoteBits returns the promotion prefix length for fam.
func (c Config) promoteBits(fam netaddr.Family) int {
	if fam == netaddr.FamilyV6 {
		return c.PromoteMaskBitsV6
	}
	return c.PromoteMaskBits
}

// classify is the one lookup-result → verdict switch (paper §5.2 case
// analysis) for a flow observed at peer: callers write
// peer.classify(index.Lookup(src)), and both the per-flow check and the
// batch classifier inline it, so there is no second copy to drift. It
// takes the lookup's results rather than the trie because the inlined
// Lookup alone nearly fills the compiler's inline budget — a helper that
// also held the call could not be inlined into the batch loops.
func (peer PeerAS) classify(expected PeerAS, ok bool) Verdict {
	switch {
	case !ok:
		return Unknown
	case expected == peer:
		return Match
	default:
		return WrongPeer
	}
}

// Set is the per-peer EIA state: a longest-prefix trie mapping each
// prefix to the peer AS expected to carry its traffic, the per-peer
// prefix counts and, once a Store publishes it, the Bloom tier derived
// from the trie. A Set is built in place (NewSet, AddPrefix, Train,
// ReadInto, ReadCheckpointInto), which is not safe for concurrent use,
// and is then shared: NewStore adopts it, Store.Snapshot returns the
// published one, and Merge takes and returns shared sets. A shared Set
// is immutable, since lock-free checkers walk its trie, so AddPrefix on
// one panics instead of corrupting live state; reading it (Len, Peers,
// WriteCheckpoint, Merge) is safe from any goroutine.
type Set struct {
	cfg     Config
	index   *netaddr.PrefixTrie[PeerAS]
	perPeer map[PeerAS]int // prefixes per peer: Peers and the Bloom tier's sizing
	tier    *bloomTier     // set only on a Store's published sets, and nil when Config disables it
	shared  bool
}

// NewSet returns an empty EIA set.
func NewSet(cfg Config) *Set {
	return &Set{
		cfg:     cfg.withDefaults(),
		index:   netaddr.NewPrefixTrie[PeerAS](),
		perPeer: make(map[PeerAS]int),
	}
}

// AddPrefix records that sources inside p are expected at peer. Inserting
// the same prefix for a different peer re-homes it (route change handling).
// It panics on a shared Set.
func (s *Set) AddPrefix(peer PeerAS, p netaddr.Prefix) {
	if s.shared {
		panic("eia: AddPrefix on a shared Set (adopted by a Store or passed to Merge)")
	}
	s.put(peer, p, false)
}

// put maps p to peer, moving p's count off the peer that held it, and
// reports whether the set changed. It is the one re-homing update: a
// builder inserts in place, while a successor, whose trie is shared with
// a published set, inserts by path copying (persistent).
func (s *Set) put(peer PeerAS, p netaddr.Prefix, persistent bool) bool {
	if prev, ok := s.index.Get(p); ok {
		if prev == peer {
			return false
		}
		s.perPeer[prev]--
	}
	s.perPeer[peer]++
	if persistent {
		s.index = s.index.InsertPersistent(p, peer)
	} else {
		s.index.Insert(p, peer)
	}
	return true
}

// assignment maps one prefix to the peer AS expected to carry its
// traffic; a Store publishes a batch of them in one snapshot swap.
type assignment struct {
	peer PeerAS
	pfx  netaddr.Prefix
}

// with returns a successor of s holding assign on top of s's prefixes,
// sharing every trie node assign does not touch, together with the
// assignments that changed anything. s is left as it was. The successor
// is private until its caller shares it.
func (s *Set) with(assign []assignment) (*Set, []assignment) {
	next := &Set{cfg: s.cfg, index: s.index, perPeer: make(map[PeerAS]int, len(s.perPeer)+1)}
	for p, n := range s.perPeer {
		next.perPeer[p] = n
	}
	applied := assign[:0:0]
	for _, a := range assign {
		if next.put(a.peer, a.pfx, true) {
			applied = append(applied, a)
		}
	}
	return next, applied
}

// share marks s immutable. It writes only while s is still private, so
// sharing an already-published set is a pure read.
func (s *Set) share() {
	if !s.shared {
		s.shared = true
	}
}

// Len returns the total number of prefixes across all peers.
func (s *Set) Len() int { return s.index.Len() }

// Peers returns the peer ASes with at least one prefix, ascending.
func (s *Set) Peers() []PeerAS {
	out := make([]PeerAS, 0, len(s.perPeer))
	for p, n := range s.perPeer {
		if n > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrainingSource is one (source address, ingress peer) observation used to
// initialize EIA sets from live traffic (§5.1.3(a)).
type TrainingSource struct {
	Peer PeerAS
	Src  netaddr.Addr
}

// Train initializes EIA sets from observed traffic: each source address is
// aggregated and added to the EIA set of the peer AS it was seen at.
// maskBits applies to v4 sources (<= 0 defaults to the config's promote
// mask); v6 sources always aggregate at the config's v6 promote mask,
// since a v4 subnet length is meaningless at 128-bit width.
func (s *Set) Train(obs []TrainingSource, maskBits int) {
	if maskBits <= 0 {
		maskBits = s.cfg.PromoteMaskBits
	}
	for _, o := range obs {
		bits := maskBits
		if o.Src.Family() == netaddr.FamilyV6 {
			bits = s.cfg.PromoteMaskBitsV6
		}
		s.AddPrefix(o.Peer, netaddr.MustPrefix(o.Src, bits))
	}
}
