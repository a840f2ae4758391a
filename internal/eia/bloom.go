package eia

import (
	"sort"

	"infilter/internal/bloom"
	"infilter/internal/netaddr"
)

// This file is the probabilistic fast tier published inside Store
// snapshots: per-peer Bloom filters plus one global filter over every
// (prefix, length) key in the trie.
//
// Why the fast path answers only the "definitely unknown" case: a Bloom
// positive can be a false positive, so no "present" fact — and therefore
// neither a Match nor a WrongPeer verdict, both of which assert that some
// prefix IS in some set — may ever be concluded from the filters alone.
// The one verdict that rests purely on absence is Unknown, and Bloom
// negatives prove absence exactly (no false negatives): if, for every
// prefix length present in the snapshot, the global filter rejects the
// masked source, then the trie holds no prefix of that source and the
// longest-prefix walk must end empty-handed. That absence proof is the
// tier's fast path, and it is precisely the hot case that matters at
// scale — a spoofed flood from randomized sources is almost entirely
// Unknown traffic, and its per-check cost collapses from a 32-level trie
// descent over an ever-larger tree to a couple of cache-line probes that
// stay flat as EIA sets grow 10–1000×.
//
// Every other outcome falls back to the exact trie walk (Bloom-positive
// ⇒ must confirm), so enabling the tier can never flip a verdict: the
// batched and serial check paths produce byte-identical verdict streams
// with the tier on or off. The per-peer filter is probed first: expected
// traffic resolves to the confirm path on its first positive probe
// (typically one cache line), and a peer-negative proves "not expected
// here" early, which the global loop then refines into Unknown-or-walk.
//
// Filters are derived from the trie at publication time and live inside
// the immutable snapshot. Routine publications clone only the touched
// filters and insert the new keys (a re-homed prefix leaves a stale key
// in its old peer's filter, which is only ever a false positive — safe);
// once any touched filter exceeds the capacity it was sized for, the
// whole tier is rebuilt from the trie at double capacity, restoring the
// designed false-positive rate. Checkpoints never serialize filters:
// warm restart loads the trie and rebuilds the tier from it, so the
// filters are correct by construction on every path that creates them.

// Filter seeds. Fixed (not per-process random) so behavior is
// reproducible under test and across warm restarts; the tier defends
// throughput, not secrecy, and the worst an engineered collision set can
// cause is extra fallback walks.
const (
	bloomSeedGlobal = 0x1f117e_e1a_0001
	bloomSeedPeer   = 0x1f117e_e1a_0002
)

// bloomKey packs a masked v4 address and its prefix length into the
// uint64 the filters hash. Length lives in the low byte so /24 and /25
// views of the same address never collide structurally. This is the
// exact pre-dual-stack key, so v4 filter behavior (and the benchmarked
// probe cost) is unchanged by the family-generic refactor.
func bloomKey(masked netaddr.IPv4, bits int) uint64 {
	return uint64(masked)<<8 | uint64(bits)
}

// bloomKey6 condenses a masked v6 address (as its two raw words) and
// prefix length into one hashable word. The 128→64 bit fold can collide
// distinct prefixes, but a filter collision is just a false positive —
// the exact trie confirms — so soundness is untouched. The multiplier
// spreads hi's entropy before xor-folding lo so structured allocations
// (sequential /48s) don't cancel.
func bloomKey6(hi, lo uint64, bits int) uint64 {
	return (hi*0x9e3779b97f4a7c15^lo)<<8 | uint64(bits)
}

// bloomKeyAddr computes the filter key for a prefix of either family.
// Only the build/publish paths use it; the per-check probe loops use the
// family-specialized forms directly.
func bloomKeyAddr(p netaddr.Prefix) uint64 {
	a := p.Addr()
	hi, lo := a.Uint64Pair()
	if a.Family() == netaddr.FamilyV4 {
		return bloomKey(netaddr.IPv4(uint32(lo)), p.Bits())
	}
	return bloomKey6(hi, lo, p.Bits())
}

// lenMask is one v4 prefix length present in the snapshot, with its
// netmask precomputed for the hot loop.
type lenMask struct {
	mask netaddr.IPv4
	bits uint8
}

func maskOf(bits int) netaddr.IPv4 {
	// Shifts ≥ 32 are defined in Go and yield 0, handling /0.
	return ^netaddr.IPv4(0) << (32 - uint(bits))
}

// lenMask6 is one v6 prefix length, with the two mask words precomputed.
type lenMask6 struct {
	maskHi, maskLo uint64
	bits           uint8
}

func maskOf6(bits int) (hi, lo uint64) {
	switch {
	case bits <= 0:
		return 0, 0
	case bits < 64:
		return ^uint64(0) << (64 - uint(bits)), 0
	case bits == 64:
		return ^uint64(0), 0
	case bits < 128:
		return ^uint64(0), ^uint64(0) << (128 - uint(bits))
	default:
		return ^uint64(0), ^uint64(0)
	}
}

// bloomTier is the immutable probabilistic state of one snapshot. peers
// is indexed by PeerAS (small dense ints in this system); nil entries
// are peers with no prefixes. The length lists are kept per family and
// ordered most-populated first so positive probes exit early on the
// common granularity; a check only ever walks its own family's list, so
// v6 prefixes in the snapshot add zero probes to a v4 check.
type bloomTier struct {
	global   *bloom.Filter
	peers    []*bloom.Filter
	lengths  []lenMask
	lengths6 []lenMask6
}

// bloomEnabled reports whether cfg asks for the tier.
func (c Config) bloomEnabled() bool { return c.BloomBitsPerEntry > 0 }

// bloomCapacity sizes a filter with growth headroom: promotions trickle
// in after publication, and 2× slack keeps routine publications on the
// cheap clone-and-insert path instead of forcing rebuilds.
func bloomCapacity(entries int) int {
	if entries < 32 {
		return 64
	}
	return entries * 2
}

// buildBloomTier derives the tier from the trie, the one source of
// truth. Called for the first snapshot (including warm restart, which
// checkpoints only the trie), and whenever an incremental publication
// overflows a filter's sized capacity.
func buildBloomTier(index *netaddr.PrefixTrie[PeerAS], perPeer map[PeerAS]int, cfg Config) *bloomTier {
	if !cfg.bloomEnabled() {
		return nil
	}
	maxPeer := PeerAS(0)
	for p, n := range perPeer {
		if n > 0 && p > maxPeer {
			maxPeer = p
		}
	}
	t := &bloomTier{
		global: bloom.New(bloomCapacity(index.Len()), cfg.BloomBitsPerEntry, bloomSeedGlobal),
		peers:  make([]*bloom.Filter, int(maxPeer)+1),
	}
	for p, n := range perPeer {
		if n > 0 {
			t.peers[p] = bloom.New(bloomCapacity(n), cfg.BloomBitsPerEntry, bloomSeedPeer^uint64(p))
		}
	}
	var perLen [33]int
	var perLen6 [129]int
	index.Walk(func(pfx netaddr.Prefix, peer PeerAS) bool {
		key := bloomKeyAddr(pfx)
		t.global.Add(key)
		if f := t.peers[peer]; f != nil {
			f.Add(key)
		}
		if pfx.Family() == netaddr.FamilyV6 {
			perLen6[pfx.Bits()]++
		} else {
			perLen[pfx.Bits()]++
		}
		return true
	})
	for bits, n := range perLen {
		if n > 0 {
			t.lengths = append(t.lengths, lenMask{mask: maskOf(bits), bits: uint8(bits)})
		}
	}
	sort.SliceStable(t.lengths, func(i, j int) bool {
		return perLen[t.lengths[i].bits] > perLen[t.lengths[j].bits]
	})
	for bits, n := range perLen6 {
		if n > 0 {
			hi, lo := maskOf6(bits)
			t.lengths6 = append(t.lengths6, lenMask6{maskHi: hi, maskLo: lo, bits: uint8(bits)})
		}
	}
	sort.SliceStable(t.lengths6, func(i, j int) bool {
		return perLen6[t.lengths6[i].bits] > perLen6[t.lengths6[j].bits]
	})
	return t
}

// withAssignments returns the tier for a successor snapshot holding the
// applied assignments on top of t: touched filters are cloned once and
// the new keys inserted. If any touched filter overflows its sized
// capacity the whole tier is rebuilt from the (already-updated) trie.
func (t *bloomTier) withAssignments(applied []assignment, index *netaddr.PrefixTrie[PeerAS], perPeer map[PeerAS]int, cfg Config) *bloomTier {
	nt := &bloomTier{global: t.global.Clone(), peers: t.peers, lengths: t.lengths, lengths6: t.lengths6}
	peersCloned := false
	for _, a := range applied {
		key := bloomKeyAddr(a.pfx)
		nt.global.Add(key)
		if !peersCloned {
			nt.peers, peersCloned = clonePeerFilters(t.peers, a.peer), true
		} else if int(a.peer) >= len(nt.peers) {
			grown := make([]*bloom.Filter, int(a.peer)+1)
			copy(grown, nt.peers)
			nt.peers = grown
		}
		f := nt.peers[a.peer]
		switch {
		case f == nil:
			f = bloom.New(bloomCapacity(perPeer[a.peer]), cfg.BloomBitsPerEntry, bloomSeedPeer^uint64(a.peer))
			nt.peers[a.peer] = f
		case f == t.peerFilter(a.peer): // still t's filter (a peer new to t has none)
			f = f.Clone()
			nt.peers[a.peer] = f
		}
		f.Add(key)
		if a.pfx.Family() == netaddr.FamilyV6 {
			if !nt.hasLength6(a.pfx.Bits()) {
				lengths := make([]lenMask6, len(nt.lengths6), len(nt.lengths6)+1)
				copy(lengths, nt.lengths6)
				hi, lo := maskOf6(a.pfx.Bits())
				nt.lengths6 = append(lengths, lenMask6{maskHi: hi, maskLo: lo, bits: uint8(a.pfx.Bits())})
			}
		} else if !nt.hasLength(a.pfx.Bits()) {
			lengths := make([]lenMask, len(nt.lengths), len(nt.lengths)+1)
			copy(lengths, nt.lengths)
			nt.lengths = append(lengths, lenMask{mask: maskOf(a.pfx.Bits()), bits: uint8(a.pfx.Bits())})
		}
	}
	if nt.overflowed() {
		return buildBloomTier(index, perPeer, cfg)
	}
	return nt
}

// clonePeerFilters shallow-copies the filter slice (the filters stay
// shared; withAssignments clones each one before its first insert),
// growing it to fit peer.
func clonePeerFilters(peers []*bloom.Filter, peer PeerAS) []*bloom.Filter {
	n := len(peers)
	if int(peer)+1 > n {
		n = int(peer) + 1
	}
	out := make([]*bloom.Filter, n)
	copy(out, peers)
	return out
}

func (t *bloomTier) hasLength(bits int) bool {
	for _, l := range t.lengths {
		if int(l.bits) == bits {
			return true
		}
	}
	return false
}

func (t *bloomTier) hasLength6(bits int) bool {
	for _, l := range t.lengths6 {
		if int(l.bits) == bits {
			return true
		}
	}
	return false
}

func (t *bloomTier) overflowed() bool {
	if t.global.Overflowed() {
		return true
	}
	for _, f := range t.peers {
		if f != nil && f.Overflowed() {
			return true
		}
	}
	return false
}

// peerFilter returns peer's filter (nil when the peer has no prefixes).
func (t *bloomTier) peerFilter(peer PeerAS) *bloom.Filter {
	if int(peer) < len(t.peers) {
		return t.peers[peer]
	}
	return nil
}

// probe runs the fast-tier case analysis for one (peer, source) check
// against an already-fetched peer filter (hoisted by the batch paths).
// It returns (Unknown, true) when the absence proof lands — no prefix of
// src at any present length is in any set — and (0, false) when the
// caller must confirm against the exact trie. The loops are specialized
// per family: a v4 check masks with one 32-bit AND exactly as before the
// dual-stack refactor, and only walks v4 lengths.
func (t *bloomTier) probe(pf *bloom.Filter, src netaddr.Addr) (Verdict, bool) {
	hi, lo := src.Uint64Pair()
	if src.Family() == netaddr.FamilyV4 {
		v4 := netaddr.IPv4(uint32(lo))
		if pf != nil {
			for _, l := range t.lengths {
				if pf.Test(bloomKey(v4&l.mask, int(l.bits))) {
					return 0, false // maybe expected here: confirm exact
				}
			}
		}
		// Not expected at this peer, definitively. Unknown iff no other
		// set holds a prefix of src either; WrongPeer needs the walk.
		for _, l := range t.lengths {
			if t.global.Test(bloomKey(v4&l.mask, int(l.bits))) {
				return 0, false
			}
		}
		return Unknown, true
	}
	if pf != nil {
		for _, l := range t.lengths6 {
			if pf.Test(bloomKey6(hi&l.maskHi, lo&l.maskLo, int(l.bits))) {
				return 0, false
			}
		}
	}
	for _, l := range t.lengths6 {
		if t.global.Test(bloomKey6(hi&l.maskHi, lo&l.maskLo, int(l.bits))) {
			return 0, false
		}
	}
	return Unknown, true
}

// totalBits sums the bit size of every filter in the tier.
func (t *bloomTier) totalBits() int64 {
	total := int64(t.global.Bits())
	for _, f := range t.peers {
		if f != nil {
			total += int64(f.Bits())
		}
	}
	return total
}
