package eia

import (
	"bytes"
	"math/rand"
	"testing"

	"infilter/internal/netaddr"
)

// refV4Entry / refV4Set are an independent re-implementation of the
// pre-dual-stack engine: prefixes held as (base, bits) uint32 pairs and
// looked up by linear longest-prefix scan, exactly the semantics the
// original uint32-keyed trie had. The dual-stack refactor must not
// perturb v4 verdicts, so the verdict stream the family-generic Store
// produces over a v4-only trace has to be byte-identical to this
// reference. scripts/check.sh and the CI race job both run this test
// under the race detector alongside the dual-stack e2e.
type refV4Entry struct {
	base uint32
	bits int
	peer PeerAS
}

type refV4Set []refV4Entry

func (s refV4Set) check(peer PeerAS, src uint32) Verdict {
	best := -1
	var owner PeerAS
	for _, e := range s {
		mask := ^uint32(0) << (32 - e.bits)
		if src&mask == e.base && e.bits > best {
			best = e.bits
			owner = e.peer
		}
	}
	switch {
	case best < 0:
		return Unknown
	case owner == peer:
		return Match
	default:
		return WrongPeer
	}
}

func TestV4VerdictStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	set := NewSet(Config{})
	var ref refV4Set
	seen := make(map[refV4Entry]int) // keyed base+bits, value index in ref
	for len(ref) < 48 {
		bits := 8 + rng.Intn(17) // /8 .. /24
		base := rng.Uint32() & (^uint32(0) << (32 - bits))
		peer := PeerAS(1 + rng.Intn(8))
		key := refV4Entry{base: base, bits: bits}
		pfx := netaddr.PrefixFrom4(netaddr.IPv4(base), bits)
		set.AddPrefix(peer, pfx)
		if i, dup := seen[key]; dup {
			ref[i].peer = peer // AddPrefix overwrote; mirror it
			continue
		}
		seen[key] = len(ref)
		ref = append(ref, refV4Entry{base: base, bits: bits, peer: peer})
	}
	store := NewStore(set)

	const n = 20000
	peers := make([]PeerAS, n)
	srcs := make([]netaddr.Addr, n)
	raw := make([]uint32, n)
	for i := 0; i < n; i++ {
		peers[i] = PeerAS(1 + rng.Intn(8))
		var v uint32
		if i%2 == 0 {
			// Draw from an inserted prefix so Match and WrongPeer appear.
			e := ref[rng.Intn(len(ref))]
			v = e.base | (rng.Uint32() &^ (^uint32(0) << (32 - e.bits)))
		} else {
			v = rng.Uint32()
		}
		raw[i] = v
		srcs[i] = netaddr.IPv4(v).Addr()
	}

	got := make([]Verdict, n)
	checkByPeer(store, peers, srcs, got)

	gotStream := make([]byte, n)
	wantStream := make([]byte, n)
	counts := map[Verdict]int{}
	for i := 0; i < n; i++ {
		gotStream[i] = byte(got[i])
		wantStream[i] = byte(ref.check(peers[i], raw[i]))
		counts[got[i]]++
	}
	if !bytes.Equal(gotStream, wantStream) {
		for i := range gotStream {
			if gotStream[i] != wantStream[i] {
				t.Fatalf("verdict stream diverges at %d: src %v peer %d: got %v, want %v",
					i, srcs[i], peers[i], got[i], Verdict(wantStream[i]))
			}
		}
	}
	for _, v := range []Verdict{Match, WrongPeer, Unknown} {
		if counts[v] == 0 {
			t.Errorf("verdict %v never produced; stream not representative", v)
		}
	}

	// The scalar path must agree with the batch path record by record.
	for i := 0; i < n; i += 97 {
		if v := store.Check(peers[i], srcs[i]); v != got[i] {
			t.Errorf("scalar Check(%d, %v) = %v, batch said %v", peers[i], srcs[i], v, got[i])
		}
	}
}
