package dagflow

import (
	"slices"
	"strings"
	"testing"
	"time"

	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

var dstBlock6 = netaddr.MustParsePrefix("2001:db8:2000::/64")

func normalTrace6(t *testing.T, flows int, seed int64) []packet.Packet {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       boot.Add(time.Minute),
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("2001:db8:1000::/48")},
		DstPrefix:   dstBlock6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestBlockPolicyV6 re-homes v6 originals onto v6 blocks: deterministic
// per address, always inside a configured block, and spread across the
// blocks rather than collapsing onto one.
func TestBlockPolicyV6(t *testing.T) {
	blocks := []WeightedBlock{
		{Prefix: netaddr.MustParsePrefix("2001:db8:aa00::/40"), Weight: 1},
		{Prefix: netaddr.MustParsePrefix("2001:db8:bb00::/40"), Weight: 1},
	}
	p, err := NewBlockPolicy(blocks, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := netaddr.MustParsePrefix("2001:db8:1000::/48")
	hit := make([]int, len(blocks))
	for i := uint64(0); i < 500; i++ {
		orig := base.Nth(i * 7919)
		a := p.Rewrite(orig)
		if a != p.Rewrite(orig) {
			t.Fatalf("Rewrite not deterministic for %v", orig)
		}
		inAny := false
		for j, blk := range blocks {
			if blk.Prefix.Contains(a) {
				hit[j]++
				inAny = true
			}
		}
		if !inAny {
			t.Fatalf("rewritten %v outside all blocks", a)
		}
	}
	for j, n := range hit {
		if n == 0 {
			t.Errorf("block %d never selected across 500 rewrites", j)
		}
	}
}

// TestBlockPolicyV4MappingUnchangedByV6Blocks pins the dual-stack hash
// contract: a v4 original hashes from its 32-bit value alone, so its
// mapping depends only on the salt and block weights — not on whether
// v6 blocks were appended to the policy after it.
func TestBlockPolicyV4HashStability(t *testing.T) {
	v4blocks := []WeightedBlock{
		{Prefix: netaddr.MustParsePrefix("192.4.0.0/16"), Weight: 1},
		{Prefix: netaddr.MustParsePrefix("145.25.0.0/16"), Weight: 1},
	}
	p1, err := NewBlockPolicy(v4blocks, 99)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewBlockPolicy(v4blocks, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 200; i++ {
		orig := netaddr.IPv4(i * 2654435761).Addr()
		if p1.Rewrite(orig) != p2.Rewrite(orig) {
			t.Fatalf("same-salt policies disagree for %v", orig)
		}
	}
}

// TestReplayV6EndToEnd replays a v6 trace through a v9 and an IPFIX
// instance and decodes the export stream: the flow records must come
// back with their v6 addresses intact (via the v6 template the encoder
// announces). NetFlow v5 has no v6 address fields, so a v5 instance
// must refuse the trace rather than export 0.0.0.0, and must refuse a v4
// trace whose sources are rewritten into a v6 block too.
func TestReplayV6EndToEnd(t *testing.T) {
	spoof6, err := NewSpoofPolicy([]netaddr.Prefix{netaddr.MustParsePrefix("2001:db8::/32")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy SourcePolicy
		pkts   []packet.Packet
	}{{nil, normalTrace6(t, 150, 17)}, {spoof6, normalTrace(t, 50, 17)}} {
		in := New(Config{Name: "S6", Policy: tc.policy}, boot)
		_, err := in.Replay(tc.pkts)
		if err == nil || !strings.Contains(err.Error(), "S6") || !strings.Contains(err.Error(), "packet 0 ") {
			t.Errorf("v5 replay of IPv6 packets: err = %v, want one naming S6 and packet 0", err)
		}
	}
	for _, version := range []uint16{netflow.VersionV9, netflow.VersionIPFIX} {
		in := New(Config{Name: "S6", InputIf: 3, Version: version}, boot)
		pkts := normalTrace6(t, 150, 17)
		dgs, err := in.Replay(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if len(dgs) == 0 {
			t.Fatal("no datagrams exported")
		}
		buf := netflow.NewDecodeBuffer(nil)
		flows := 0
		for _, d := range dgs {
			msg, err := netflow.Decode(d.Raw, buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range msg.Records {
				flows++
				if !r.Key.Src.Is6() || !r.Key.Dst.Is6() {
					t.Fatalf("version %d: decoded non-v6 record %+v", version, r.Key)
				}
				if !dstBlock6.Contains(r.Key.Dst) {
					t.Fatalf("version %d: dst %v outside %v", version, r.Key.Dst, dstBlock6)
				}
				if r.Key.InputIf != 3 {
					t.Fatalf("version %d: InputIf %d, want 3", version, r.Key.InputIf)
				}
			}
		}
		if flows == 0 {
			t.Fatalf("version %d: no flow records decoded", version)
		}
	}
}

// TestReplayMixedFamilies replays an interleaved v4+v6 trace through one
// instance: both families must survive the cache, the per-family
// export templates and the decode side by side.
func TestReplayMixedFamilies(t *testing.T) {
	mixed := append(normalTrace(t, 100, 23), normalTrace6(t, 100, 23)...)
	slices.SortStableFunc(mixed, func(a, b packet.Packet) int { return a.Time.Compare(b.Time) })
	in := New(Config{Name: "SM", InputIf: 2, Version: netflow.VersionIPFIX}, boot)
	dgs, err := in.Replay(mixed)
	if err != nil {
		t.Fatal(err)
	}
	buf := netflow.NewDecodeBuffer(nil)
	n4, n6 := 0, 0
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range msg.Records {
			if r.Key.Src.Is6() {
				n6++
			} else {
				n4++
			}
		}
	}
	if n4 == 0 || n6 == 0 {
		t.Fatalf("family missing from mixed replay: v4=%d v6=%d flows", n4, n6)
	}
}
