package dagflow

import (
	"math"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

var (
	boot     = time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	dstBlock = netaddr.MustParsePrefix("192.0.2.0/24")
)

func normalTrace(t *testing.T, flows int, seed int64) []packet.Packet {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       boot.Add(time.Minute),
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   dstBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestBlockPolicyDeterministicAndInRange(t *testing.T) {
	blocks := []WeightedBlock{
		{Prefix: netaddr.MustParsePrefix("192.4.0.0/16"), Weight: 25},
		{Prefix: netaddr.MustParsePrefix("214.96.0.0/16"), Weight: 25},
		{Prefix: netaddr.MustParsePrefix("145.25.0.0/16"), Weight: 50},
	}
	p, err := NewBlockPolicy(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		orig := netaddr.IPv4(i * 7919).Addr()
		a := p.Rewrite(orig)
		b := p.Rewrite(orig)
		if a != b {
			t.Fatalf("Rewrite not deterministic for %v", orig)
		}
		inAny := false
		for _, blk := range blocks {
			if blk.Prefix.Contains(a) {
				inAny = true
				break
			}
		}
		if !inAny {
			t.Fatalf("rewritten %v outside all blocks", a)
		}
	}
}

// TestBlockPolicyDistribution checks the paper's worked example: 25% /
// 25% / 50% splits should hold approximately.
func TestBlockPolicyDistribution(t *testing.T) {
	blocks := []WeightedBlock{
		{Prefix: netaddr.MustParsePrefix("192.4.0.0/16"), Weight: 25},
		{Prefix: netaddr.MustParsePrefix("214.96.0.0/16"), Weight: 25},
		{Prefix: netaddr.MustParsePrefix("145.25.0.0/16"), Weight: 50},
	}
	p, err := NewBlockPolicy(blocks, 42)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		a := p.Rewrite(netaddr.IPv4(uint32(i) * 2654435761).Addr())
		for j, blk := range blocks {
			if blk.Prefix.Contains(a) {
				counts[j]++
			}
		}
	}
	for j, want := range []float64{0.25, 0.25, 0.50} {
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("block %d share %.3f, want %.2f±0.02", j, got, want)
		}
	}
}

func TestNewBlockPolicyRejectsEmpty(t *testing.T) {
	if _, err := NewBlockPolicy(nil, 0); err == nil {
		t.Error("empty blocks: want error")
	}
	if _, err := NewBlockPolicy([]WeightedBlock{{Prefix: dstBlock, Weight: 0}}, 0); err == nil {
		t.Error("zero weights: want error")
	}
}

func TestSpoofPolicyKeepsFlowsIntact(t *testing.T) {
	sp, err := NewSpoofPolicy([]netaddr.Prefix{netaddr.MustParsePrefix("70.0.0.0/11")}, 9)
	if err != nil {
		t.Fatal(err)
	}
	orig := netaddr.MustParseAddr("61.9.9.9")
	if sp.Rewrite(orig) != sp.Rewrite(orig) {
		t.Error("spoof mapping not stable within a replay")
	}
	if !netaddr.MustParsePrefix("70.0.0.0/11").Contains(sp.Rewrite(orig)) {
		t.Error("spoofed address outside target block")
	}
}

func TestReplayProducesFlows(t *testing.T) {
	in := New(Config{Name: "S1", InputIf: 1}, boot)
	pkts := normalTrace(t, 300, 11)
	dgs, err := in.Replay(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) == 0 {
		t.Fatal("no datagrams exported")
	}
	buf := netflow.NewDecodeBuffer(nil)
	totalFlows := 0
	var lastSeq uint32
	for i, d := range dgs {
		totalFlows += d.Flows
		if d.Flows > netflow.MaxRecords {
			t.Errorf("datagram %d has %d records", i, d.Flows)
		}
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Records) != d.Flows {
			t.Errorf("datagram %d: decoded %d records, Flows says %d", i, len(msg.Records), d.Flows)
		}
		if i > 0 && msg.Sequence < lastSeq {
			t.Error("flow sequence not monotone")
		}
		lastSeq = msg.Sequence
	}
	// Roughly one flow per generated flow (some may merge on key collision).
	if totalFlows < 250 || totalFlows > 400 {
		t.Errorf("replay produced %d flows for 300 generated", totalFlows)
	}
}

func TestReplayAppliesPolicy(t *testing.T) {
	target := netaddr.MustParsePrefix("88.0.0.0/11")
	bp, err := NewBlockPolicy(UniformBlocks([]netaddr.Prefix{target}), 5)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{Name: "S2", Policy: bp, InputIf: 2}, boot)
	dgs, err := in.Replay(normalTrace(t, 100, 12))
	if err != nil {
		t.Fatal(err)
	}
	buf := netflow.NewDecodeBuffer(nil)
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range msg.Records {
			if !target.Contains(r.Key.Src) {
				t.Fatalf("record src %v escaped policy block", r.Key.Src)
			}
			if r.Key.InputIf != 2 {
				t.Fatalf("record ifIndex %d, want 2", r.Key.InputIf)
			}
		}
	}
}

// TestReplayV9MatchesV5 replays the same trace as v5 and as v9: the two
// streams must decode to the same number of flows in the same order.
func TestReplayV9MatchesV5(t *testing.T) {
	decodeAll := func(dgs []netflow.WireDatagram) []flow.Record {
		buf := netflow.NewDecodeBuffer(nil)
		var out []flow.Record
		for _, d := range dgs {
			msg, err := netflow.Decode(d.Raw, buf)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, msg.Records...)
		}
		return out
	}
	v5, err := New(Config{Name: "S1", InputIf: 1}, boot).Replay(normalTrace(t, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	v9, err := New(Config{Name: "S1", InputIf: 1, Version: netflow.VersionV9, EngineID: 4}, boot).Replay(normalTrace(t, 200, 13))
	if err != nil {
		t.Fatal(err)
	}
	a, b := decodeAll(v5), decodeAll(v9)
	if len(a) != len(b) {
		t.Fatalf("v5 decoded %d flows, v9 %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Packets != b[i].Packets || a[i].Bytes != b[i].Bytes {
			t.Fatalf("flow %d differs across versions:\nv5 %+v\nv9 %+v", i, a[i], b[i])
		}
	}
}

// TestReplayV9DelayedTemplate withholds the template: data datagrams
// orphan at the receiver until the Flush-emitted template resolves them.
func TestReplayV9DelayedTemplate(t *testing.T) {
	in := New(Config{
		Name: "S1", InputIf: 1,
		Version: netflow.VersionV9, EngineID: 4, TemplateDelay: 1000,
	}, boot)
	dgs, err := in.Replay(normalTrace(t, 120, 14))
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, d := range dgs {
		sent += d.Flows
	}
	buf := netflow.NewDecodeBuffer(nil)
	decoded, orphaned, resolved := 0, 0, 0
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		decoded += len(msg.Records)
		orphaned += msg.Orphaned
		resolved += msg.Resolved
	}
	if orphaned == 0 {
		t.Error("no data sets were orphaned despite the delayed template")
	}
	if resolved == 0 || decoded != sent {
		t.Errorf("decoded %d of %d flows (resolved %d)", decoded, sent, resolved)
	}
}

// TestReplayIPFIX covers the third wire format end to end.
func TestReplayIPFIX(t *testing.T) {
	in := New(Config{Name: "S1", InputIf: 1, Version: netflow.VersionIPFIX, EngineID: 4}, boot)
	if in.Version() != netflow.VersionIPFIX {
		t.Fatalf("Version() = %d", in.Version())
	}
	dgs, err := in.Replay(normalTrace(t, 120, 15))
	if err != nil {
		t.Fatal(err)
	}
	buf := netflow.NewDecodeBuffer(nil)
	decoded, sent := 0, 0
	for _, d := range dgs {
		sent += d.Flows
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		decoded += len(msg.Records)
	}
	if sent == 0 || decoded != sent {
		t.Errorf("decoded %d of %d flows", decoded, sent)
	}
}

func TestReplayRejectsUnorderedTrace(t *testing.T) {
	in := New(Config{Name: "S3"}, boot)
	pkts := []packet.Packet{
		{Time: boot.Add(2 * time.Second), Proto: flow.ProtoUDP, Length: 40},
		{Time: boot.Add(1 * time.Second), Proto: flow.ProtoUDP, Length: 40},
	}
	if _, err := in.Replay(pkts); err == nil {
		t.Error("unordered trace: want error")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	in := New(Config{Name: "S4"}, boot)
	dgs, err := in.Replay(nil)
	if err != nil || dgs != nil {
		t.Errorf("empty replay = %v, %v", dgs, err)
	}
}

func TestReplayDeterministic(t *testing.T) {
	mk := func(version uint16) []netflow.WireDatagram {
		in := New(Config{Name: "S5", InputIf: 1, Version: version}, boot)
		dgs, err := in.Replay(normalTrace(t, 150, 20))
		if err != nil {
			t.Fatal(err)
		}
		return dgs
	}
	for _, version := range []uint16{netflow.VersionV5, netflow.VersionV9, netflow.VersionIPFIX} {
		a, b := mk(version), mk(version)
		if len(a) != len(b) {
			t.Fatalf("v%d datagram counts differ: %d vs %d", version, len(a), len(b))
		}
		for i := range a {
			if string(a[i].Raw) != string(b[i].Raw) {
				t.Fatalf("v%d datagram %d differs across identical replays", version, i)
			}
		}
	}
}

func TestReplayEndToEndOverUDPShape(t *testing.T) {
	// Datagrams must round-trip the wire codec after a replay.
	in := New(Config{Name: "S6", InputIf: 3}, boot)
	dgs, err := in.Replay(normalTrace(t, 40, 44))
	if err != nil {
		t.Fatal(err)
	}
	buf := netflow.NewDecodeBuffer(nil)
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Records) != d.Flows {
			t.Fatal("wire round trip lost records")
		}
	}
}
