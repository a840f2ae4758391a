package bgp

import (
	"strings"
	"testing"

	"infilter/internal/netaddr"
	"infilter/internal/stats"
)

// paperDump is the worked example from §3.2 (2002-06-23-1000.dat excerpt).
const paperDump = `
* 4.0.0.0 193.0.0.56 3333 9057 3356 1 i
* 217.75.96.60 16150 8434 286 1 i
* 141.142.12.1 1224 38 10514 3356 1 i
* 4.2.101.0/24 141.142.12.1 1224 38 6325 1 i
* 202.249.2.86 7500 2497 1 i
* 203.194.0.5 9942 1 i
* 66.203.205.62 852 1 i
* 167.142.3.6 5056 1 e
* 206.220.240.95 10764 1 i
* 157.130.182.254 19092 1 i
* 203.62.252.26 1221 4637 1 i
* 202.232.1.91 2497 1 i
*> 4.0.4.90 1 i
`

func TestParseShowIPBGP(t *testing.T) {
	entries, err := ParseShowIPBGP(strings.NewReader(paperDump))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 13 {
		t.Fatalf("parsed %d entries, want 13", len(entries))
	}
	e := entries[0]
	if e.Network != netaddr.MustParsePrefix("4.0.0.0/8") {
		t.Errorf("first network %v, want classful 4.0.0.0/8", e.Network)
	}
	if len(e.Path) != 4 || e.Path[0] != 3333 || e.Path[3] != 1 {
		t.Errorf("first path %v", e.Path)
	}
	// Continuation lines inherit the previous network.
	if entries[1].Network != netaddr.MustParsePrefix("4.0.0.0/8") {
		t.Errorf("continuation network %v", entries[1].Network)
	}
	if entries[3].Network != netaddr.MustParsePrefix("4.2.101.0/24") {
		t.Errorf("explicit /24 network %v", entries[3].Network)
	}
	if !entries[12].Best {
		t.Error("*> entry not marked best")
	}
	if p := entries[0].Path; p[len(p)-1] != 1 {
		t.Errorf("origin AS %d, want 1", p[len(p)-1])
	}
}

func TestEntryPeerAndSources(t *testing.T) {
	entries, err := ParseShowIPBGP(strings.NewReader(paperDump))
	if err != nil {
		t.Fatal(err)
	}
	// Path 1224 38 10514 3356 1: peer 3356, sources {1224,38,10514}.
	e := entries[2]
	peer, ok := e.PeerAS()
	if !ok || peer != 3356 {
		t.Errorf("peer = %d", peer)
	}
	srcs := e.SourceASes()
	if len(srcs) != 3 || srcs[0] != 1224 || srcs[2] != 10514 {
		t.Errorf("sources %v", srcs)
	}
	// Single-AS path 1: the neighbor AS peers directly.
	last := entries[12]
	if peer, ok := last.PeerAS(); !ok || peer != 1 {
		t.Errorf("direct peer = %d, %v", peer, ok)
	}
	if last.SourceASes() != nil {
		t.Errorf("direct path has sources %v", last.SourceASes())
	}
}

// TestDeriveMappingPaperExample reproduces the §3.2 worked mapping for
// target 4.2.101.20 exactly, including the more-specific-prefix rule for
// ASes 1224 and 38.
func TestDeriveMappingPaperExample(t *testing.T) {
	entries, err := ParseShowIPBGP(strings.NewReader(paperDump))
	if err != nil {
		t.Fatal(err)
	}
	m := DeriveMapping(entries, netaddr.MustParseAddr("4.2.101.20"))

	want := map[uint16][]uint16{
		3356: {3333, 9057, 10514},
		286:  {8434, 16150},
		6325: {38, 1224},
		2497: {7500},
		4637: {1221},
	}
	for peer, srcs := range want {
		got := m[peer]
		if len(got) != len(srcs) {
			t.Errorf("peer %d sources %v, want %v", peer, got, srcs)
			continue
		}
		for i := range srcs {
			if got[i] != srcs[i] {
				t.Errorf("peer %d sources %v, want %v", peer, got, srcs)
				break
			}
		}
	}
	// 1224 and 38 must NOT appear under 3356.
	for _, s := range m[3356] {
		if s == 1224 || s == 38 {
			t.Errorf("source %d wrongly mapped to 3356 instead of the /24's 6325", s)
		}
	}
}

func TestDeriveMappingOutsideTarget(t *testing.T) {
	entries, err := ParseShowIPBGP(strings.NewReader(paperDump))
	if err != nil {
		t.Fatal(err)
	}
	// 4.0.4.90 is covered by 4/8 only: the /24's paths must not apply.
	m := DeriveMapping(entries, netaddr.MustParseAddr("4.0.4.90"))
	peerOf := m.SourcePeer()
	if peerOf[1224] != 3356 {
		t.Errorf("1224 maps to %d for 4.0.4.90, want 3356", peerOf[1224])
	}
	// An address outside every prefix yields an empty mapping.
	if got := DeriveMapping(entries, netaddr.MustParseAddr("99.9.9.9")); len(got) != 0 {
		t.Errorf("mapping for uncovered address: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"* bad-ip 1 2 3 i\n",
		"* 4.0.0.0 not-an-ip 1 2 i\n",
		"* 4.0.0.0 1.2.3.4 99999999 i\n",
	} {
		if _, err := ParseShowIPBGP(strings.NewReader(in)); err == nil {
			t.Errorf("ParseShowIPBGP(%q): want error", in)
		}
	}
	// Non-asterisk lines are skipped silently.
	got, err := ParseShowIPBGP(strings.NewReader("Network Next Hop Path\nsome header\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("header-only parse: %v, %v", got, err)
	}
}

func TestClassfulDefaults(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"4.0.0.0", "4.0.0.0/8"},
		{"141.142.0.0", "141.142.0.0/16"},
		{"203.194.0.0", "203.194.0.0/24"},
		{"4.2.101.0/24", "4.2.101.0/24"},
	}
	for _, tt := range tests {
		got, err := parsePrefixClassful(tt.in)
		if err != nil {
			t.Errorf("parsePrefixClassful(%q): %v", tt.in, err)
			continue
		}
		if got.String() != tt.want {
			t.Errorf("parsePrefixClassful(%q) = %v, want %s", tt.in, got, tt.want)
		}
	}
}

func TestFractionChanged(t *testing.T) {
	a := Mapping{1: {10, 11}, 2: {12, 13}}
	same := Mapping{1: {10, 11}, 2: {12, 13}}
	if got := FractionChanged(a, same); got != 0 {
		t.Errorf("identical mappings changed %v", got)
	}
	moved := Mapping{1: {10}, 2: {11, 12, 13}} // source 11 moved peers
	if got := FractionChanged(a, moved); got != 0.25 {
		t.Errorf("one of four moved: %v, want 0.25", got)
	}
	if got := FractionChanged(Mapping{}, Mapping{}); got != 0 {
		t.Errorf("empty mappings changed %v", got)
	}
	// A vanished source counts as changed.
	gone := Mapping{1: {10, 11}, 2: {12}}
	if got := FractionChanged(a, gone); got != 0.25 {
		t.Errorf("vanished source: %v, want 0.25", got)
	}
}

// TestSimulateFigure5 reproduces Figure 5's envelope: average change
// around 1-2%, maximum around 5%, growing with peer count.
func TestSimulateFigure5(t *testing.T) {
	series, err := Simulate(SimConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != DefaultSimTargets {
		t.Fatalf("%d series, want %d", len(series), DefaultSimTargets)
	}
	var avgs, maxes []float64
	for _, s := range series {
		if s.NumPeers < DefaultSimMinPeers || s.NumPeers > DefaultSimMaxPeers {
			t.Errorf("target %d has %d peers", s.TargetAS, s.NumPeers)
		}
		avgs = append(avgs, s.AvgChange)
		maxes = append(maxes, s.MaxChange)
	}
	grandAvg := stats.Mean(avgs)
	grandMax := stats.Max(maxes)
	if grandAvg < 0.005 || grandAvg > 0.03 {
		t.Errorf("average change %.4f, want ≈0.016 (paper: 1.6%%)", grandAvg)
	}
	if grandMax > 0.08 {
		t.Errorf("max change %.4f, want ≈0.05 (paper: 5%%)", grandMax)
	}
	// Dependence on peer count: the busiest targets change more than the
	// single-digit-peer ones on average.
	var small, large []float64
	for _, s := range series {
		if s.NumPeers <= 10 {
			small = append(small, s.AvgChange)
		} else if s.NumPeers >= 30 {
			large = append(large, s.AvgChange)
		}
	}
	if len(small) > 0 && len(large) > 0 && stats.Mean(large) <= stats.Mean(small)*0.8 {
		t.Errorf("change does not grow with peers: small=%.4f large=%.4f",
			stats.Mean(small), stats.Mean(large))
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{MaxPeers: 100, MinPeers: 2}); err == nil {
		t.Error("MaxPeers beyond scale: want error")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(SimConfig{Seed: 5, Targets: 3, Readings: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(SimConfig{Seed: 5, Targets: 3, Readings: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series %d differs across identical seeds", i)
		}
	}
}
