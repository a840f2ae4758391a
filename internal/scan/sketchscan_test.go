package scan

import (
	"math/rand"
	"testing"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// randomSuspect draws a probe-like suspect from a small universe of
// hosts and ports so duplicate (port,host) pairs occur.
func randomSuspect(rng *rand.Rand, hosts, ports int) flow.Record {
	return suspect(
		netaddr.AddrFrom4(10, 0, byte(rng.Intn(hosts)/256), byte(rng.Intn(hosts)%256)).String(),
		uint16(1+rng.Intn(ports)),
	)
}

// TestSketchMatchesExactOracleSmallN drives the analyzer with random
// suspect streams and demands, flow for flow, the results of an
// in-test reference that keeps exact per-generation sets and counts the
// union of the current and the previous generation. One arm stays
// inside the first counting window, another runs up to five windows at
// small buffer sizes, and one row counts 300 hosts on one port. The
// engine-level counterpart is the oracle in internal/analysis.
func TestSketchMatchesExactOracleSmallN(t *testing.T) {
	t.Run("one-window", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			size := 200
			checkWindowed(t, rng, size, 1+rng.Intn(size)) // never past the first rotation
		}
	})
	t.Run("multi-window", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			size := 8 + rng.Intn(33)
			checkWindowed(t, rng, size, 1+rng.Intn(5*size))
		}
	})
	t.Run("300-hosts", func(t *testing.T) {
		a := New(Config{BufferSize: 1 << 20})
		for i := 0; i < 300; i++ {
			a.Add(suspect(netaddr.AddrFrom4(192, 0, byte(2+i/250), byte(1+i%250)).String(), 1434))
		}
		if got := a.HostsOnPort(1434); got != 300 {
			t.Fatalf("HostsOnPort(1434) = %d, want 300", got)
		}
	})
}

// checkWindowed feeds n random suspects to an analyzer with the given
// buffer size and random thresholds, comparing every Result with the
// windowed reference, and every port's and host's distinct count after
// each rotation and at the end of the stream.
func checkWindowed(t *testing.T, rng *rand.Rand, size, n int) {
	t.Helper()
	const hosts, ports = 40, 30
	cfg := Config{
		BufferSize:           size,
		NetworkScanThreshold: 2 + rng.Intn(10),
		HostScanThreshold:    2 + rng.Intn(10),
	}
	a := New(cfg)
	var hostsOnPort genSets[uint16, netaddr.Addr]
	var portsOnHost genSets[netaddr.Addr, uint16]
	buffered := 0
	for i := 0; i < n; i++ {
		rec := randomSuspect(rng, hosts, ports)
		if rng.Intn(5) == 0 {
			rec.Packets = 10 // established flows bypass the counting window
		}
		var want Result
		if rec.Packets <= 2 {
			port, host := rec.Key.DstPort, rec.Key.Dst
			g := buffered / size
			buffered++
			want = Result{
				Buffered:    true,
				NetworkScan: hostsOnPort.add(g, port, host) >= cfg.NetworkScanThreshold,
				HostScan:    portsOnHost.add(g, host, port) >= cfg.HostScanThreshold,
			}
		}
		if got := a.Add(rec); got != want {
			t.Fatalf("size %d flow %d: got %+v, windowed sets say %+v", size, i, got, want)
		}
		if want.Buffered && buffered%size == 0 || i == n-1 {
			g := buffered / size
			for port := uint16(1); port <= ports; port++ {
				if got, want := a.HostsOnPort(port), hostsOnPort.count(g, port); got != want {
					t.Fatalf("size %d generation %d: HostsOnPort(%d) = %d, windowed %d", size, g, port, got, want)
				}
			}
			for h := 0; h < hosts; h++ {
				host := netaddr.AddrFrom4(10, 0, 0, byte(h))
				if got, want := a.PortsOnHost(host), portsOnHost.count(g, host); got != want {
					t.Fatalf("size %d generation %d: PortsOnHost(%v) = %d, windowed %d", size, g, host, got, want)
				}
			}
		}
	}
}

// genSets is the reference's exact sets, one map per generation.
type genSets[K, V comparable] []map[K]map[V]bool

// add records v under k in generation g and returns k's count over
// generations g-1 and g.
func (s *genSets[K, V]) add(g int, k K, v V) int {
	for len(*s) <= g {
		*s = append(*s, make(map[K]map[V]bool))
	}
	gen := (*s)[g]
	if gen[k] == nil {
		gen[k] = make(map[V]bool)
	}
	gen[k][v] = true
	return s.count(g, k)
}

// count returns the number of distinct values under k in generations
// g-1 and g.
func (s genSets[K, V]) count(g int, k K) int {
	union := make(map[V]bool)
	for _, gg := range []int{g - 1, g} {
		if gg >= 0 && gg < len(s) {
			for v := range s[gg][k] {
				union[v] = true
			}
		}
	}
	return len(union)
}

// TestSketchDetectsBeyondRingCapacity is why the analyzer counts with
// windowed registers rather than a ring: with a large BufferSize a
// network scan spread over far more suspects than the paper's 200-entry
// buffer holds trips at exactly its 1000th distinct host, where that
// buffer would have forgotten the early probes long before.
func TestSketchDetectsBeyondRingCapacity(t *testing.T) {
	a := New(Config{NetworkScanThreshold: 1000, BufferSize: 1 << 20})
	first := -1
	for i := 0; i < 4096 && first < 0; i++ {
		dst := netaddr.AddrFrom4(192, 0, byte(i>>8), byte(i))
		if a.Add(suspect(dst.String(), 1434)).NetworkScan {
			first = i
		}
	}
	if first != 999 {
		t.Fatalf("analyzer first tripped a 1000-host scan at probe %d, want 999 (the 1000th host)", first)
	}
}

// TestSketchDecayForgets checks the generation rotation: distinct
// counts age out after the register sits idle for two windows.
func TestSketchDecayForgets(t *testing.T) {
	a := New(Config{BufferSize: 8, NetworkScanThreshold: 100})
	for i := 0; i < 8; i++ {
		a.Add(suspect(netaddr.AddrFrom4(192, 0, 2, byte(i+1)).String(), 9))
	}
	if got := a.HostsOnPort(9); got != 8 {
		t.Fatalf("HostsOnPort(9) = %d before decay", got)
	}
	// The 8th add above rotated to generation 1; while the next window
	// fills, port 9's register is one generation old — still within the
	// two-generation horizon.
	for i := 0; i < 7; i++ {
		a.Add(suspect(netaddr.AddrFrom4(10, 0, 0, byte(i+1)).String(), uint16(5000+i)))
	}
	if got := a.HostsOnPort(9); got != 8 {
		t.Fatalf("HostsOnPort(9) = %d one idle window later, want 8", got)
	}
	// Two more rotations push the idle register out entirely.
	for i := 0; i < 17; i++ {
		a.Add(suspect(netaddr.AddrFrom4(10, 0, 1, byte(i+1)).String(), uint16(6000+i)))
	}
	if got := a.HostsOnPort(9); got != 0 {
		t.Fatalf("HostsOnPort(9) = %d after two idle windows, want 0", got)
	}
}

// TestSketchRegisterCapOverflow: at MaxRegisters with nothing stale to
// reclaim, new ports are not admitted (and existing counting still
// works) instead of growing without bound.
func TestSketchRegisterCapOverflow(t *testing.T) {
	a := New(Config{MaxRegisters: 4, BufferSize: 1 << 20, NetworkScanThreshold: 3})
	for port := uint16(1); port <= 4; port++ {
		a.Add(suspect("192.0.2.1", port))
	}
	a.Add(suspect("192.0.2.1", 999)) // fifth port register: over cap
	if len(a.portRegs) > 4 {
		t.Fatalf("port registers grew past cap: %d", len(a.portRegs))
	}
	if a.HostsOnPort(999) != 0 {
		t.Error("over-cap port acquired a register")
	}
	// Established registers keep counting.
	for i := 0; i < 3; i++ {
		r := a.Add(suspect(netaddr.AddrFrom4(192, 0, 2, byte(10+i)).String(), 1))
		if i == 2 && !r.NetworkScan {
			t.Error("existing register stopped tripping after overflow")
		}
	}
}
