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
// suspect streams no longer than one counting window and demands, flow
// for flow, the results of exact distinct-target sets kept in the test.
// The engine-level counterpart is the oracle in internal/analysis.
func TestSketchMatchesExactOracleSmallN(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{
			BufferSize:           200,
			NetworkScanThreshold: 2 + rng.Intn(10),
			HostScanThreshold:    2 + rng.Intn(10),
		}
		a := New(cfg)
		hostsOnPort := make(map[uint16]map[netaddr.Addr]bool)
		portsOnHost := make(map[netaddr.Addr]map[uint16]bool)
		n := 1 + rng.Intn(cfg.BufferSize) // never past the first rotation
		for i := 0; i < n; i++ {
			rec := randomSuspect(rng, 40, 30)
			if rng.Intn(5) == 0 {
				rec.Packets = 10 // established flows bypass the counting window
			}
			var want Result
			if rec.Packets <= 2 {
				port, host := rec.Key.DstPort, rec.Key.Dst
				hosts, ports := addTo(hostsOnPort, port, host), addTo(portsOnHost, host, port)
				want = Result{
					Buffered:    true,
					NetworkScan: hosts >= cfg.NetworkScanThreshold,
					HostScan:    ports >= cfg.HostScanThreshold,
				}
			}
			if got := a.Add(rec); got != want {
				t.Fatalf("trial %d flow %d: got %+v, exact sets say %+v", trial, i, got, want)
			}
		}
		// Distinct counts agree too while below k.
		for port := uint16(1); port <= 30; port++ {
			if got, want := a.HostsOnPort(port), len(hostsOnPort[port]); got != want {
				t.Fatalf("trial %d: HostsOnPort(%d) = %d, exact %d", trial, port, got, want)
			}
		}
	}
}

// addTo adds v to the set at m[k] and returns that set's size.
func addTo[K, V comparable](m map[K]map[V]bool, k K, v V) int {
	if m[k] == nil {
		m[k] = make(map[V]bool)
	}
	m[k][v] = true
	return len(m[k])
}

// TestSketchDetectsBeyondRingCapacity is why the analyzer counts with
// sketches: a network scan spread over far more suspects than the
// paper's 200-entry buffer holds still trips, where that buffer would
// have forgotten the early probes long before the 1000th host.
func TestSketchDetectsBeyondRingCapacity(t *testing.T) {
	a := New(Config{NetworkScanThreshold: 1000, BufferSize: 1 << 20})
	fired := false
	for i := 0; i < 4096 && !fired; i++ {
		dst := netaddr.AddrFrom4(192, 0, byte(i>>8), byte(i))
		fired = a.Add(suspect(dst.String(), 1434)).NetworkScan
	}
	if !fired {
		t.Fatal("analyzer never tripped a 1000-host scan")
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
