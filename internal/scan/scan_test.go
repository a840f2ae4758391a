package scan

import (
	"testing"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/sketch"
	"infilter/internal/trace"
)

func suspect(dst string, port uint16) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:     netaddr.MustParseAddr("61.1.1.1"),
			Dst:     netaddr.MustParseAddr(dst),
			Proto:   flow.ProtoUDP,
			DstPort: port,
		},
		Packets: 1,
		Bytes:   60,
	}
}

func TestNetworkScanDetection(t *testing.T) {
	a := New(Config{NetworkScanThreshold: 5})
	var fired bool
	for i := 0; i < 10; i++ {
		dst := netaddr.FromOctets(192, 0, 2, byte(i+1))
		r := a.Add(suspect(dst.String(), 1434))
		if r.Attack() {
			fired = true
			if i < 4 {
				t.Fatalf("network scan fired after only %d hosts", i+1)
			}
			break
		}
	}
	if !fired {
		t.Fatal("network scan never detected")
	}
}

func TestHostScanDetection(t *testing.T) {
	a := New(Config{HostScanThreshold: 5})
	var fired bool
	for i := 0; i < 10; i++ {
		r := a.Add(suspect("192.0.2.7", uint16(100+i)))
		if r.Attack() {
			fired = true
			if i < 4 {
				t.Fatalf("host scan fired after only %d ports", i+1)
			}
			if !r.HostScan || r.NetworkScan {
				t.Errorf("result flags %+v", r)
			}
			break
		}
	}
	if !fired {
		t.Fatal("host scan never detected")
	}
}

func TestDuplicatePairsDoNotInflateCounts(t *testing.T) {
	a := New(Config{NetworkScanThreshold: 3, HostScanThreshold: 3})
	for i := 0; i < 20; i++ {
		r := a.Add(suspect("192.0.2.1", 80)) // same host, same port
		if r.Attack() {
			t.Fatalf("repeated identical flow flagged as scan at %d", i)
		}
	}
	if a.HostsOnPort(80) != 1 || a.PortsOnHost(netaddr.MustParseAddr("192.0.2.1")) != 1 {
		t.Errorf("distinct counts inflated: %d hosts, %d ports",
			a.HostsOnPort(80), a.PortsOnHost(netaddr.MustParseAddr("192.0.2.1")))
	}
}

func TestBufferEvictionDecaysCounts(t *testing.T) {
	a := New(Config{BufferSize: 4, NetworkScanThreshold: 100, ExactBuffer: true})
	// Fill buffer with 4 distinct hosts on port 9.
	for i := 0; i < 4; i++ {
		a.Add(suspect(netaddr.FromOctets(192, 0, 2, byte(i+1)).String(), 9))
	}
	if a.HostsOnPort(9) != 4 {
		t.Fatalf("HostsOnPort = %d", a.HostsOnPort(9))
	}
	// Push 4 unrelated flows; the port-9 entries must age out.
	for i := 0; i < 4; i++ {
		a.Add(suspect(netaddr.FromOctets(10, 0, 0, byte(i+1)).String(), uint16(5000+i)))
	}
	if a.HostsOnPort(9) != 0 {
		t.Errorf("HostsOnPort(9) = %d after eviction", a.HostsOnPort(9))
	}
	if a.Buffered() != 4 {
		t.Errorf("Buffered = %d, want 4", a.Buffered())
	}
}

func TestBufferedGrowth(t *testing.T) {
	a := New(Config{BufferSize: 10, ExactBuffer: true})
	if a.Buffered() != 0 {
		t.Errorf("empty Buffered = %d", a.Buffered())
	}
	for i := 0; i < 7; i++ {
		a.Add(suspect("192.0.2.1", uint16(i)))
	}
	if a.Buffered() != 7 {
		t.Errorf("Buffered = %d, want 7", a.Buffered())
	}
	for i := 0; i < 10; i++ {
		a.Add(suspect("192.0.2.1", uint16(100+i)))
	}
	if a.Buffered() != 10 {
		t.Errorf("Buffered = %d at capacity", a.Buffered())
	}
}

func TestReset(t *testing.T) {
	a := New(Config{})
	for i := 0; i < 50; i++ {
		a.Add(suspect(netaddr.FromOctets(192, 0, 2, byte(i)).String(), 1434))
	}
	a.Reset()
	if a.Buffered() != 0 || a.HostsOnPort(1434) != 0 {
		t.Error("Reset did not clear state")
	}
	// Still usable after reset.
	r := a.Add(suspect("192.0.2.1", 1434))
	if r.Attack() {
		t.Error("attack flagged right after reset")
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := New(Config{ExactBuffer: true})
	if len(a.ring) != DefaultBufferSize {
		t.Errorf("default buffer %d", len(a.ring))
	}
	if a.cfg.NetworkScanThreshold != DefaultNetworkScanThreshold ||
		a.cfg.HostScanThreshold != DefaultHostScanThreshold {
		t.Errorf("defaults %+v", a.cfg)
	}
	s := New(Config{})
	if s.cfg.MaxRegisters != DefaultMaxRegisters || s.cfg.DecayEvery != DefaultBufferSize {
		t.Errorf("sketch defaults %+v", s.cfg)
	}
	if s.ring != nil || s.portRegs == nil {
		t.Error("default backend is not the sketch path")
	}
	s.Add(suspect("192.0.2.1", 1434))
	if k := s.portRegs[1434].cur.K(); k != sketch.DefaultK {
		t.Errorf("live register k = %d, want sketch.DefaultK %d", k, sketch.DefaultK)
	}
}

// TestSlammerFlowsTriggerNetworkScan drives the analyzer with real Slammer
// attack flows aggregated from the trace generator.
func TestSlammerFlowsTriggerNetworkScan(t *testing.T) {
	pkts, err := trace.Generate(trace.AttackSlammer, trace.AttackConfig{
		Seed:      3,
		Src:       netaddr.MustParseAddr("61.1.1.1"),
		DstPrefix: netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	var fired bool
	for _, p := range pkts {
		if a.Add(flow.Record{Key: p.FlowKey(1), Packets: 1}).NetworkScan {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("slammer flows did not trigger network scan detection")
	}
}

// TestIdlescanFlowsTriggerHostScan does the same with the nmap Idlescan
// shape.
func TestIdlescanFlowsTriggerHostScan(t *testing.T) {
	pkts, err := trace.Generate(trace.AttackIdlescan, trace.AttackConfig{
		Seed:      3,
		Src:       netaddr.MustParseAddr("61.1.1.1"),
		DstPrefix: netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	var fired bool
	for _, p := range pkts {
		if a.Add(flow.Record{Key: p.FlowKey(1), Packets: 1}).HostScan {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("idlescan flows did not trigger host scan detection")
	}
}

// TestBenignSuspectsRarelyFire feeds benign suspect flows — service traffic
// concentrated on small server pools, as in real ISP traces — and expects
// no scan verdicts.
func TestBenignSuspectsRarelyFire(t *testing.T) {
	a := New(Config{})
	ports := []uint16{80, 25, 21, 53, 443, 110}
	for i := 0; i < 300; i++ {
		// Each service has a handful of servers; hosts per port stay small.
		dst := netaddr.FromOctets(192, 0, 2, byte((i%len(ports))*8+i%4))
		r := a.Add(suspect(dst.String(), ports[i%len(ports)]))
		if r.Attack() {
			t.Fatalf("benign mix flagged at %d: %+v", i, r)
		}
	}
}

// TestEstablishedFlowsBypassBuffer checks that multi-packet flows never
// enter the scan buffer regardless of their spread.
func TestEstablishedFlowsBypassBuffer(t *testing.T) {
	a := New(Config{NetworkScanThreshold: 3})
	for i := 0; i < 20; i++ {
		r := suspect(netaddr.FromOctets(192, 0, 2, byte(i+1)).String(), 80)
		r.Packets = 25
		res := a.Add(r)
		if res.Buffered || res.Attack() {
			t.Fatalf("established flow buffered or flagged: %+v", res)
		}
	}
	if a.Buffered() != 0 {
		t.Errorf("buffer holds %d established flows", a.Buffered())
	}
}
