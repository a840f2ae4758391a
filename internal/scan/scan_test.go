package scan

import (
	"testing"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
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

func TestDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if want := (Config{
		BufferSize:           DefaultBufferSize,
		NetworkScanThreshold: DefaultNetworkScanThreshold,
		HostScanThreshold:    DefaultHostScanThreshold,
		MaxRegisters:         DefaultMaxRegisters,
	}); s.cfg != want {
		t.Errorf("defaults %+v, want %+v", s.cfg, want)
	}
	s.Add(suspect("192.0.2.1", 1434))
	if n := s.portRegs[1434].count(s.gen); n != 1 {
		t.Errorf("fresh port register counts %d, want 1", n)
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
	if a.sinceRotate != 0 || len(a.portRegs) != 0 {
		t.Errorf("window holds %d established flows in %d port registers", a.sinceRotate, len(a.portRegs))
	}
}
