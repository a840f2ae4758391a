package trace

import (
	"fmt"
	"math/rand"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/packet"
)

// AttackType enumerates the 12 unique attacks used in the evaluation
// (§6.2): stealthy denial-of-service tools (Puke, Jolt, Teardrop), the
// Slammer worm, the TFN2K DDoS flood, scan attacks, and service exploits
// against http, ftp, smtp and dns.
type AttackType int

// The attack catalog.
const (
	AttackPuke AttackType = iota + 1
	AttackJolt
	AttackTeardrop
	AttackSlammer
	AttackTFN2K
	AttackSYNFlood
	AttackIdlescan
	AttackNetworkScan
	AttackHTTPExploit
	AttackFTPExploit
	AttackSMTPExploit
	AttackDNSExploit
)

// NumAttackTypes is the size of the attack catalog.
const NumAttackTypes = 12

// AttackInfo describes an attack's shape.
type AttackInfo struct {
	Type     AttackType
	Name     string
	Stealthy bool // one-or-few packets, invisible to volume sensors
	Scan     bool // network or host scan shape
}

var attackCatalog = map[AttackType]AttackInfo{
	AttackPuke:        {AttackPuke, "puke", true, false},
	AttackJolt:        {AttackJolt, "jolt", true, false},
	AttackTeardrop:    {AttackTeardrop, "teardrop", true, false},
	AttackSlammer:     {AttackSlammer, "slammer", true, true},
	AttackTFN2K:       {AttackTFN2K, "tfn2k", false, false},
	AttackSYNFlood:    {AttackSYNFlood, "synflood", false, false},
	AttackIdlescan:    {AttackIdlescan, "idlescan", true, true},
	AttackNetworkScan: {AttackNetworkScan, "netscan", true, true},
	AttackHTTPExploit: {AttackHTTPExploit, "http-exploit", true, false},
	AttackFTPExploit:  {AttackFTPExploit, "ftp-exploit", true, false},
	AttackSMTPExploit: {AttackSMTPExploit, "smtp-exploit", true, false},
	AttackDNSExploit:  {AttackDNSExploit, "dns-exploit", true, false},
}

// AllAttacks returns the catalog in enum order.
func AllAttacks() []AttackInfo {
	out := make([]AttackInfo, 0, NumAttackTypes)
	for t := AttackPuke; t <= AttackDNSExploit; t++ {
		out = append(out, attackCatalog[t])
	}
	return out
}

// String returns the attack's short name.
func (t AttackType) String() string {
	if info, ok := attackCatalog[t]; ok {
		return info.Name
	}
	return fmt.Sprintf("attack(%d)", int(t))
}

// AttackConfig parameterizes one attack instance.
type AttackConfig struct {
	// Seed fixes the PRNG.
	Seed int64
	// Start is the attack launch time.
	Start time.Time
	// Src is the (spoofed) source address. Dagflow rewrites it per the
	// experiment's spoofing policy; generators still need a placeholder.
	Src netaddr.Addr
	// DstPrefix is the target network; scan attacks pick many hosts from
	// it, point attacks pick one.
	DstPrefix netaddr.Prefix
	// Scale multiplies the volume of voluminous attacks (floods) and the
	// breadth of scans. Zero means 1.
	Scale int
}

func (c AttackConfig) scale() int {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// Generate produces the packet trace of one attack instance, time-ordered.
func Generate(t AttackType, cfg AttackConfig) ([]packet.Packet, error) {
	if cfg.DstPrefix.IsZero() {
		return nil, fmt.Errorf("trace: attack %v: DstPrefix required", t)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dst := randomAddr(rng, cfg.DstPrefix)
	switch t {
	case AttackPuke:
		return genPuke(rng, cfg, dst), nil
	case AttackJolt:
		return genJolt(rng, cfg, dst), nil
	case AttackTeardrop:
		return genTeardrop(cfg, dst), nil
	case AttackSlammer:
		return genSlammer(rng, cfg), nil
	case AttackTFN2K:
		return genTFN2K(rng, cfg, dst), nil
	case AttackSYNFlood:
		return genSYNFlood(rng, cfg, dst), nil
	case AttackIdlescan:
		return genIdlescan(rng, cfg, dst), nil
	case AttackNetworkScan:
		return genNetworkScan(rng, cfg), nil
	case AttackHTTPExploit:
		return genExploit(rng, cfg, dst, flow.ProtoTCP, flow.PortHTTP), nil
	case AttackFTPExploit:
		return genExploit(rng, cfg, dst, flow.ProtoTCP, flow.PortFTP), nil
	case AttackSMTPExploit:
		return genExploit(rng, cfg, dst, flow.ProtoTCP, flow.PortSMTP), nil
	case AttackDNSExploit:
		return genExploit(rng, cfg, dst, flow.ProtoUDP, flow.PortDNS), nil
	default:
		return nil, fmt.Errorf("trace: unknown attack type %d", int(t))
	}
}

// genPuke forges a burst of ICMP destination-unreachable messages at a
// victim to tear down its sessions. A handful of packets.
func genPuke(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	n := 3 + rng.Intn(3)
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		pkts = append(pkts, packet.Packet{
			Time:    cfg.Start.Add(time.Duration(i) * 2 * time.Millisecond),
			Src:     cfg.Src,
			Dst:     dst,
			Proto:   flow.ProtoICMP,
			SrcPort: 0x0303, // type 3 code 3: port unreachable
			Length:  56,
		})
	}
	return pkts
}

// genJolt sends an oversized fragmented ICMP echo (the "ping of death"
// family): dozens of max-size fragments reassembling past 65535 bytes.
func genJolt(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	frags := 45 + rng.Intn(5)
	pkts := make([]packet.Packet, 0, frags)
	for i := 0; i < frags; i++ {
		pkts = append(pkts, packet.Packet{
			Time:     cfg.Start.Add(time.Duration(i) * 100 * time.Microsecond),
			Src:      cfg.Src,
			Dst:      dst,
			Proto:    flow.ProtoICMP,
			SrcPort:  0x0800,
			Length:   1480,
			FragOff:  uint16(i * 185),
			MoreFrag: i < frags-1,
		})
	}
	return pkts
}

// genTeardrop sends two UDP fragments with overlapping offsets, crashing
// vulnerable reassembly code. Two packets total.
func genTeardrop(cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	return []packet.Packet{
		{
			Time: cfg.Start, Src: cfg.Src, Dst: dst,
			Proto: flow.ProtoUDP, SrcPort: 53, DstPort: 53,
			Length: 56, MoreFrag: true,
		},
		{
			Time: cfg.Start.Add(time.Millisecond), Src: cfg.Src, Dst: dst,
			Proto: flow.ProtoUDP, SrcPort: 53, DstPort: 53,
			Length: 24, FragOff: 3, // overlaps the first fragment
		},
	}
}

// genSlammer reproduces the worm's propagation shape: one 404-byte UDP
// packet to port 1434 at each of many random hosts in the target network.
func genSlammer(rng *rand.Rand, cfg AttackConfig) []packet.Packet {
	hosts := 20 * cfg.scale()
	pkts := make([]packet.Packet, 0, hosts)
	for i := 0; i < hosts; i++ {
		pkts = append(pkts, packet.Packet{
			Time:    cfg.Start.Add(time.Duration(i) * time.Millisecond),
			Src:     cfg.Src,
			Dst:     randomAddr(rng, cfg.DstPrefix),
			Proto:   flow.ProtoUDP,
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: 1434,
			Length:  404,
		})
	}
	return pkts
}

// genTFN2K emulates a TFN2K flood slice: a sustained mixed UDP/ICMP
// packet stream at one victim.
func genTFN2K(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	n := 400 * cfg.scale()
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		p := packet.Packet{
			Time:   cfg.Start.Add(time.Duration(i) * 500 * time.Microsecond),
			Src:    cfg.Src,
			Dst:    dst,
			Length: uint16(28 + rng.Intn(1000)),
		}
		if rng.Intn(2) == 0 {
			p.Proto = flow.ProtoUDP
			p.SrcPort = uint16(rng.Intn(65536))
			p.DstPort = uint16(rng.Intn(65536))
		} else {
			p.Proto = flow.ProtoICMP
			p.SrcPort = 0x0800
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// genSYNFlood sends a burst of bare SYNs at one service port.
func genSYNFlood(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	n := 300 * cfg.scale()
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		pkts = append(pkts, packet.Packet{
			Time:     cfg.Start.Add(time.Duration(i) * time.Millisecond),
			Src:      cfg.Src,
			Dst:      dst,
			Proto:    flow.ProtoTCP,
			SrcPort:  uint16(rng.Intn(64512) + 1024),
			DstPort:  flow.PortHTTP,
			Length:   40,
			TCPFlags: packet.FlagSYN,
		})
	}
	return pkts
}

// genIdlescan reproduces nmap's blind Idlescan against one host: spoofed
// SYN probes sweeping many destination ports (a host scan).
func genIdlescan(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr) []packet.Packet {
	ports := 25 * cfg.scale()
	pkts := make([]packet.Packet, 0, ports)
	for i := 0; i < ports; i++ {
		pkts = append(pkts, packet.Packet{
			Time:     cfg.Start.Add(time.Duration(i) * 10 * time.Millisecond),
			Src:      cfg.Src,
			Dst:      dst,
			Proto:    flow.ProtoTCP,
			SrcPort:  uint16(rng.Intn(64512) + 1024),
			DstPort:  uint16(1 + i*7%4096),
			Length:   40,
			TCPFlags: packet.FlagSYN,
		})
	}
	return pkts
}

// genNetworkScan sweeps one TCP service port across many hosts in the
// target network (a network scan).
func genNetworkScan(rng *rand.Rand, cfg AttackConfig) []packet.Packet {
	hosts := 25 * cfg.scale()
	pkts := make([]packet.Packet, 0, hosts)
	for i := 0; i < hosts; i++ {
		pkts = append(pkts, packet.Packet{
			Time:     cfg.Start.Add(time.Duration(i) * 5 * time.Millisecond),
			Src:      cfg.Src,
			Dst:      randomAddr(rng, cfg.DstPrefix),
			Proto:    flow.ProtoTCP,
			SrcPort:  uint16(rng.Intn(64512) + 1024),
			DstPort:  flow.PortFTP,
			Length:   40,
			TCPFlags: packet.FlagSYN,
		})
	}
	return pkts
}

// genExploit emulates a service exploit: a short flow whose statistics sit
// far outside the service's normal envelope — a rapid burst of maximum-size
// segments carrying an overflow payload.
func genExploit(rng *rand.Rand, cfg AttackConfig, dst netaddr.Addr, proto uint8, port uint16) []packet.Packet {
	if proto == flow.ProtoUDP {
		// One oversized UDP datagram (e.g. a malformed DNS TKEY blob).
		return []packet.Packet{{
			Time:    cfg.Start,
			Src:     cfg.Src,
			Dst:     dst,
			Proto:   flow.ProtoUDP,
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: port,
			Length:  4096,
		}}
	}
	// TCP: ~80 back-to-back 1460-byte segments inside ~40ms, a byte/packet
	// rate far above any benign flow to the same service.
	n := 80
	srcPort := uint16(1024 + rng.Intn(60000))
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		flags := uint8(packet.FlagACK | packet.FlagPSH)
		if i == 0 {
			flags = packet.FlagSYN
		}
		pkts = append(pkts, packet.Packet{
			Time:     cfg.Start.Add(time.Duration(i) * 500 * time.Microsecond),
			Src:      cfg.Src,
			Dst:      dst,
			Proto:    flow.ProtoTCP,
			SrcPort:  srcPort,
			DstPort:  port,
			Length:   1460,
			TCPFlags: flags,
		})
	}
	return pkts
}
