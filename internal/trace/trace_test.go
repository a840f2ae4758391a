package trace

import (
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
)

var (
	testStart = time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	srcBlock  = netaddr.MustParsePrefix("61.0.0.0/11")
	dstBlock  = netaddr.MustParsePrefix("192.0.2.0/24")
)

func normalCfg(flows int) NormalConfig {
	return NormalConfig{
		Seed:        1,
		Start:       testStart,
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{srcBlock},
		DstPrefix:   dstBlock,
	}
}

func TestGenerateNormalBasics(t *testing.T) {
	pkts, err := GenerateNormal(normalCfg(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 200 {
		t.Fatalf("generated %d packets for 200 flows", len(pkts))
	}
	for i, p := range pkts {
		if !srcBlock.Contains(p.Src) {
			t.Fatalf("packet %d src %v outside %v", i, p.Src, srcBlock)
		}
		if !dstBlock.Contains(p.Dst) {
			t.Fatalf("packet %d dst %v outside %v", i, p.Dst, dstBlock)
		}
		if i > 0 && p.Time.Before(pkts[i-1].Time) {
			t.Fatalf("packets not time-ordered at %d", i)
		}
	}
}

func TestGenerateNormalDeterministic(t *testing.T) {
	a, err := GenerateNormal(normalCfg(50))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNormal(normalCfg(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs with same seed", i)
		}
	}
	cfg := normalCfg(50)
	cfg.Seed = 2
	c, err := GenerateNormal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateNormalServiceMix(t *testing.T) {
	pkts, err := GenerateNormal(normalCfg(2000))
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate into flows through the router cache to count per cluster.
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	counts := map[flow.Subcluster]int{}
	total := 0
	for _, r := range cache.Drain() {
		counts[flow.Classify(r.Key)]++
		total++
	}
	if total < 1800 {
		t.Fatalf("only %d flows out of 2000 generated", total)
	}
	// HTTP should dominate, and every cluster should appear.
	if counts[flow.ClusterHTTP] < total/3 {
		t.Errorf("http flows %d of %d, want dominant share", counts[flow.ClusterHTTP], total)
	}
	for _, c := range []flow.Subcluster{
		flow.ClusterHTTP, flow.ClusterSMTP, flow.ClusterFTP, flow.ClusterDNS,
		flow.ClusterTCP, flow.ClusterUDP, flow.ClusterICMP,
	} {
		if counts[c] == 0 {
			t.Errorf("cluster %v absent from normal mix", c)
		}
	}
	if counts[flow.ClusterOther] != 0 {
		t.Errorf("unexpected %d flows in other cluster", counts[flow.ClusterOther])
	}
}

func TestGenerateNormalValidation(t *testing.T) {
	cfg := normalCfg(10)
	cfg.Flows = 0
	if _, err := GenerateNormal(cfg); err == nil {
		t.Error("Flows=0: want error")
	}
	cfg = normalCfg(10)
	cfg.SrcPrefixes = nil
	if _, err := GenerateNormal(cfg); err == nil {
		t.Error("no SrcPrefixes: want error")
	}
	cfg = normalCfg(10)
	cfg.DstPrefix = netaddr.Prefix{}
	if _, err := GenerateNormal(cfg); err == nil {
		t.Error("no DstPrefix: want error")
	}
}

func attackCfg(seed int64) AttackConfig {
	return AttackConfig{
		Seed:      seed,
		Start:     testStart,
		Src:       netaddr.MustParseAddr("61.5.5.5"),
		DstPrefix: dstBlock,
	}
}

func TestAttackCatalogComplete(t *testing.T) {
	all := AllAttacks()
	if len(all) != NumAttackTypes {
		t.Fatalf("catalog has %d attacks, want %d", len(all), NumAttackTypes)
	}
	seen := map[string]bool{}
	for _, info := range all {
		if info.Name == "" {
			t.Errorf("attack %d has empty name", info.Type)
		}
		if seen[info.Name] {
			t.Errorf("duplicate attack name %q", info.Name)
		}
		seen[info.Name] = true
		if info.Type.String() != info.Name {
			t.Errorf("String() = %q, want %q", info.Type.String(), info.Name)
		}
	}
	if AttackType(99).String() != "attack(99)" {
		t.Errorf("unknown String() = %q", AttackType(99).String())
	}
}

func TestAllAttacksGenerate(t *testing.T) {
	for _, info := range AllAttacks() {
		pkts, err := Generate(info.Type, attackCfg(3))
		if err != nil {
			t.Errorf("%v: %v", info.Type, err)
			continue
		}
		if len(pkts) == 0 {
			t.Errorf("%v produced no packets", info.Type)
			continue
		}
		for i, p := range pkts {
			if p.Src != netaddr.MustParseAddr("61.5.5.5") {
				t.Errorf("%v packet %d src %v", info.Type, i, p.Src)
				break
			}
			if !dstBlock.Contains(p.Dst) {
				t.Errorf("%v packet %d dst %v outside target", info.Type, i, p.Dst)
				break
			}
			if i > 0 && p.Time.Before(pkts[i-1].Time) {
				t.Errorf("%v not time-ordered", info.Type)
				break
			}
		}
	}
}

func TestGenerateUnknownAttack(t *testing.T) {
	if _, err := Generate(AttackType(0), attackCfg(1)); err == nil {
		t.Error("unknown attack: want error")
	}
	cfg := attackCfg(1)
	cfg.DstPrefix = netaddr.Prefix{}
	if _, err := Generate(AttackSlammer, cfg); err == nil {
		t.Error("missing DstPrefix: want error")
	}
}

func TestStealthyAttacksAreSmall(t *testing.T) {
	for _, info := range AllAttacks() {
		if !info.Stealthy {
			continue
		}
		pkts, err := Generate(info.Type, attackCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) > 100 {
			t.Errorf("stealthy %v produced %d packets", info.Type, len(pkts))
		}
	}
}

func TestVoluminousAttacksAreLarge(t *testing.T) {
	for _, tt := range []AttackType{AttackTFN2K, AttackSYNFlood} {
		pkts, err := Generate(tt, attackCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) < 200 {
			t.Errorf("%v produced only %d packets", tt, len(pkts))
		}
	}
}

func TestSlammerShape(t *testing.T) {
	pkts, err := Generate(AttackSlammer, attackCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[netaddr.Addr]bool{}
	for _, p := range pkts {
		if p.Proto != flow.ProtoUDP || p.DstPort != 1434 || p.Length != 404 {
			t.Fatalf("slammer packet wrong shape: %+v", p)
		}
		hosts[p.Dst] = true
	}
	if len(hosts) < 10 {
		t.Errorf("slammer hit %d distinct hosts, want many", len(hosts))
	}
}

func TestIdlescanShape(t *testing.T) {
	pkts, err := Generate(AttackIdlescan, attackCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[netaddr.Addr]bool{}
	ports := map[uint16]bool{}
	for _, p := range pkts {
		hosts[p.Dst] = true
		ports[p.DstPort] = true
		if p.TCPFlags != packet.FlagSYN {
			t.Fatalf("idlescan packet not a bare SYN: %+v", p)
		}
	}
	if len(hosts) != 1 {
		t.Errorf("idlescan hit %d hosts, want 1", len(hosts))
	}
	if len(ports) < 20 {
		t.Errorf("idlescan swept %d ports, want many", len(ports))
	}
}

func TestNetworkScanShape(t *testing.T) {
	pkts, err := Generate(AttackNetworkScan, attackCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[netaddr.Addr]bool{}
	for _, p := range pkts {
		hosts[p.Dst] = true
		if p.DstPort != flow.PortFTP {
			t.Fatalf("network scan port %d varies", p.DstPort)
		}
	}
	if len(hosts) < 10 {
		t.Errorf("network scan hit %d hosts, want many", len(hosts))
	}
}

func TestTeardropShape(t *testing.T) {
	pkts, err := Generate(AttackTeardrop, attackCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("teardrop is %d packets, want 2", len(pkts))
	}
	// A first fragment with more to come, then one at an offset.
	if !pkts[0].MoreFrag || pkts[1].FragOff == 0 {
		t.Error("teardrop packets not fragments")
	}
}

func TestScaleGrowsVolume(t *testing.T) {
	small, err := Generate(AttackTFN2K, attackCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := attackCfg(1)
	cfg.Scale = 3
	big, err := Generate(AttackTFN2K, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 3*len(small) {
		t.Errorf("scale 3: %d packets vs %d at scale 1", len(big), len(small))
	}
}

func TestExploitFlowStatsAnomalous(t *testing.T) {
	// The HTTP exploit's flow must have a byte rate far above the benign
	// envelope (normal http: ≤1400-byte packets spread over ≥100ms).
	pkts, err := Generate(AttackHTTPExploit, attackCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	recs := cache.Drain()
	if len(recs) != 1 {
		t.Fatalf("exploit produced %d flows, want 1", len(recs))
	}
	r := recs[0]
	if flow.Classify(r.Key) != flow.ClusterHTTP {
		t.Errorf("exploit classified as %v", flow.Classify(r.Key))
	}
	if r.BitRate() < 5e6 {
		t.Errorf("exploit bit rate %.0f too tame to stand out", r.BitRate())
	}
}
