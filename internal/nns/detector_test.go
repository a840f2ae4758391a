package nns

import (
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/trace"
)

// trainFlows aggregates a generated normal trace into flow records.
func trainFlows(t testing.TB, flows int, seed int64) []flow.Record {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC),
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	return cache.Drain()
}

func attackFlows(t testing.TB, at trace.AttackType, seed int64) []flow.Record {
	t.Helper()
	pkts, err := trace.Generate(at, trace.AttackConfig{
		Seed:      seed,
		Start:     time.Date(2005, 4, 1, 1, 0, 0, 0, time.UTC),
		Src:       netaddr.MustParseAddr("70.1.2.3"),
		DstPrefix: netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	return cache.Drain()
}

func TestTrainRequiresData(t *testing.T) {
	if _, err := Train(DetectorConfig{}, nil); err == nil {
		t.Error("empty training set: want error")
	}
}

func TestTrainBuildsServiceClusters(t *testing.T) {
	d, err := Train(DetectorConfig{}, trainFlows(t, 1500, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Clusters()
	if len(got) < 5 {
		t.Errorf("only %d subclusters trained: %v", len(got), got)
	}
	for _, c := range got {
		th, ok := d.Threshold(c)
		if !ok || th <= 0 {
			t.Errorf("cluster %v threshold %d, %v", c, th, ok)
		}
	}
	if _, ok := d.Threshold(flow.ClusterOther); ok {
		t.Error("threshold for untrained cluster should miss")
	}
}

func TestBenignFlowsMostlyPass(t *testing.T) {
	d, err := Train(DetectorConfig{}, trainFlows(t, 1500, 2))
	if err != nil {
		t.Fatal(err)
	}
	holdout := trainFlows(t, 400, 3) // same distribution, fresh seed
	fp := 0
	for _, r := range holdout {
		if d.Assess(r).Anomalous {
			fp++
		}
	}
	rate := float64(fp) / float64(len(holdout))
	if rate > 0.10 {
		t.Errorf("benign holdout anomaly rate %.1f%% (fp=%d/%d), want ≤10%%",
			100*rate, fp, len(holdout))
	}
}

func TestExploitsAreAnomalous(t *testing.T) {
	d, err := Train(DetectorConfig{}, trainFlows(t, 1500, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []trace.AttackType{
		trace.AttackHTTPExploit, trace.AttackFTPExploit,
		trace.AttackSMTPExploit, trace.AttackDNSExploit,
	} {
		recs := attackFlows(t, at, 5)
		if len(recs) == 0 {
			t.Fatalf("%v produced no flows", at)
		}
		detected := 0
		for _, r := range recs {
			if d.Assess(r).Anomalous {
				detected++
			}
		}
		if detected == 0 {
			t.Errorf("%v: 0/%d flows anomalous", at, len(recs))
		}
	}
}

func TestAssessUnknownClusterAnomalous(t *testing.T) {
	d, err := Train(DetectorConfig{}, trainFlows(t, 800, 6))
	if err != nil {
		t.Fatal(err)
	}
	// GRE flow: no "other" training data exists.
	r := flow.Record{Key: flow.Key{Proto: 47}, Packets: 10, Bytes: 1000}
	a := d.Assess(r)
	if !a.Anomalous || a.Cluster != flow.ClusterOther || a.Distance != -1 {
		t.Errorf("unknown cluster assessment %+v", a)
	}
}

func TestDetectorConfigDefaults(t *testing.T) {
	cfg := DetectorConfig{}.withDefaults()
	if cfg.Params.D != DefaultD || cfg.ThresholdQuantile != 1.0 ||
		cfg.ThresholdSlack != DefaultThresholdSlack ||
		cfg.MinClusterSize != DefaultMinClusterSize {
		t.Errorf("defaults %+v", cfg)
	}
}

// TestPartitionAblation contrasts per-protocol clusters with one global
// cluster: the unpartitioned detector is strictly more permissive on
// service-specific exploits, confirming the paper's §5.1.3(c) rationale.
func TestPartitionAblation(t *testing.T) {
	training := trainFlows(t, 1500, 30)
	part, err := Train(DetectorConfig{}, training)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Train(DetectorConfig{DisablePartition: true}, training)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.Clusters(); len(got) != 1 || got[0] != flow.ClusterOther {
		t.Fatalf("unpartitioned detector has clusters %v", got)
	}

	detects := func(d *Detector, at trace.AttackType) int {
		n := 0
		for _, r := range attackFlows(t, at, 31) {
			if d.Assess(r).Anomalous {
				n++
			}
		}
		return n
	}
	// Sum detections over the four service exploits. The partitioned
	// detector must do at least as well overall — the exploit flows sit
	// inside the global cluster's much wider envelope.
	var partHits, flatHits int
	for _, at := range []trace.AttackType{
		trace.AttackHTTPExploit, trace.AttackFTPExploit,
		trace.AttackSMTPExploit, trace.AttackDNSExploit,
	} {
		partHits += detects(part, at)
		flatHits += detects(flat, at)
	}
	if partHits < flatHits {
		t.Errorf("partitioned detector found %d exploit flows, unpartitioned %d", partHits, flatHits)
	}
	if partHits == 0 {
		t.Error("partitioned detector found nothing — ablation baseline broken")
	}
}

func TestMinClusterSizeSkipsSparseClusters(t *testing.T) {
	// Train with only a handful of flows per cluster but a high minimum:
	// Train must fail since nothing reaches the bar.
	few := trainFlows(t, 30, 7)
	if _, err := Train(DetectorConfig{MinClusterSize: 1000}, few); err == nil {
		t.Error("no cluster reaches MinClusterSize: want error")
	}
}
