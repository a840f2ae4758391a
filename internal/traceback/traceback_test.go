package traceback

import (
	"fmt"
	"testing"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/trace"
)

var t0 = time.Date(2005, 4, 1, 12, 0, 0, 0, time.UTC)

func alertAt(at time.Time, peer int, src, dst string, stage idmef.Stage) idmef.Alert {
	return idmef.NewAlert("id", at, stage, peer, "spoofed-traffic",
		flow.Key{
			Src: netaddr.MustParseAddr(src),
			Dst: netaddr.MustParseAddr(dst),
		}, 0)
}

func TestSnapshotAggregation(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 8; i++ {
		tr.Observe(alertAt(t0.Add(time.Duration(i)*time.Second), 3,
			fmt.Sprintf("70.0.0.%d", i), "192.0.2.1", idmef.StageScan))
	}
	tr.Observe(alertAt(t0, 5, "80.0.0.1", "192.0.2.2", idmef.StageNNS))

	snap := tr.Snapshot(t0.Add(10 * time.Second))
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d ingresses", len(snap))
	}
	top := snap[0]
	if top.PeerAS != 3 || top.Alerts != 8 || top.DistinctSources != 8 || top.DistinctVictims != 1 {
		t.Errorf("top ingress %+v", top)
	}
	if top.Share < 0.8 {
		t.Errorf("top share %.2f", top.Share)
	}
	if top.ByStage[idmef.StageScan] != 8 {
		t.Errorf("stage counts %v", top.ByStage)
	}
	if !top.FirstSeen.Equal(t0) || !top.LastSeen.Equal(t0.Add(7*time.Second)) {
		t.Errorf("first/last %v/%v", top.FirstSeen, top.LastSeen)
	}
}

func TestEntryPointThresholds(t *testing.T) {
	tr := New(Config{MinAlerts: 5, MinShare: 0.5})
	// 6 alerts at peer 1, 4 at peer 2: only peer 1 clears both bars.
	for i := 0; i < 6; i++ {
		tr.Observe(alertAt(t0, 1, "70.0.0.1", "192.0.2.1", idmef.StageEIA))
	}
	for i := 0; i < 4; i++ {
		tr.Observe(alertAt(t0, 2, "70.0.0.2", "192.0.2.1", idmef.StageEIA))
	}
	eps := tr.EntryPoints(t0.Add(time.Second))
	if len(eps) != 1 || eps[0].PeerAS != 1 {
		t.Fatalf("entry points %v", eps)
	}
	if eps[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestWindowPruning(t *testing.T) {
	tr := New(Config{Window: time.Minute})
	tr.Observe(alertAt(t0, 1, "70.0.0.1", "192.0.2.1", idmef.StageEIA))
	tr.Observe(alertAt(t0.Add(55*time.Second), 1, "70.0.0.2", "192.0.2.1", idmef.StageEIA))
	if n := tr.WindowSize(t0.Add(59 * time.Second)); n != 2 {
		t.Errorf("window size %d, want 2", n)
	}
	// The first alert ages out.
	if n := tr.WindowSize(t0.Add(90 * time.Second)); n != 1 {
		t.Errorf("window size %d after aging, want 1", n)
	}
	if snap := tr.Snapshot(t0.Add(5 * time.Minute)); snap != nil {
		t.Errorf("snapshot after full decay: %v", snap)
	}
}

func TestMalformedAddressesStillCount(t *testing.T) {
	tr := New(Config{})
	a := idmef.Alert{
		CreateTime: t0,
		Source:     idmef.Node{Address: "not-an-ip"},
		Target:     idmef.Node{Address: "also-bad"},
		Assessment: idmef.Assess{PeerAS: 9, Stage: idmef.StageEIA},
	}
	tr.Observe(a)
	snap := tr.Snapshot(t0)
	if len(snap) != 1 || snap[0].Alerts != 1 {
		t.Errorf("malformed alert dropped: %v", snap)
	}
}

// TestTracebackFromEngineAlerts wires the tracker to a live engine: a
// spoofed attack entering via peer AS 1 must be traced back to peer AS 1.
func TestTracebackFromEngineAlerts(t *testing.T) {
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	var labeled []analysis.LabeledRecord
	for peer, block := range map[eia.PeerAS]string{1: "61.0.0.0/11", 2: "70.0.0.0/11"} {
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed: int64(peer), Start: t0, Flows: 700,
			SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix(block)},
			DstPrefix:   target,
		})
		if err != nil {
			t.Fatal(err)
		}
		cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
		for _, p := range pkts {
			cache.Observe(p, 1)
		}
		cache.FlushAll()
		for _, r := range cache.Drain() {
			labeled = append(labeled, analysis.LabeledRecord{Peer: peer, Record: r})
		}
	}
	engine, err := analysis.Train(analysis.Config{Mode: analysis.ModeEnhanced}, labeled)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{})
	engine.SetAlertSink(tr.Observe)
	clock := t0.Add(time.Hour)
	engine.SetClock(func() time.Time { return clock })

	pkts, err := trace.Generate(trace.AttackSlammer, trace.AttackConfig{
		Seed: 4, Start: clock,
		Src:       netaddr.MustParseAddr("70.9.9.9"),
		DstPrefix: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	engine.ProcessBatch(1, cache.Drain(), nil) // attack enters via peer AS 1

	eps := tr.EntryPoints(clock)
	if len(eps) != 1 {
		t.Fatalf("entry points %v, want exactly peer 1", eps)
	}
	if eps[0].PeerAS != 1 {
		t.Errorf("traced to peer %d, want 1", eps[0].PeerAS)
	}
	if eps[0].DistinctVictims < 5 {
		t.Errorf("victims %d, slammer sprays many hosts", eps[0].DistinctVictims)
	}
}
