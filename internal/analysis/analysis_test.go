package analysis

import (
	"testing"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/trace"
)

var (
	start     = time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	peer1Pfx  = netaddr.MustParsePrefix("61.0.0.0/11")
	peer2Pfx  = netaddr.MustParsePrefix("70.0.0.0/11")
	targetPfx = netaddr.MustParsePrefix("192.0.2.0/24")
)

func flowsFromPackets(t *testing.T, seed int64, flows int, src netaddr.Prefix) []flow.Record {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       start,
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{src},
		DstPrefix:   targetPfx,
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

func attackFlowRecords(t *testing.T, at trace.AttackType, seed int64, src string) []flow.Record {
	t.Helper()
	pkts, err := trace.Generate(at, trace.AttackConfig{
		Seed:      seed,
		Start:     start.Add(time.Hour),
		Src:       netaddr.MustParseAddr(src),
		DstPrefix: targetPfx,
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

// decide runs recs through eng's batch loop as one batch and returns
// their decisions.
func decide(eng *Engine, peer eia.PeerAS, recs ...flow.Record) []Decision {
	out := make([]Decision, len(recs))
	eng.ProcessBatch(peer, recs, out)
	return out
}

// trainedEngine trains an EI engine on two peers' normal traffic.
func trainedEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 900, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	for _, r := range flowsFromPackets(t, 2, 900, peer2Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 2, Record: r})
	}
	eng, err := Train(Config{Mode: mode}, labeled)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(Config{}, nil); err == nil {
		t.Error("empty training: want error")
	}
	if _, err := NewEngine(Config{}, nil, nil); err == nil {
		t.Error("nil EIA set: want error")
	}
	set := eia.NewSet(eia.Config{})
	if _, err := NewEngine(Config{Mode: ModeEnhanced}, set, nil); err == nil {
		t.Error("EI without detector: want error")
	}
	if _, err := NewEngine(Config{Mode: ModeBasic}, set, nil); err != nil {
		t.Errorf("BI without detector should work: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeBasic.String() != "BI" || ModeEnhanced.String() != "EI" {
		t.Error("mode names")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode name")
	}
}

func TestLegalFlowPasses(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	legit := flowsFromPackets(t, 3, 50, peer1Pfx)
	attacks := 0
	for _, d := range decide(eng, 1, legit...) {
		if d.Verdict != eia.Match && d.Attack {
			attacks++
		}
		if d.Verdict == eia.Match && d.Attack {
			t.Fatal("EIA-matching flow flagged as attack")
		}
	}
	// Holdout traffic from trained subnets mostly matches EIA and passes.
	if attacks > len(legit)/10 {
		t.Errorf("%d/%d legal flows flagged", attacks, len(legit))
	}
}

func TestBasicModeFlagsAllSuspects(t *testing.T) {
	eng := trainedEngine(t, ModeBasic)
	// Spoofed flow: peer 2 source arriving at peer 1.
	recs := attackFlowRecords(t, trace.AttackTeardrop, 4, "70.9.9.9")
	for _, d := range decide(eng, 1, recs...) {
		if !d.Attack || d.Stage != idmef.StageEIA {
			t.Errorf("BI decision %+v, want EIA-stage attack", d)
		}
	}
	st := eng.Stats()
	if st.Attacks != len(recs) || st.Suspects != len(recs) {
		t.Errorf("stats %+v", st)
	}
}

func TestEnhancedDetectsScanAttack(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	recs := attackFlowRecords(t, trace.AttackSlammer, 5, "70.9.9.9")
	detected := 0
	for _, d := range decide(eng, 1, recs...) {
		if d.Attack {
			detected++
			if d.Stage != idmef.StageScan && d.Stage != idmef.StageNNS {
				t.Errorf("stage %v", d.Stage)
			}
		}
	}
	if detected < len(recs)/2 {
		t.Errorf("slammer: %d/%d flows detected", detected, len(recs))
	}
	if eng.Stats().ByStage[idmef.StageScan] == 0 {
		t.Error("scan analysis never fired on slammer")
	}
}

func TestEnhancedDetectsExploit(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	recs := attackFlowRecords(t, trace.AttackFTPExploit, 6, "70.9.9.9")
	detected := 0
	for _, d := range decide(eng, 1, recs...) {
		if d.Attack {
			detected++
		}
	}
	if detected == 0 {
		t.Error("ftp exploit undetected by EI")
	}
}

func TestEnhancedSuppressesRouteChangeFalsePositives(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	// Route change: benign traffic from peer 2's subnets now arrives at
	// peer 1. EI should vet most of it as normal via NNS.
	moved := flowsFromPackets(t, 7, 200, peer2Pfx)
	fp := 0
	for _, d := range decide(eng, 1, moved...) {
		if d.Attack {
			fp++
		}
	}
	rate := float64(fp) / float64(len(moved))
	if rate > 0.15 {
		t.Errorf("EI flagged %.1f%% of route-changed benign flows", 100*rate)
	}
}

func TestPromotionAdaptsEIA(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	// Keep sending benign flows from one moved /24 via peer 1.
	moved := flowsFromPackets(t, 8, 300, netaddr.MustParsePrefix("70.4.4.0/24"))
	promoted := false
	for _, d := range decide(eng, 1, moved...) {
		promoted = promoted || d.Promoted
	}
	if !promoted {
		t.Fatal("no promotion after many vouched flows")
	}
	if eng.Stats().Promotions == 0 {
		t.Error("promotion counter zero")
	}
	// After promotion the subnet matches at peer 1.
	if got := eng.EIASet().Check(1, netaddr.MustParseAddr("70.4.4.77")); got != eia.Match {
		t.Errorf("post-promotion Check = %v", got)
	}
}

func TestAlertSinkReceivesIDMEF(t *testing.T) {
	eng := trainedEngine(t, ModeEnhanced)
	var alerts []idmef.Alert
	eng.SetAlertSink(func(a idmef.Alert) { alerts = append(alerts, a) })
	eng.SetClock(func() time.Time { return start.Add(2 * time.Hour) })

	eng.ProcessBatch(1, attackFlowRecords(t, trace.AttackSlammer, 9, "70.9.9.9"), nil)
	if len(alerts) == 0 {
		t.Fatal("no alerts emitted")
	}
	a := alerts[0]
	if a.Assessment.PeerAS != 1 {
		t.Errorf("alert peer %d", a.Assessment.PeerAS)
	}
	if a.MessageID == "" || a.Classification.Text == "" {
		t.Errorf("alert fields empty: %+v", a)
	}
	if !a.CreateTime.Equal(start.Add(2 * time.Hour)) {
		t.Errorf("alert time %v", a.CreateTime)
	}
	ids := map[string]bool{}
	for _, al := range alerts {
		if ids[al.MessageID] {
			t.Fatalf("duplicate alert id %s", al.MessageID)
		}
		ids[al.MessageID] = true
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	eng := trainedEngine(t, ModeBasic)
	eng.ProcessBatch(1, attackFlowRecords(t, trace.AttackPuke, 10, "70.9.9.9"), nil)
	st := eng.Stats()
	st.ByStage[idmef.StageEIA] = 999
	if eng.Stats().ByStage[idmef.StageEIA] == 999 {
		t.Error("Stats map aliases engine state")
	}
}
