package analysis

import (
	"math"
	"sync"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/scan"
)

// ttlStageConfig enables the TTL second opinion with scan and promotion
// tuned so only the TTL stage can flag or withhold anything.
func ttlStageConfig() Config {
	return Config{
		Mode: ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 4},
		Scan: scan.Config{NetworkScanThreshold: math.MaxInt32, HostScanThreshold: math.MaxInt32},
		TTL:  scan.TTLConfig{Tolerance: 2},
	}
}

// ttlTrainedEngine trains a serial engine on peer-1 traffic and returns
// it with one known-legal record (EIA Match) to replay.
func ttlTrainedEngine(t *testing.T) (*Engine, flow.Record) {
	t.Helper()
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 250, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	eng, err := Train(ttlStageConfig(), labeled)
	if err != nil {
		t.Fatal(err)
	}
	return eng, labeled[0].Record
}

// benignSuspect returns a suspect-source copy of a training record that
// the trained NNS detector assesses as normal, so the only stage that
// can stop it is the TTL profile.
func benignSuspect(t *testing.T, eng *Engine, legal flow.Record) flow.Record {
	t.Helper()
	rec := legal
	rec.Key.Src = netaddr.MustParseAddr("99.77.4.10")
	if eng.Detector().Assess(rec).Anomalous {
		t.Fatal("suspect copy of a training record assessed anomalous; pick another record")
	}
	return rec
}

// TestTTLSecondOpinionOverridesMatch proves the legal-path wiring: a
// source whose EIA verdict is Match is still flagged when its TTL
// contradicts the learned profile — the on-path spoof EIA cannot see.
func TestTTLSecondOpinionOverridesMatch(t *testing.T) {
	eng, legal := ttlTrainedEngine(t)
	if eng.TTLProfile() == nil {
		t.Fatal("TTL stage enabled but engine profile is nil")
	}

	legal.TTL = 57
	for i := 0; i < 3; i++ { // learn to MinSamples
		if d := decide(eng, 1, legal)[0]; d.Attack || d.Verdict != eia.Match {
			t.Fatalf("learning flow %d: %+v", i, d)
		}
	}
	legal.TTL = 59 // within tolerance 2: folds, no alarm
	if d := decide(eng, 1, legal)[0]; d.Attack {
		t.Fatalf("in-tolerance TTL flagged: %+v", d)
	}
	legal.TTL = 40 // 19 hops off the profile
	d := decide(eng, 1, legal)[0]
	if !d.Attack || d.Stage != idmef.StageTTL {
		t.Fatalf("spoofed-TTL Match not flagged at TTL stage: %+v", d)
	}
	legal.TTL = 0 // no TTL information: never assessed
	if d := decide(eng, 1, legal)[0]; d.Attack {
		t.Fatalf("TTL-less flow flagged: %+v", d)
	}
	if exp, _, ok := eng.TTLProfile().Expected(legal.Key.Src); !ok || exp != 59 {
		t.Errorf("profile for legal /24 = (%d, %v), want (59, true)", exp, ok)
	}
	if got := eng.Stats().ByStage[idmef.StageTTL]; got != 1 {
		t.Errorf("TTL stage count = %d, want 1", got)
	}
}

// TestTTLSecondOpinionBlocksVouch proves the suspect-path wiring: a
// suspect that passes every other stage is denied its EIA vouch when
// the TTL contradicts the profile, so spoofed sources cannot be
// laundered toward promotion — while consistent flows keep vouching.
func TestTTLSecondOpinionBlocksVouch(t *testing.T) {
	eng, legal := ttlTrainedEngine(t)
	rec := benignSuspect(t, eng, legal)

	rec.TTL = 60
	for i := 0; i < 3; i++ { // three clean vouches, learning the profile
		if d := decide(eng, 1, rec)[0]; d.Attack || d.Promoted {
			t.Fatalf("clean suspect %d: %+v", i, d)
		}
	}
	rec.TTL = 30 // would be the promoting fourth vouch — must be denied
	d := decide(eng, 1, rec)[0]
	if !d.Attack || d.Stage != idmef.StageTTL {
		t.Fatalf("spoofed-TTL suspect not flagged at TTL stage: %+v", d)
	}
	if d.Promoted || eng.Stats().Promotions != 0 {
		t.Fatalf("spoofed flow still advanced promotion: %+v, promotions %d", d, eng.Stats().Promotions)
	}
	rec.TTL = 60 // the real source comes back: fourth vouch promotes
	if d := decide(eng, 1, rec)[0]; d.Attack || !d.Promoted {
		t.Fatalf("consistent suspect after spoof burst: %+v", d)
	}
}

// TestTTLProfileSharedAcrossShards proves the table is one engine-wide
// structure: observations of a source arriving through different peers
// (hence different shards) accumulate into one profile, and the fourth,
// deviating observation is flagged whichever shard sees it.
func TestTTLProfileSharedAcrossShards(t *testing.T) {
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 250, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	for _, r := range flowsFromPackets(t, 2, 250, peer2Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 2, Record: r})
	}
	cfg := ttlStageConfig()
	set, detector, err := trainComponents(cfg, labeled)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelEngine(ParallelConfig{Config: cfg, Shards: 4, QueueDepth: 8}, set, detector)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	var mu sync.Mutex
	stages := make(map[idmef.Stage]int)
	pe.SetAlertSink(func(a idmef.Alert) {
		mu.Lock()
		stages[a.Assessment.Stage]++
		mu.Unlock()
	})

	rec := labeled[0].Record
	rec.Key.Src = netaddr.MustParseAddr("99.77.4.10") // suspect for every peer
	rec.TTL = 60
	// Alternate peers (distinct shards), flushing between submissions so
	// the observation order is deterministic.
	for i, peer := range []eia.PeerAS{1, 2, 1} {
		if err := pe.SubmitBatch(peer, []flow.Record{rec}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pe.Flush()
	}
	if got := pe.TTLProfile().Sources(); got != 1 {
		t.Fatalf("profile sources = %d, want 1 shared aggregate", got)
	}
	rec.TTL = 30
	if err := pe.SubmitBatch(2, []flow.Record{rec}); err != nil {
		t.Fatal(err)
	}
	pe.Flush()
	if stages[idmef.StageTTL] != 1 {
		t.Fatalf("cross-shard spoof not flagged at TTL stage: alerts %v", stages)
	}
}
