package experiment

import (
	"os"
	"testing"
)

// campaignConfig is the deterministic tier-1 campaign: small enough to
// run in the default test budget, large enough that every peer's TTL
// profiles densify before the late TTL-spoof events launch.
func campaignConfig() CampaignConfig {
	return CampaignConfig{
		Seed:                 7,
		DeploymentRates:      []float64{0.5, 1.0},
		NormalFlowsPerSource: 150,
		TrainingFlows:        600,
	}
}

// TestCampaignDeploymentSweep is the acceptance gate of the scenario
// suite: at full SAV deployment at least 95% of injected events are
// detected (with the TTL-spoof class — invisible to EIA — fully caught
// by the second opinion), a half deployment catches strictly fewer, and
// the benign-only control at full deployment raises zero false
// positives. When CAMPAIGN_OUT is set the figure JSON is also written,
// which is how CI archives the sweep as an artifact.
func TestCampaignDeploymentSweep(t *testing.T) {
	res := campaignResult(t)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	half, full := res.Points[0], res.Points[1]

	wantLaunched := 4 * 10 // four event kinds at each of ten peers
	if full.Launched != wantLaunched {
		t.Fatalf("full deployment launched %d events, want %d", full.Launched, wantLaunched)
	}
	if full.DetectionRate < 95 {
		t.Errorf("full-deployment detection = %.1f%% (%d/%d), want >= 95%%; by kind: %v",
			full.DetectionRate, full.Detected, full.Launched, full.ByKind)
	}
	ttl := full.ByKind[EventTTLSpoof]
	if ttl.Launched != 10 || ttl.Detected != ttl.Launched {
		t.Errorf("ttl-spoof events detected %d/%d, want all %d caught",
			ttl.Detected, ttl.Launched, 10)
	}
	if full.TTLStageAlerts == 0 {
		t.Error("no flow was flagged at the ttl-profile stage; second opinion inert")
	}

	if half.Launched != wantLaunched {
		t.Fatalf("half deployment launched %d events, want %d (launches are deployment-independent)",
			half.Launched, wantLaunched)
	}
	if half.Detected >= full.Detected {
		t.Errorf("half deployment detected %d, full %d; partial deployment must catch strictly fewer",
			half.Detected, full.Detected)
	}
	if half.DeployedPeers != 5 || full.DeployedPeers != 10 {
		t.Errorf("deployed peers = %d/%d, want 5/10", half.DeployedPeers, full.DeployedPeers)
	}

	ctl := res.BenignOnly
	if ctl.BenignFlows < 1000 {
		t.Fatalf("benign-only control processed %d flows; too small to gate on", ctl.BenignFlows)
	}
	if ctl.FalsePositives != 0 {
		t.Errorf("benign-only control raised %d false positives over %d flows, want 0",
			ctl.FalsePositives, ctl.BenignFlows)
	}
	if ctl.Launched != 0 {
		t.Errorf("benign-only control launched %d events, want 0", ctl.Launched)
	}

	if out := os.Getenv("CAMPAIGN_OUT"); out != "" {
		f, err := os.Create(out)
		if err != nil {
			t.Fatalf("CAMPAIGN_OUT: %v", err)
		}
		defer f.Close()
		if err := WriteCampaignFigures(f, res); err != nil {
			t.Fatalf("writing campaign figures: %v", err)
		}
		t.Logf("campaign figures written to %s", out)
	}
}

// TestCampaignDeterministic pins that the suite is seed-reproducible:
// two runs with the same config agree event for event.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat run skipped in -short")
	}
	cfg := campaignConfig()
	cfg.DeploymentRates = []float64{1.0}
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Points[0], b.Points[0]
	if pa.Detected != pb.Detected || pa.FalsePositives != pb.FalsePositives ||
		pa.BenignFlows != pb.BenignFlows || pa.TTLStageAlerts != pb.TTLStageAlerts {
		t.Errorf("campaign not deterministic:\n  run A %+v\n  run B %+v", pa, pb)
	}
}

// TestCampaignRejectsBadRate pins config validation.
func TestCampaignRejectsBadRate(t *testing.T) {
	_, err := RunCampaign(CampaignConfig{DeploymentRates: []float64{1.5}})
	if err == nil {
		t.Fatal("deployment rate 1.5 accepted")
	}
}
