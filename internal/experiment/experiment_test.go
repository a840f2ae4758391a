package experiment

import (
	"testing"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/idmef"
	"infilter/internal/nns"
	"infilter/internal/trace"
)

// tiny returns a fast configuration for tests.
func tiny() Config {
	return Config{
		Seed:                 1,
		NormalFlowsPerSource: 250,
		TrainingFlows:        700,
		AttackPercent:        4,
		AttackSets:           1,
		Runs:                 1,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{AttackPercent: -1},
		{AttackPercent: 99},
		{AttackSets: 11},
		{RouteChangePercent: 9},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v): want error", cfg)
		}
	}
}

func TestBasicInFilterPoint(t *testing.T) {
	cfg := tiny()
	cfg.Mode = analysis.ModeBasic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Runs[0]
	// BI flags every spoofed flow: detection must be complete.
	if res.DetectionRate < 99 {
		t.Errorf("BI detection %.1f%%, want ~100%%", res.DetectionRate)
	}
	// Without route instability there is nothing benign to mis-flag.
	if res.FPRate > 0.5 {
		t.Errorf("BI FP %.2f%% without route change", res.FPRate)
	}
	if rr.AttacksLaunched < trace.NumAttackTypes {
		t.Errorf("launched %d attacks, want the full catalog", rr.AttacksLaunched)
	}
	if rr.BenignFlows < 2000 {
		t.Errorf("only %d benign flows", rr.BenignFlows)
	}
}

func TestEnhancedInFilterPoint(t *testing.T) {
	res, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~80% detection for EI; allow the band 60-100.
	if res.DetectionRate < 60 {
		t.Errorf("EI detection %.1f%%, want ≥60%%", res.DetectionRate)
	}
	if res.FPRate > 2.5 {
		t.Errorf("EI FP %.2f%%, want ≈2%% or less", res.FPRate)
	}
}

func TestRouteChangeShape(t *testing.T) {
	// BI FP must track the route-change rate; EI must stay well below BI
	// (the Figure 19 relationship).
	biFP := map[int]float64{}
	eiFP := map[int]float64{}
	for _, rc := range []int{2, 8} {
		for _, mode := range []analysis.Mode{analysis.ModeBasic, analysis.ModeEnhanced} {
			cfg := tiny()
			cfg.Mode = mode
			cfg.AttackPercent = 8
			cfg.RouteChangePercent = rc
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode == analysis.ModeBasic {
				biFP[rc] = res.FPRate
			} else {
				eiFP[rc] = res.FPRate
			}
		}
	}
	if biFP[8] <= biFP[2] {
		t.Errorf("BI FP not rising with route change: %.2f vs %.2f", biFP[2], biFP[8])
	}
	// BI FP should roughly track the instability percentage.
	if biFP[8] < 4 || biFP[8] > 14 {
		t.Errorf("BI FP at 8%% route change = %.2f%%, want near 8%%", biFP[8])
	}
	for _, rc := range []int{2, 8} {
		if eiFP[rc] >= biFP[rc] {
			t.Errorf("EI FP %.2f%% not below BI %.2f%% at %d%% route change",
				eiFP[rc], biFP[rc], rc)
		}
	}
}

func TestStressTestDegradesDetection(t *testing.T) {
	single := tiny()
	stress := tiny()
	stress.AttackSets = 10
	r1, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Run(stress)
	if err != nil {
		t.Fatal(err)
	}
	if r10.Runs[0].AttacksLaunched <= r1.Runs[0].AttacksLaunched {
		t.Errorf("stress test launched %d attacks vs %d single",
			r10.Runs[0].AttacksLaunched, r1.Runs[0].AttacksLaunched)
	}
	// The paper sees detection drop under high attack load; at minimum the
	// stress test must not improve detection.
	if r10.DetectionRate > r1.DetectionRate+10 {
		t.Errorf("stress detection %.1f%% above single-set %.1f%%",
			r10.DetectionRate, r1.DetectionRate)
	}
}

// TestLatencyOrdering holds §6.4's claim that EI does more work per
// flow than BI on the work itself, not on one wall-clock replay of each
// (scheduler noise decides that under a loaded `go test`; the benchmark
// keeps the timing). On LatencyComparison's seeded point, BI settles
// every suspect at the EIA stage, while EI hands every suspect to scan
// analysis and each one scan clears to an NNS assessment.
func TestLatencyOrdering(t *testing.T) {
	opts := Options{Seed: 3, Runs: 1, NormalFlowsPerSource: 250, TrainingFlows: 700}
	for _, mode := range []analysis.Mode{analysis.ModeBasic, analysis.ModeEnhanced} {
		cfg := latencyConfig(opts, mode).withDefaults()
		set, err := preloadEIA()
		if err != nil {
			t.Fatal(err)
		}
		engine, err := buildEngine(cfg, cfg.Seed, set)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := buildWorkload(cfg, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		decisions, _ := replay(engine, wl.flows)
		var suspects, byScan, byNNS int
		for _, d := range decisions {
			if d.Verdict == eia.Match {
				continue
			}
			suspects++
			switch {
			case mode == analysis.ModeBasic:
				if !d.Attack || d.Stage != idmef.StageEIA || d.Assessment != (nns.Assessment{}) {
					t.Fatalf("BI suspect went past the EIA stage: %+v", d)
				}
			case d.Stage == idmef.StageScan:
				byScan++
			case d.Assessment != (nns.Assessment{}):
				byNNS++
			default:
				t.Fatalf("EI suspect skipped scan analysis or NNS: %+v", d)
			}
		}
		if suspects == 0 {
			t.Fatalf("%v: no suspects, so no stage beyond EIA has work", mode)
		}
		if mode == analysis.ModeEnhanced && (byScan == 0 || byNNS == 0) {
			t.Errorf("EI: %d suspects, %d flagged by scan, %d assessed by NNS; want both stages used",
				suspects, byScan, byNNS)
		}
	}
}

func TestRunDeterministicAccounting(t *testing.T) {
	a, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Runs[0], b.Runs[0]
	if ra.AttacksLaunched != rb.AttacksLaunched || ra.AttacksDetected != rb.AttacksDetected ||
		ra.BenignFlows != rb.BenignFlows || ra.FalsePositives != rb.FalsePositives {
		t.Errorf("identical seeds diverged: %+v vs %+v", ra, rb)
	}
}
