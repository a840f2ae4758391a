package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"infilter/internal/analysis"
	"infilter/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.json from the current code")

// The goldens pin the integer outcome behind every cell of Figures 15-18
// (Figure 19 and the per-attack breakdown read the same cells), the
// baselines table and the deployment campaign, so a change to the verdict
// path that moves any figure fails here. Latency is left out: it is a
// measurement, not an outcome. Regenerate with `go test
// ./internal/experiment -run Golden -update` only when a change is meant
// to move verdicts.

// once memoizes one sweep, so a shape test and the golden test of the
// same outcome share a single run and the package pays for it once.
type once[T any] struct {
	sync.Once
	v   T
	err error
}

func (o *once[T]) get(t *testing.T, run func() (T, error)) T {
	t.Helper()
	o.Do(func() { o.v, o.err = run() })
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.v
}

var (
	baselines once[[]BaselineResult]
	campaign  once[*CampaignResult]
)

func baselineResults(t *testing.T) []BaselineResult {
	return baselines.get(t, func() ([]BaselineResult, error) {
		return CompareBaselines(Options{Seed: 4, Runs: 1, NormalFlowsPerSource: 250, TrainingFlows: 700})
	})
}

func campaignResult(t *testing.T) *CampaignResult {
	return campaign.get(t, func() (*CampaignResult, error) { return RunCampaign(campaignConfig()) })
}

// goldenRun is one run's integer outcome.
type goldenRun struct {
	Launched, Detected         int
	Benign, FalsePositives     int
	AttackFlows, AttackFlagged int
	Promotions                 int
	ByType                     map[string]TypeStats
}

func goldenRuns(res Result) []goldenRun {
	out := make([]goldenRun, len(res.Runs))
	for i, rr := range res.Runs {
		g := goldenRun{
			Launched: rr.AttacksLaunched, Detected: rr.AttacksDetected,
			Benign: rr.BenignFlows, FalsePositives: rr.FalsePositives,
			AttackFlows: rr.AttackFlows, AttackFlagged: rr.AttackFlagged,
			Promotions: rr.Promotions,
			ByType:     make(map[string]TypeStats),
		}
		for at, ts := range rr.ByType {
			g.ByType[at.String()] = ts
		}
		out[i] = g
	}
	return out
}

// goldenPoint is one campaign point's integer outcome.
type goldenPoint struct {
	DeployedPeers          int
	Launched, Detected     int
	Benign, FalsePositives int
	TTLStageAlerts         int
	ByKind                 map[CampaignEventKind]TypeStats
}

func goldenPointOf(pt CampaignPoint) goldenPoint {
	return goldenPoint{
		DeployedPeers: pt.DeployedPeers,
		Launched:      pt.Launched, Detected: pt.Detected,
		Benign: pt.BenignFlows, FalsePositives: pt.FalsePositives,
		TTLStageAlerts: pt.TTLStageAlerts,
		ByKind:         pt.ByKind,
	}
}

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", name), append(got, '\n'), *update)
}

// TestSpoofedSweepGolden pins Figures 15 and 16: every volume × attack-set
// cell of the §6.3.1/§6.3.2 sweep, with the per-attack-type counts the
// breakdown table renders.
func TestSpoofedSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	sw, err := RunSpoofedSweep(Options{Seed: 5, Runs: 1, NormalFlowsPerSource: 200, TrainingFlows: 600})
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string][]goldenRun)
	for i, vol := range sw.Volumes {
		cells[fmt.Sprintf("vol=%d/sets=1", vol)] = goldenRuns(sw.Single[i])
		cells[fmt.Sprintf("vol=%d/sets=10", vol)] = goldenRuns(sw.Ten[i])
	}
	checkGolden(t, "spoofed_sweep.json", cells)
}

// TestRouteChangeSweepGolden pins Figures 17 (BI) and 18 (EI), whose
// 8%-volume columns are Figure 19.
func TestRouteChangeSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	opts := Options{Seed: 6, Runs: 1, NormalFlowsPerSource: 150, TrainingFlows: 600}
	cells := make(map[string][]goldenRun)
	for _, mode := range []analysis.Mode{analysis.ModeBasic, analysis.ModeEnhanced} {
		sw, err := RunRouteChangeSweep(opts, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, vol := range sw.Volumes {
			for j, rate := range sw.Rates {
				cells[fmt.Sprintf("%v/vol=%d/rc=%d", sw.Mode, vol, rate)] = goldenRuns(sw.Grid[i][j])
			}
		}
	}
	checkGolden(t, "route_change_sweep.json", cells)
}

// TestBaselinesGolden pins the detector comparison table.
func TestBaselinesGolden(t *testing.T) {
	checkGolden(t, "baselines.json", baselineResults(t))
}

// TestCampaignGolden pins every deployment point of the campaign and its
// benign-only control.
func TestCampaignGolden(t *testing.T) {
	res := campaignResult(t)
	points := map[string]goldenPoint{"benign-only": goldenPointOf(res.BenignOnly)}
	for _, pt := range res.Points {
		points[fmt.Sprintf("rate=%v", pt.DeploymentRate)] = goldenPointOf(pt)
	}
	checkGolden(t, "campaign.json", points)
}
