package experiment

import (
	"time"

	"infilter/internal/analysis"
	"infilter/internal/baseline"
	"infilter/internal/blocks"
	"infilter/internal/stats"
)

// BaselineResult is one detector's score on the shared workload.
type BaselineResult struct {
	Name            string
	AttacksLaunched int
	AttacksDetected int
	BenignFlows     int
	FalsePositives  int
}

// DetectionRate is the percentage of launched attacks detected.
func (b BaselineResult) DetectionRate() float64 {
	if b.AttacksLaunched == 0 {
		return 0
	}
	return 100 * float64(b.AttacksDetected) / float64(b.AttacksLaunched)
}

// FalsePositiveRate is the percentage of benign flows flagged.
func (b BaselineResult) FalsePositiveRate() float64 {
	if b.BenignFlows == 0 {
		return 0
	}
	return 100 * float64(b.FalsePositives) / float64(b.BenignFlows)
}

// CompareBaselines runs the same workload through Basic InFilter, Enhanced
// InFilter, strict uRPF, and Peng-style history-based IP filtering — the
// §2 comparison the paper argues qualitatively, quantified. The workload
// includes route instability so uRPF's asymmetry weakness shows.
func CompareBaselines(opts Options) ([]BaselineResult, error) {
	cfg := opts.config()
	cfg.Mode = analysis.ModeEnhanced
	cfg.AttackPercent = 8
	cfg.AttackSets = 1
	cfg.RouteChangePercent = 2
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed

	wl, err := buildWorkload(cfg, seed)
	if err != nil {
		return nil, err
	}

	// Engines for BI and EI.
	setBI, err := preloadEIA()
	if err != nil {
		return nil, err
	}
	biEngine, err := analysis.NewEngine(analysis.Config{Mode: analysis.ModeBasic}, setBI, nil)
	if err != nil {
		return nil, err
	}
	setEI, err := preloadEIA()
	if err != nil {
		return nil, err
	}
	cfgEI := cfg
	cfgEI.Mode = analysis.ModeEnhanced
	eiEngine, err := buildEngine(cfgEI, seed, setEI)
	if err != nil {
		return nil, err
	}

	// uRPF: routes mirror the Table 3 allocations — traffic to a block
	// leaves through its owning peer's interface, so strict uRPF accepts a
	// source only at that same interface.
	urpf := baseline.NewURPF()
	for as := 1; as <= blocks.DefaultSources; as++ {
		alloc, err := blocks.EIAAllocation(as)
		if err != nil {
			return nil, err
		}
		for _, sb := range alloc {
			urpf.AddRoute(sb.Prefix(), uint16(as))
		}
	}

	// HIF: history learned from the workload's first benign second, then
	// overload-gated admission; overload is declared when the per-second
	// flow count exceeds three times the observed benign mean.
	hif := baseline.NewHIF()
	benignPerSecond := trainHIF(hif, wl)

	results := []BaselineResult{
		{Name: "Basic InFilter"},
		{Name: "Enhanced InFilter"},
		{Name: "uRPF (strict)"},
		{Name: "History-based IP filtering"},
	}
	detected := make([]map[int]bool, len(results))
	for i := range detected {
		detected[i] = make(map[int]bool)
	}

	biDecisions, _ := replay(biEngine, wl.flows)
	eiDecisions, _ := replay(eiEngine, wl.flows)
	var (
		curSecond time.Time
		curCount  int
	)
	for i, lf := range wl.flows {
		// Drive the HIF overload clock.
		sec := lf.rec.End.Truncate(time.Second)
		if !sec.Equal(curSecond) {
			hif.SetOverloaded(float64(curCount) > 3*benignPerSecond)
			curSecond, curCount = sec, 0
		}
		curCount++

		verdicts := []bool{
			biDecisions[i].Attack,
			eiDecisions[i].Attack,
			!urpf.Check(lf.rec.Key.Src, uint16(lf.peer)),
			!hif.Admit(lf.rec.Key.Src),
		}
		for k, flagged := range verdicts {
			if lf.attackID == 0 {
				results[k].BenignFlows++
				if flagged {
					results[k].FalsePositives++
				}
			} else if flagged {
				detected[k][lf.attackID] = true
			}
		}
	}
	for i := range results {
		results[i].AttacksLaunched = len(wl.launchedTypes)
		results[i].AttacksDetected = len(detected[i])
	}
	return results, nil
}

// trainHIF seeds the history filter with the benign sources of the
// workload's opening phase and returns the mean benign flows/second.
func trainHIF(hif *baseline.HIF, wl *workload) float64 {
	if len(wl.flows) == 0 {
		return 1
	}
	start := wl.flows[0].rec.End
	var (
		trained int
		last    time.Time
	)
	for _, lf := range wl.flows {
		if lf.rec.End.Sub(start) > 5*time.Second {
			break
		}
		if lf.attackID == 0 {
			hif.Learn(lf.rec.Key.Src)
			trained++
			last = lf.rec.End
		}
	}
	span := last.Sub(start).Seconds()
	if span <= 0 || trained == 0 {
		return 1
	}
	return float64(trained) / span
}

// BaselineTable renders the comparison.
func BaselineTable(results []BaselineResult) stats.Table {
	t := stats.Table{
		Title:   "Detector comparison on one workload (8% attacks, 2% route change)",
		Columns: []string{"detector", "detection rate", "false positive rate"},
	}
	for _, r := range results {
		t.AddRow(r.Name, stats.Pct(r.DetectionRate()), stats.Pct(r.FalsePositiveRate()))
	}
	return t
}
