package experiment

import (
	"fmt"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/stats"
	"infilter/internal/trace"
)

// Options scale the figure sweeps: the CLI uses full scale, tests and
// benchmarks shrink the traffic so the sweeps stay fast.
type Options struct {
	Seed                 int64
	Runs                 int
	NormalFlowsPerSource int
	TrainingFlows        int
}

func (o Options) config() Config {
	return Config{
		Seed:                 o.Seed,
		Runs:                 o.Runs,
		NormalFlowsPerSource: o.NormalFlowsPerSource,
		TrainingFlows:        o.TrainingFlows,
	}
}

// AttackVolumes is the paper's attack-volume sweep (% of normal traffic).
var AttackVolumes = []int{2, 4, 8}

// RouteChangeRates is the paper's route-instability sweep (§6.3.3).
var RouteChangeRates = []int{1, 2, 4, 8}

// SpoofedSweep holds the §6.3.1/§6.3.2 grid behind Figures 15 and 16:
// Enhanced InFilter detection and false positives at three attack volumes,
// for a single attack set and for attack sets at all ten peers.
type SpoofedSweep struct {
	Volumes []int
	Single  []Result // AttackSets=1, indexed like Volumes
	Ten     []Result // AttackSets=10
}

// RunSpoofedSweep executes the grid.
func RunSpoofedSweep(opts Options) (*SpoofedSweep, error) {
	sw := &SpoofedSweep{Volumes: AttackVolumes}
	for _, vol := range AttackVolumes {
		for _, sets := range []int{1, 10} {
			cfg := opts.config()
			cfg.Mode = analysis.ModeEnhanced
			cfg.AttackPercent = vol
			cfg.AttackSets = sets
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("spoofed sweep vol=%d sets=%d: %w", vol, sets, err)
			}
			if sets == 1 {
				sw.Single = append(sw.Single, res)
			} else {
				sw.Ten = append(sw.Ten, res)
			}
		}
	}
	return sw, nil
}

// Figure15 renders the attack-detection-rate figure.
func (sw *SpoofedSweep) Figure15() stats.Table {
	t := stats.Table{
		Title:   "Figure 15: Attack detection rate (Enhanced InFilter)",
		Columns: []string{"attack volume", "single attack set", "10 attack sets"},
	}
	for i, vol := range sw.Volumes {
		t.AddRow(fmt.Sprintf("%d%%", vol),
			stats.Pct(sw.Single[i].DetectionRate),
			stats.Pct(sw.Ten[i].DetectionRate))
	}
	return t
}

// Figure16 renders the false-positive-rate figure.
func (sw *SpoofedSweep) Figure16() stats.Table {
	t := stats.Table{
		Title:   "Figure 16: False positive rate (Enhanced InFilter)",
		Columns: []string{"attack volume", "single attack set", "10 attack sets"},
	}
	for i, vol := range sw.Volumes {
		t.AddRow(fmt.Sprintf("%d%%", vol),
			stats.Pct(sw.Single[i].FPRate),
			stats.Pct(sw.Ten[i].FPRate))
	}
	return t
}

// RouteChangeSweep holds the §6.3.3 grid behind Figures 17-19: false
// positive rate at attack volume × route instability, for one mode.
type RouteChangeSweep struct {
	Mode    analysis.Mode
	Volumes []int
	Rates   []int
	// Grid[i][j] is the result at Volumes[i] × Rates[j].
	Grid [][]Result
}

// RunRouteChangeSweep executes the grid for one software configuration.
func RunRouteChangeSweep(opts Options, mode analysis.Mode) (*RouteChangeSweep, error) {
	sw := &RouteChangeSweep{Mode: mode, Volumes: AttackVolumes, Rates: RouteChangeRates}
	for _, vol := range AttackVolumes {
		var row []Result
		for _, rate := range RouteChangeRates {
			cfg := opts.config()
			cfg.Mode = mode
			cfg.AttackPercent = vol
			cfg.AttackSets = 1
			cfg.RouteChangePercent = rate
			res, err := Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("route sweep %v vol=%d rc=%d: %w", mode, vol, rate, err)
			}
			row = append(row, res)
		}
		sw.Grid = append(sw.Grid, row)
	}
	return sw, nil
}

// Figure renders the sweep as the paper's Figure 17 (BI) or 18 (EI).
func (sw *RouteChangeSweep) Figure() stats.Table {
	num := 17
	if sw.Mode == analysis.ModeEnhanced {
		num = 18
	}
	t := stats.Table{
		Title: fmt.Sprintf("Figure %d: False positive rate with route change — %s",
			num, longModeName(sw.Mode)),
		Columns: []string{"route change"},
	}
	for _, vol := range sw.Volumes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d%% attacks", vol))
	}
	for j, rate := range sw.Rates {
		row := []string{fmt.Sprintf("%d%%", rate)}
		for i := range sw.Volumes {
			row = append(row, stats.Pct(sw.Grid[i][j].FPRate))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure19 contrasts BI and EI false positives at 8% attack volume.
func Figure19(bi, ei *RouteChangeSweep) stats.Table {
	t := stats.Table{
		Title:   "Figure 19: False positive rate at 8% attack volume — Basic vs Enhanced",
		Columns: []string{"route change", "Basic InFilter", "Enhanced InFilter"},
	}
	volIdx := len(AttackVolumes) - 1 // the 8% column
	for j, rate := range RouteChangeRates {
		t.AddRow(fmt.Sprintf("%d%%", rate),
			stats.Pct(bi.Grid[volIdx][j].FPRate),
			stats.Pct(ei.Grid[volIdx][j].FPRate))
	}
	return t
}

// LatencyComparison runs a single point in both modes and reports the mean
// per-flow processing latency (the §6.4 BI≈0.5ms vs EI≈2-6ms comparison;
// absolute numbers reflect this substrate, the ordering is what carries).
func LatencyComparison(opts Options) (biLat, eiLat time.Duration, err error) {
	for _, mode := range []analysis.Mode{analysis.ModeBasic, analysis.ModeEnhanced} {
		res, runErr := Run(latencyConfig(opts, mode))
		if runErr != nil {
			return 0, 0, runErr
		}
		if mode == analysis.ModeBasic {
			biLat = res.AvgLatency
		} else {
			eiLat = res.AvgLatency
		}
	}
	return biLat, eiLat, nil
}

// latencyConfig is the point LatencyComparison times in each mode.
func latencyConfig(opts Options, mode analysis.Mode) Config {
	cfg := opts.config()
	cfg.Mode = mode
	cfg.AttackPercent = 4
	cfg.AttackSets = 1
	cfg.RouteChangePercent = 2 // suspects must exist for EI to do work
	return cfg
}

// AttackBreakdown runs one EI point and renders the per-attack-type
// detection table (§6.3's "various kinds of attacks, stealthy and
// voluminous"), aggregated over the runs.
func AttackBreakdown(opts Options) (stats.Table, error) {
	cfg := opts.config()
	cfg.Mode = analysis.ModeEnhanced
	cfg.AttackPercent = 8
	cfg.AttackSets = 1
	res, err := Run(cfg)
	if err != nil {
		return stats.Table{}, err
	}
	agg := make(map[trace.AttackType]TypeStats)
	for _, rr := range res.Runs {
		for at, ts := range rr.ByType {
			cur := agg[at]
			cur.Launched += ts.Launched
			cur.Detected += ts.Detected
			agg[at] = cur
		}
	}
	t := stats.Table{
		Title:   "Per-attack detection (Enhanced InFilter, 8% attack volume)",
		Columns: []string{"attack", "kind", "launched", "detected", "rate"},
	}
	for _, info := range trace.AllAttacks() {
		ts := agg[info.Type]
		kind := "stealthy"
		if !info.Stealthy {
			kind = "voluminous"
		}
		if info.Scan {
			kind += "+scan"
		}
		rate := 0.0
		if ts.Launched > 0 {
			rate = 100 * float64(ts.Detected) / float64(ts.Launched)
		}
		t.AddRow(info.Name, kind,
			fmt.Sprintf("%d", ts.Launched),
			fmt.Sprintf("%d", ts.Detected),
			stats.Pct(rate))
	}
	return t, nil
}

func longModeName(m analysis.Mode) string {
	switch m {
	case analysis.ModeBasic:
		return "Basic InFilter"
	case analysis.ModeEnhanced:
		return "Enhanced InFilter"
	default:
		return m.String()
	}
}
