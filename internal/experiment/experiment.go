// Package experiment implements the paper's testbed evaluation (§6): the
// emulated 10-peer-AS ISP (Figures 13/14), Table 3 EIA preloading, Dagflow
// replay of normal and attack traffic with controlled spoofing and route
// instability, and the experiment series behind Figures 15-19.
package experiment

import (
	"fmt"
	"sort"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/blocks"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/stats"
	"infilter/internal/trace"
)

// TargetNetwork is the victim ISP's address range the attacks aim at.
var TargetNetwork = netaddr.MustParsePrefix("192.0.2.0/24")

// Config parameterizes one experiment (a point in the paper's sweeps).
type Config struct {
	// Seed fixes everything; runs within the experiment derive their own
	// seeds from it.
	Seed int64
	// Mode selects BI or EI (§6.3's software configurations).
	Mode analysis.Mode
	// NormalFlowsPerSource is how many benign flows each of the 10 Dagflow
	// sources replays. Zero defaults to 600.
	NormalFlowsPerSource int
	// TrainingFlows sizes the normal training cluster. Zero defaults
	// to 1200.
	TrainingFlows int
	// AttackPercent is attack traffic volume as a percentage of the
	// normal packet volume at each attacked border router (2, 4 or 8).
	AttackPercent int
	// AttackSets is how many peer ASes receive an attack set: 1 for
	// §6.3.1, 10 for the §6.3.2 stress test.
	AttackSets int
	// RouteChangePercent emulates route instability per §6.3.3 (0, 1, 2,
	// 4 or 8): that percentage of each source's sub-blocks is replaced by
	// foreign sub-blocks, rotating through four allocations.
	RouteChangePercent int
	// Runs is the number of averaged repetitions. Zero defaults to 5.
	Runs int
}

// Defaults for Config.
const (
	DefaultNormalFlows   = 600
	DefaultTrainingFlows = 1200
	DefaultRuns          = 5
)

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = analysis.ModeEnhanced
	}
	if c.NormalFlowsPerSource <= 0 {
		c.NormalFlowsPerSource = DefaultNormalFlows
	}
	if c.TrainingFlows <= 0 {
		c.TrainingFlows = DefaultTrainingFlows
	}
	if c.AttackSets <= 0 {
		c.AttackSets = 1
	}
	if c.Runs <= 0 {
		c.Runs = DefaultRuns
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.AttackPercent < 0 || c.AttackPercent > 50:
		return fmt.Errorf("experiment: attack percent %d out of range", c.AttackPercent)
	case c.AttackSets > blocks.DefaultSources:
		return fmt.Errorf("experiment: %d attack sets exceed %d peers", c.AttackSets, blocks.DefaultSources)
	case c.RouteChangePercent < 0 || c.RouteChangePercent > 8:
		return fmt.Errorf("experiment: route change percent %d out of range", c.RouteChangePercent)
	default:
		return nil
	}
}

// TypeStats counts launches and detections of one attack type.
type TypeStats struct {
	Launched int
	Detected int
}

// RunResult is one repetition's outcome.
type RunResult struct {
	AttacksLaunched int
	AttacksDetected int
	BenignFlows     int
	FalsePositives  int
	AttackFlows     int
	AttackFlagged   int
	AvgLatency      time.Duration // the replay's wall time ÷ its flow count
	Promotions      int
	// ByType breaks detection down per attack type.
	ByType map[trace.AttackType]TypeStats
}

// DetectionRate is the percentage of launched attacks detected.
func (r RunResult) DetectionRate() float64 {
	if r.AttacksLaunched == 0 {
		return 0
	}
	return 100 * float64(r.AttacksDetected) / float64(r.AttacksLaunched)
}

// FalsePositiveRate is the percentage of benign flows flagged.
func (r RunResult) FalsePositiveRate() float64 {
	if r.BenignFlows == 0 {
		return 0
	}
	return 100 * float64(r.FalsePositives) / float64(r.BenignFlows)
}

// Result aggregates the repetitions of one experiment point.
type Result struct {
	Config        Config
	Runs          []RunResult
	DetectionRate float64 // mean over runs
	FPRate        float64 // mean over runs
	AvgLatency    time.Duration
}

// Run executes the experiment: Runs repetitions, averaged.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg}
	var det, fp []float64
	var lat time.Duration
	for run := 0; run < cfg.Runs; run++ {
		rr, err := runOnce(cfg, cfg.Seed+int64(run)*7919)
		if err != nil {
			return Result{}, fmt.Errorf("experiment: run %d: %w", run, err)
		}
		res.Runs = append(res.Runs, rr)
		det = append(det, rr.DetectionRate())
		fp = append(fp, rr.FalsePositiveRate())
		lat += rr.AvgLatency
	}
	res.DetectionRate = stats.Mean(det)
	res.FPRate = stats.Mean(fp)
	res.AvgLatency = lat / time.Duration(len(res.Runs))
	return res, nil
}

// labeledFlow is one replayed flow with its ground truth.
type labeledFlow struct {
	peer     eia.PeerAS
	rec      flow.Record
	attackID int // 0 = benign
}

var experimentEpoch = time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)

// preloadEIA builds the Table 3 EIA configuration.
func preloadEIA() (*eia.Set, error) {
	set := eia.NewSet(eia.Config{})
	for as := 1; as <= blocks.DefaultSources; as++ {
		alloc, err := blocks.EIAAllocation(as)
		if err != nil {
			return nil, err
		}
		for _, sb := range alloc {
			set.AddPrefix(eia.PeerAS(as), sb.Prefix())
		}
	}
	return set, nil
}

// workload is one run's labeled traffic, sorted in flow-expiry order.
type workload struct {
	flows         []labeledFlow
	launchedTypes map[int]trace.AttackType
}

// buildWorkload replays the 10 normal sources (with route instability if
// asked) and the attack sets, labeled and time-ordered.
func buildWorkload(cfg Config, seed int64) (*workload, error) {
	var all []labeledFlow
	normalPackets := make([]int, blocks.DefaultSources+1)
	for src := 1; src <= blocks.DefaultSources; src++ {
		flows, pkts, err := normalSourceFlows(cfg, seed, src)
		if err != nil {
			return nil, err
		}
		normalPackets[src] = pkts
		all = append(all, flows...)
	}
	attackID := 0
	launchedTypes := make(map[int]trace.AttackType)
	for s := 1; s <= cfg.AttackSets; s++ {
		flows, launched, err := attackSetFlows(cfg, seed, s, normalPackets[s], &attackID)
		if err != nil {
			return nil, err
		}
		for id, at := range launched {
			launchedTypes[id] = at
		}
		all = append(all, flows...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].rec.End.Before(all[j].rec.End) })
	return &workload{flows: all, launchedTypes: launchedTypes}, nil
}

func runOnce(cfg Config, seed int64) (RunResult, error) {
	set, err := preloadEIA()
	if err != nil {
		return RunResult{}, err
	}
	engine, err := buildEngine(cfg, seed, set)
	if err != nil {
		return RunResult{}, err
	}
	wl, err := buildWorkload(cfg, seed)
	if err != nil {
		return RunResult{}, err
	}
	all, launchedTypes := wl.flows, wl.launchedTypes

	var rr RunResult
	rr.AttacksLaunched = len(launchedTypes)
	detected := make(map[int]bool)
	decisions, elapsed := replay(engine, all)
	for i, lf := range all {
		d := decisions[i]
		if lf.attackID == 0 {
			rr.BenignFlows++
			if d.Attack {
				rr.FalsePositives++
			}
			continue
		}
		rr.AttackFlows++
		if d.Attack {
			rr.AttackFlagged++
			detected[lf.attackID] = true
		}
	}
	rr.AttacksDetected = len(detected)
	if n := len(all); n > 0 {
		rr.AvgLatency = elapsed / time.Duration(n)
	}
	rr.Promotions = engine.Stats().Promotions
	rr.ByType = make(map[trace.AttackType]TypeStats)
	for id, at := range launchedTypes {
		ts := rr.ByType[at]
		ts.Launched++
		if detected[id] {
			ts.Detected++
		}
		rr.ByType[at] = ts
	}
	return rr, nil
}

// replay runs flows through engine in order, handing each maximal run of
// same-peer flows to ProcessBatch — the batch loop infilterd runs — and
// returns every flow's Decision (indexed like flows) and the wall time
// the replay took.
func replay(engine *analysis.Engine, flows []labeledFlow) ([]analysis.Decision, time.Duration) {
	out := make([]analysis.Decision, len(flows))
	recs := make([]flow.Record, 0, len(flows)) // no allocation while timed
	start := time.Now()
	for i := 0; i < len(flows); i += len(recs) {
		recs = recs[:0]
		for _, lf := range flows[i:] {
			if lf.peer != flows[i].peer {
				break
			}
			recs = append(recs, lf.rec)
		}
		engine.ProcessBatch(flows[i].peer, recs, out[i:])
	}
	return out, time.Since(start)
}

// buildEngine trains the analysis engine for this run.
func buildEngine(cfg Config, seed int64, set *eia.Set) (*analysis.Engine, error) {
	if cfg.Mode == analysis.ModeBasic {
		return analysis.NewEngine(analysis.Config{Mode: analysis.ModeBasic}, set, nil)
	}
	// Training traffic comes from across the full experiment address space.
	var prefixes []netaddr.Prefix
	for i := 0; i < blocks.NumUsedSubBlocks; i += 25 {
		prefixes = append(prefixes, blocks.MustSubBlockAt(i).Prefix())
	}
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed ^ 0x7ea1,
		Start:       experimentEpoch.Add(-time.Hour),
		Flows:       cfg.TrainingFlows,
		SrcPrefixes: prefixes,
		DstPrefix:   TargetNetwork,
	})
	if err != nil {
		return nil, err
	}
	training := netflow.Aggregate(pkts, 0)
	detector, err := trainDetector(cfg, seed, training)
	if err != nil {
		return nil, err
	}
	return analysis.NewEngine(analysis.Config{Mode: analysis.ModeEnhanced}, set, detector)
}
