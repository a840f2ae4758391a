package experiment

// Campaign: an SMap-style scenario suite sweeping SAV deployment rate.
// Where the figure experiments of experiment.go measure detection against
// the paper's attack catalog at one fully-instrumented ISP, the campaign
// asks the deployment question the SMap line of work poses: as the
// fraction of peer ingresses running InFilter grows, what share of
// spoofing events launched across the whole topology gets caught, and
// does a deployment that monitors everything stay silent on benign-only
// traffic? Four event kinds are injected per peer — a spoofed SYN flood,
// a Slammer-style network scan, an Idlescan host scan, and a
// TTL-inconsistent spoof whose sources are *inside* the ingress peer's
// own prefixes (an EIA Match only the TTL-profile second opinion can
// contradict). Every flow reaches the engine the long way: packet trace →
// Dagflow source rewriting → router flow cache → IPFIX export → decode,
// so the TTL information elements ride the real wire format (v5 would
// drop them).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/blocks"
	"infilter/internal/dagflow"
	"infilter/internal/eia"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/scan"
	"infilter/internal/topo"
	"infilter/internal/trace"
)

// CampaignEventKind names one injected event class.
type CampaignEventKind string

// The campaign's event classes.
const (
	EventSpoofedFlood CampaignEventKind = "spoofed-flood"
	EventNetworkScan  CampaignEventKind = "network-scan"
	EventHostScan     CampaignEventKind = "host-scan"
	EventTTLSpoof     CampaignEventKind = "ttl-spoof"
)

// CampaignEventKinds lists the classes in launch order.
var CampaignEventKinds = []CampaignEventKind{
	EventSpoofedFlood, EventNetworkScan, EventHostScan, EventTTLSpoof,
}

// CampaignConfig parameterizes a deployment-sweep campaign.
type CampaignConfig struct {
	// Seed fixes the whole campaign.
	Seed int64
	// DeploymentRates is the swept fraction of peer ingresses monitored.
	// Nil defaults to DefaultDeploymentRates.
	DeploymentRates []float64
	// NormalFlowsPerSource is the benign flow count each peer replays.
	// Zero defaults to 150.
	NormalFlowsPerSource int
	// TrainingFlows sizes the NNS training cluster. Zero defaults to 600.
	TrainingFlows int
	// TTLTolerance is the TTL-profile hop tolerance. Zero defaults to 2.
	TTLTolerance int
}

// Campaign defaults.
const (
	DefaultCampaignNormalFlows  = 150
	DefaultCampaignTrainingRows = 600
	DefaultCampaignTTLTolerance = 2
)

// DefaultDeploymentRates is the default SAV deployment sweep.
var DefaultDeploymentRates = []float64{0.2, 0.5, 0.8, 1.0}

// campaignSubBlocks restricts each peer's benign (and in-peer spoof)
// sources to its first few /11 sub-blocks, so the TTL profiles, which
// aggregate at sub-block granularity, densify quickly.
const campaignSubBlocks = 4

// campaignInitialTTL is the initial TTL every modeled host sends with.
const campaignInitialTTL = 64

// campaignAttackerExtraHops is how much farther than the victim network
// the spoofing attacker sits — far beyond any hop-jitter tolerance.
const campaignAttackerExtraHops = 15

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.DeploymentRates == nil {
		c.DeploymentRates = DefaultDeploymentRates
	}
	if c.NormalFlowsPerSource <= 0 {
		c.NormalFlowsPerSource = DefaultCampaignNormalFlows
	}
	if c.TrainingFlows <= 0 {
		c.TrainingFlows = DefaultCampaignTrainingRows
	}
	if c.TTLTolerance <= 0 {
		c.TTLTolerance = DefaultCampaignTTLTolerance
	}
	return c
}

func (c CampaignConfig) validate() error {
	for _, r := range c.DeploymentRates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("experiment: deployment rate %v out of (0,1]", r)
		}
	}
	return nil
}

// CampaignPoint is the outcome at one deployment rate.
type CampaignPoint struct {
	DeploymentRate float64
	DeployedPeers  int
	// Launched counts every injected event, monitored ingress or not;
	// events at unmonitored ingresses are launched-but-undetectable,
	// which is exactly what the sweep measures.
	Launched       int
	Detected       int
	DetectionRate  float64
	BenignFlows    int
	FalsePositives int
	FPRate         float64
	// TTLStageAlerts counts attack flows flagged by the TTL second
	// opinion specifically.
	TTLStageAlerts int
	ByKind         map[CampaignEventKind]TypeStats
}

// CampaignResult is the full sweep plus the benign-only control.
type CampaignResult struct {
	Config CampaignConfig
	// PeerHops[s] is peer AS s's modeled hop distance (index 0 unused).
	PeerHops []int
	Points   []CampaignPoint
	// BenignOnly replays benign traffic alone at full deployment: its
	// FalsePositives is the campaign's zero-FP gate.
	BenignOnly CampaignPoint
}

// campaignEvent is one injected event's ground truth.
type campaignEvent struct {
	kind CampaignEventKind
	peer int
}

// campaignWorkload is one campaign's labeled traffic in expiry order.
type campaignWorkload struct {
	flows  []labeledFlow
	events map[int]campaignEvent
}

// RunCampaign executes the sweep: one fresh engine per deployment point
// over the same injected workload, then the benign-only control.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hops, err := campaignPeerHops(cfg.Seed)
	if err != nil {
		return nil, err
	}
	wl, err := buildCampaignWorkload(cfg, hops, true)
	if err != nil {
		return nil, err
	}
	benign, err := buildCampaignWorkload(cfg, hops, false)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{Config: cfg, PeerHops: hops}
	for _, rate := range cfg.DeploymentRates {
		pt, err := runCampaignPoint(cfg, wl, rate)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	ctl, err := runCampaignPoint(cfg, benign, 1.0)
	if err != nil {
		return nil, err
	}
	res.BenignOnly = ctl
	return res, nil
}

// campaignPeerHops derives each peer AS's hop distance from the topology
// model: one modeled path per peer with per-peer transit depth, so the
// campaign's TTLs are a function of simulated path length, not pinned
// constants. Hop counts land in [5,12], i.e. arrival TTLs in [52,59].
func campaignPeerHops(seed int64) ([]int, error) {
	hops := make([]int, blocks.DefaultSources+1)
	for s := 1; s <= blocks.DefaultSources; s++ {
		net := topo.New(topo.Config{
			Seed:    seed + int64(s),
			Targets: 1, LGSites: 1,
			MinPeers: 1, MaxPeers: 1,
			MidPathHops: 3 + (s*3)%8,
		})
		hops[s] = len(net.Traceroute(0, 0).Hops)
		if hops[s] <= 0 || hops[s] >= campaignInitialTTL {
			return nil, fmt.Errorf("experiment: modeled hop count %d for peer %d out of range", hops[s], s)
		}
	}
	return hops, nil
}

// campaignTTL is the TTL peer s's legitimate traffic arrives with.
func campaignTTL(hops []int, s int) uint8 {
	return uint8(campaignInitialTTL - hops[s])
}

// attackerTTL is the TTL spoofed traffic arrives with when the real
// sender sits campaignAttackerExtraHops beyond peer s's legitimate path.
func attackerTTL(hops []int, s int) uint8 {
	return uint8(campaignInitialTTL - hops[s] - campaignAttackerExtraHops)
}

// campaignPrefixes returns peer s's first campaignSubBlocks /11s.
func campaignPrefixes(s int) ([]netaddr.Prefix, error) {
	alloc, err := blocks.EIAAllocation(s)
	if err != nil {
		return nil, err
	}
	return subBlockPrefixes(alloc[:campaignSubBlocks]), nil
}

func stampTTL(pkts []packet.Packet, ttl uint8) {
	for i := range pkts {
		pkts[i].TTL = ttl
	}
}

// campaignWire is the export format the campaign replays over: IPFIX
// carries the minimumTTL information element. Replaying the campaign
// over v5 would silently zero every TTL and blind the second opinion —
// the wire version is part of what the campaign validates.
const campaignWire = netflow.VersionIPFIX

// buildCampaignWorkload assembles benign traffic for all ten peers and,
// when withEvents is set, the four event kinds at every peer.
func buildCampaignWorkload(cfg CampaignConfig, hops []int, withEvents bool) (*campaignWorkload, error) {
	wl := &campaignWorkload{events: make(map[int]campaignEvent)}
	window := phaseSpan(cfg.NormalFlowsPerSource)
	id := 0
	for s := 1; s <= blocks.DefaultSources; s++ {
		prefixes, err := campaignPrefixes(s)
		if err != nil {
			return nil, err
		}
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed:        cfg.Seed + int64(s)*211,
			Start:       experimentEpoch,
			Flows:       cfg.NormalFlowsPerSource,
			SrcPrefixes: prefixes,
			DstPrefix:   TargetNetwork,
		})
		if err != nil {
			return nil, err
		}
		stampTTL(pkts, campaignTTL(hops, s))
		recs, err := replayThroughRouter(fmt.Sprintf("C%d", s), pkts, nil, uint16(s), campaignWire)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			wl.flows = append(wl.flows, labeledFlow{peer: eia.PeerAS(s), rec: r})
		}
		if !withEvents {
			continue
		}
		evFlows, err := campaignEventFlows(cfg, hops, s, window, &id, wl.events)
		if err != nil {
			return nil, err
		}
		wl.flows = append(wl.flows, evFlows...)
	}
	sort.SliceStable(wl.flows, func(i, j int) bool {
		return wl.flows[i].rec.End.Before(wl.flows[j].rec.End)
	})
	return wl, nil
}

// campaignEventFlows injects the four event kinds at peer s's ingress.
// The foreign-source events (flood and both scans) spoof addresses from
// other peers' blocks, as the catalog experiments do; the TTL-spoof
// event instead draws sources from peer s's *own* prefixes — an EIA
// Match — but arrives with the attacker's hop distance, and launches
// late in the window so the benign replay has densified the profiles
// the way a live deployment's would be.
func campaignEventFlows(cfg CampaignConfig, hops []int, s int, window time.Duration, id *int, events map[int]campaignEvent) ([]labeledFlow, error) {
	foreign := foreignPrefixes(s)
	var out []labeledFlow

	launch := func(kind CampaignEventKind, pkts []packet.Packet, policy dagflow.SourcePolicy) error {
		*id++
		stampTTL(pkts, attackerTTL(hops, s))
		recs, err := replayThroughRouter(fmt.Sprintf("C%d-%s", s, kind), pkts, policy, uint16(s), campaignWire)
		if err != nil {
			return err
		}
		for _, r := range recs {
			out = append(out, labeledFlow{peer: eia.PeerAS(s), rec: r, attackID: *id})
		}
		events[*id] = campaignEvent{kind: kind, peer: s}
		return nil
	}

	for i, kind := range []CampaignEventKind{EventSpoofedFlood, EventNetworkScan, EventHostScan} {
		at := map[CampaignEventKind]trace.AttackType{
			EventSpoofedFlood: trace.AttackSYNFlood,
			EventNetworkScan:  trace.AttackSlammer,
			EventHostScan:     trace.AttackIdlescan,
		}[kind]
		pkts, err := trace.Generate(at, trace.AttackConfig{
			Seed:      cfg.Seed + int64(*id+1)*37,
			Start:     experimentEpoch.Add(window * time.Duration(3+i) / 10),
			Src:       netaddr.AddrFrom4(203, 0, 113, byte(s)),
			DstPrefix: TargetNetwork,
		})
		if err != nil {
			return nil, err
		}
		spoof, err := dagflow.NewSpoofPolicy(foreign, cfg.Seed+int64(*id+1))
		if err != nil {
			return nil, err
		}
		if err := launch(kind, pkts, spoof); err != nil {
			return nil, err
		}
	}

	ownPrefixes, err := campaignPrefixes(s)
	if err != nil {
		return nil, err
	}
	spoofPkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        cfg.Seed ^ int64(s)<<8,
		Start:       experimentEpoch.Add(window * 85 / 100),
		Flows:       30,
		SrcPrefixes: ownPrefixes,
		DstPrefix:   TargetNetwork,
	})
	if err != nil {
		return nil, err
	}
	if err := launch(EventTTLSpoof, spoofPkts, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// campaignEngine trains one fresh Enhanced engine with the TTL second
// opinion aggregating at the /11 sub-block granularity the campaign's
// address plan uses (every source behind a sub-block shares its peer's
// path, so the aggregation is exact, not approximate).
func campaignEngine(cfg CampaignConfig) (*analysis.Engine, error) {
	set, err := preloadEIA()
	if err != nil {
		return nil, err
	}
	var prefixes []netaddr.Prefix
	for s := 1; s <= blocks.DefaultSources; s++ {
		p, err := campaignPrefixes(s)
		if err != nil {
			return nil, err
		}
		prefixes = append(prefixes, p...)
	}
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        cfg.Seed ^ 0x7ea1,
		Start:       experimentEpoch.Add(-time.Hour),
		Flows:       cfg.TrainingFlows,
		SrcPrefixes: prefixes,
		DstPrefix:   TargetNetwork,
	})
	if err != nil {
		return nil, err
	}
	detector, err := trainDetector(Config{}, cfg.Seed, netflow.Aggregate(pkts, 0))
	if err != nil {
		return nil, err
	}
	return analysis.NewEngine(analysis.Config{
		Mode: analysis.ModeEnhanced,
		TTL: scan.TTLConfig{
			Tolerance:  cfg.TTLTolerance,
			PrefixLen4: 11,
		},
	}, set, detector)
}

// runCampaignPoint replays the workload at one deployment rate: flows
// arriving at unmonitored ingresses (peers above the deployed count)
// never reach the engine, so their events stay launched-but-undetected.
func runCampaignPoint(cfg CampaignConfig, wl *campaignWorkload, rate float64) (CampaignPoint, error) {
	engine, err := campaignEngine(cfg)
	if err != nil {
		return CampaignPoint{}, err
	}
	deployed := int(rate*float64(blocks.DefaultSources) + 0.5)
	pt := CampaignPoint{
		DeploymentRate: rate,
		DeployedPeers:  deployed,
		ByKind:         make(map[CampaignEventKind]TypeStats),
	}
	var monitored []labeledFlow
	for _, lf := range wl.flows {
		if int(lf.peer) <= deployed {
			monitored = append(monitored, lf)
		}
	}
	detected := make(map[int]bool)
	decisions, _ := replay(engine, monitored)
	for i, lf := range monitored {
		d := decisions[i]
		if lf.attackID == 0 {
			pt.BenignFlows++
			if d.Attack {
				pt.FalsePositives++
			}
			continue
		}
		if d.Attack {
			detected[lf.attackID] = true
			if d.Stage == idmef.StageTTL {
				pt.TTLStageAlerts++
			}
		}
	}
	pt.Launched = len(wl.events)
	for id, ev := range wl.events {
		ts := pt.ByKind[ev.kind]
		ts.Launched++
		if detected[id] {
			pt.Detected++
			ts.Detected++
		}
		pt.ByKind[ev.kind] = ts
	}
	if pt.Launched > 0 {
		pt.DetectionRate = 100 * float64(pt.Detected) / float64(pt.Launched)
	}
	if pt.BenignFlows > 0 {
		pt.FPRate = 100 * float64(pt.FalsePositives) / float64(pt.BenignFlows)
	}
	return pt, nil
}

// campaignFigure is the serialized figure format CI archives: one row
// per deployment point plus the benign-only control.
type campaignFigure struct {
	Seed       int64               `json:"seed"`
	PeerHops   []int               `json:"peer_hops"`
	Points     []campaignFigureRow `json:"points"`
	BenignOnly campaignFigureRow   `json:"benign_only"`
}

type campaignFigureRow struct {
	DeploymentRate float64                         `json:"deployment_rate"`
	DeployedPeers  int                             `json:"deployed_peers"`
	Launched       int                             `json:"launched"`
	Detected       int                             `json:"detected"`
	DetectionRate  float64                         `json:"detection_rate"`
	BenignFlows    int                             `json:"benign_flows"`
	FalsePositives int                             `json:"false_positives"`
	FPRate         float64                         `json:"fp_rate"`
	TTLStageAlerts int                             `json:"ttl_stage_alerts"`
	ByKind         map[CampaignEventKind]TypeStats `json:"by_kind"`
}

func figureRow(pt CampaignPoint) campaignFigureRow {
	return campaignFigureRow{
		DeploymentRate: pt.DeploymentRate,
		DeployedPeers:  pt.DeployedPeers,
		Launched:       pt.Launched,
		Detected:       pt.Detected,
		DetectionRate:  pt.DetectionRate,
		BenignFlows:    pt.BenignFlows,
		FalsePositives: pt.FalsePositives,
		FPRate:         pt.FPRate,
		TTLStageAlerts: pt.TTLStageAlerts,
		ByKind:         pt.ByKind,
	}
}

// WriteCampaignFigures serializes the sweep as indented JSON — the
// detection-vs-deployment and false-positive figure data CI uploads as
// an artifact next to the benchmark baselines.
func WriteCampaignFigures(w io.Writer, res *CampaignResult) error {
	fig := campaignFigure{
		Seed:       res.Config.Seed,
		PeerHops:   res.PeerHops,
		BenignOnly: figureRow(res.BenignOnly),
	}
	for _, pt := range res.Points {
		fig.Points = append(fig.Points, figureRow(pt))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fig)
}
