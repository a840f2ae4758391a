// Package analysis implements the InFilter data-analysis module (paper §5):
// the Basic InFilter EIA-set check and the Enhanced InFilter pipeline that
// routes EIA-flagged suspects through Scan Analysis and then NNS search,
// raising IDMEF alerts for flows that fail every stage and adapting EIA
// sets to route changes via promotion of repeatedly-vouched sources.
//
// There is exactly one pipeline implementation (see core.go), and its
// only unit of work is the single-peer record batch: Engine runs batches
// synchronously through a single shard and can hand back each flow's
// Decision, ParallelEngine runs them through N queue-fed shards.
package analysis

import (
	"fmt"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/nns"
	"infilter/internal/scan"
)

// Mode selects the software configuration of §6.3: BI runs EIA-set
// analysis alone; EI adds Scan Analysis and NNS search on suspects.
type Mode int

// Modes.
const (
	ModeBasic Mode = iota + 1
	ModeEnhanced
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case ModeBasic:
		return "BI"
	case ModeEnhanced:
		return "EI"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config assembles the engine.
type Config struct {
	// Mode selects BI or EI. Zero defaults to ModeEnhanced.
	Mode Mode
	// EIA tunes the EIA sets.
	EIA eia.Config
	// Scan tunes Scan Analysis (EI only).
	Scan scan.Config
	// NNS tunes the anomaly detector (EI only).
	NNS nns.DetectorConfig
	// TTL tunes the TTL-profile second-opinion detector (EI only).
	// Disabled unless TTL.Tolerance is positive. When enabled, every
	// TTL-bearing flow is checked against its source's learned hop
	// profile: an EIA Match whose TTL deviates beyond tolerance is still
	// flagged (the second opinion overrides the ingress mapping — the
	// on-path spoof case EIA cannot see), and a suspect that survived
	// every other stage is denied its vouch when the TTL contradicts the
	// profile. Flows with TTL zero (v5 ingest, TTL-less templates) are
	// never assessed, so the stage is inert on TTL-less deployments.
	TTL scan.TTLConfig
}

// Decision is the outcome of processing one flow.
type Decision struct {
	// Attack is the final verdict.
	Attack bool
	// Stage that flagged the attack (empty when not an attack).
	Stage idmef.Stage
	// Verdict is the EIA-set classification.
	Verdict eia.Verdict
	// Assessment is the NNS outcome (EI suspects that reached NNS only).
	Assessment nns.Assessment
	// Promoted is set when this flow completed an EIA promotion.
	Promoted bool
}

// Stats is a view of the engine's counters (PipelineMetrics): flows
// given a verdict, EIA misses, attacks by the stage that flagged them
// (only stages that flagged any) and their sum, and promotions.
type Stats struct {
	Processed  int
	Suspects   int
	Attacks    int
	ByStage    map[idmef.Stage]int
	Promotions int
}

// pipeline is the normal-processing phase of §5.2 (Figure 12) over a set of
// analysis components: EIA check, then Scan Analysis, then NNS search.
// Every engine shard runs one pipeline with the EIA store and detector
// shared. A pipeline is only as concurrency-safe as its components: the
// scanner is always owned by a single caller, the detector is read-only
// after training, and the EIA store is a copy-on-write snapshot store
// whose reads are lock-free.
type pipeline struct {
	mode     Mode
	eia      *eia.Store
	scanner  *scan.Analyzer
	detector *nns.Detector
	// ttl is the TTL-profile second-opinion table, nil unless Config.TTL
	// enables it. Unlike the scanner it is shared across shards (profiles
	// aggregate a source's flows wherever they land) and is internally
	// stripe-locked.
	ttl *scan.TTLProfile
	// metrics is the owning shard's instrumentation. Stage timing uses
	// the real clock, not the engine's replay clock: latency telemetry
	// reports wall cost even when flows carry replayed timestamps.
	metrics *shardMetrics
}

// decideVerdict runs one flow through the stages that follow its EIA-set
// classification v. Its one caller is the batch loop, which classifies a
// whole batch up front (eia.Store.CheckBatch) and owns the EIA stage
// timing and the counting of every decision. The record is passed by
// pointer (it is large) and not retained or mutated.
func (p *pipeline) decideVerdict(peer eia.PeerAS, rec *flow.Record, v eia.Verdict) Decision {
	d := Decision{Verdict: v}
	if d.Verdict == eia.Match {
		// Case (b): expected ingress. The TTL profile gets a second
		// opinion: a source spoofed from a host behind the *same* peer
		// ingress passes the EIA check, but its packets arrive with the
		// attacker's hop distance, not the victim's.
		if p.checkTTL(rec) {
			d.Attack = true
			d.Stage = idmef.StageTTL
		}
		return d
	}
	// Case (a): unexpected ingress or unknown source.
	if p.mode == ModeBasic {
		d.Attack = true
		d.Stage = idmef.StageEIA
		return d
	}
	// Enhanced: Scan Analysis first.
	t := time.Now()
	res := p.scanner.Add(*rec)
	p.metrics.stage[stageScan].ObserveDuration(time.Since(t))
	if res.Attack() {
		d.Attack = true
		d.Stage = idmef.StageScan
		return d
	}
	// Then NNS search against the flow's subcluster.
	t = time.Now()
	d.Assessment = p.detector.Assess(*rec)
	p.metrics.stage[stageNNS].ObserveDuration(time.Since(t))
	if d.Assessment.Anomalous {
		d.Attack = true
		d.Stage = idmef.StageNNS
		return d
	}
	// TTL second opinion before vouching: a suspect whose TTL contradicts
	// the source's learned hop profile is flagged instead of vouched, so
	// an attacker who slips past scan analysis and NNS cannot launder a
	// spoofed source into the EIA sets.
	if p.checkTTL(rec) {
		d.Attack = true
		d.Stage = idmef.StageTTL
		return d
	}
	// Within normal behavior: vouch for the source; promote after enough
	// confirmations so a route change stops raising suspicion (§5.2(a)).
	d.Promoted = p.eia.RecordLegal(peer, rec.Key.Src)
	return d
}

// checkTTL runs the TTL-profile stage on one flow, with stage timing;
// it reports a spoof verdict. Inert (and costs nothing) when the stage
// is disabled or the flow carries no TTL information.
func (p *pipeline) checkTTL(rec *flow.Record) bool {
	if p.ttl == nil || rec.TTL == 0 {
		return false
	}
	t := time.Now()
	spoofed := p.ttl.Observe(rec.Key.Src, rec.TTL)
	p.metrics.stage[stageTTL].ObserveDuration(time.Since(t))
	return spoofed
}

// Engine is the per-deployment analysis state: the one-shard synchronous
// case of the shared pipeline core. ProcessBatch runs the batch loop a
// ParallelEngine worker runs, on the caller's goroutine, and can hand
// back each flow's Decision. It is not safe for concurrent use (the
// single shard's scan buffer assumes one driver); use ParallelEngine to
// process flows from many ingresses at once.
type Engine struct {
	*core
}

// NewEngine assembles an engine from pre-trained components. detector may
// be nil only in ModeBasic. The engine's store adopts the set, so
// AddPrefix on it panics afterwards.
func NewEngine(cfg Config, set *eia.Set, detector *nns.Detector) (*Engine, error) {
	c, err := newCore(cfg, set, detector, 1, nil)
	if err != nil {
		return nil, err
	}
	return &Engine{core: c}, nil
}

// LabeledRecord pairs a flow record with the peer AS it entered through.
type LabeledRecord struct {
	Peer   eia.PeerAS
	Record flow.Record
}

// Train builds a fully-trained engine from labeled normal traffic: the EIA
// sets are initialized from the observed (source, peer) pairs (§5.1.3(a))
// and, in enhanced mode, the normal cluster is partitioned and indexed for
// NNS (§5.1.3(b-d)).
func Train(cfg Config, normal []LabeledRecord) (*Engine, error) {
	set, detector, err := trainComponents(cfg, normal)
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, set, detector)
}

// ProcessBatch runs a batch of flows that all entered through peer
// through the normal-processing phase (§5.2, Figure 12) on the caller's
// goroutine — the batch loop a ParallelEngine worker runs per queue
// message. A non-nil out (at least len(recs) long) receives each record's
// Decision; nil skips the copy.
func (e *Engine) ProcessBatch(peer eia.PeerAS, recs []flow.Record, out []Decision) {
	e.processBatch(e.shards[0], peer, recs, out)
}
