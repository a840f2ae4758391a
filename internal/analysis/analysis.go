// Package analysis implements the InFilter data-analysis module (paper §5):
// the Basic InFilter EIA-set check and the Enhanced InFilter pipeline that
// routes EIA-flagged suspects through Scan Analysis and then NNS search,
// raising IDMEF alerts for flows that fail every stage and adapting EIA
// sets to route changes via promotion of repeatedly-vouched sources.
//
// There is exactly one pipeline implementation (see core.go): Engine
// drives it synchronously through a single shard, ParallelEngine through
// N queue-fed shards whose only unit of work is the single-peer record
// batch.
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
	// PromotionFilter, when non-nil, gates EIA promotion by peer AS: a
	// vouched source only counts toward promotion when the filter accepts
	// the peer. Cluster mode uses this to restrict EIA *training* to the
	// peer ASes this node owns on the ring — every node still *checks*
	// all traffic, and replicated snapshots carry owned learning to the
	// rest of the cluster. The filter is called from every shard and must
	// be safe for concurrent use; nil trains on everything.
	PromotionFilter func(peer eia.PeerAS) bool
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
	// Latency is the processing time of this flow.
	Latency time.Duration
}

// Stats accumulates engine counters.
type Stats struct {
	Processed   int
	Suspects    int
	Attacks     int
	ByStage     map[idmef.Stage]int
	Promotions  int
	ScanFlagged int
}

// pipeline is the normal-processing phase of §5.2 (Figure 12) over a set of
// analysis components: EIA check, then Scan Analysis, then NNS search.
// Every engine shard runs one pipeline with the EIA store and detector
// shared. A pipeline is only as concurrency-safe as its components: the
// scanner is always owned by a single caller, the detector is read-only
// after training, and the EIA store is a copy-on-write snapshot store
// whose Check is a lock-free read.
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
	// promote gates EIA promotion by peer AS (Config.PromotionFilter);
	// nil trains on every peer.
	promote func(peer eia.PeerAS) bool
	// metrics is the owning shard's instrumentation (nil on
	// uninstrumented engines). Stage timing uses the real clock, not the
	// engine's replay clock: latency telemetry reports wall cost even
	// when flows carry replayed timestamps.
	metrics *shardMetrics
}

// decide runs one flow through the pipeline; scanFlagged reports whether
// the scan stage fired (tracked separately from the Decision for stats).
func (p *pipeline) decide(peer eia.PeerAS, rec flow.Record) (d Decision, scanFlagged bool) {
	m := p.metrics
	var t time.Time
	if m != nil {
		m.flows.Inc()
		t = time.Now()
	}
	v := p.eia.Check(peer, rec.Key.Src)
	if m != nil {
		m.observeStage(stageEIA, time.Since(t))
	}
	return p.decideVerdict(peer, &rec, v)
}

// decideVerdict is the post-EIA tail of the pipeline: everything decide
// does after the EIA-set classification. The batch loop computes verdicts
// for a whole batch up front (eia.Store.CheckBatch) and feeds them here
// one record at a time; the caller owns the flow counter, EIA stage
// timing and hit/miss accounting for that phase. The record is
// passed by pointer (it is large) and not retained or mutated.
func (p *pipeline) decideVerdict(peer eia.PeerAS, rec *flow.Record, v eia.Verdict) (d Decision, scanFlagged bool) {
	m := p.metrics
	var t time.Time
	d = Decision{Verdict: v}
	if d.Verdict == eia.Match {
		// Case (b): expected ingress. The TTL profile gets a second
		// opinion: a source spoofed from a host behind the *same* peer
		// ingress passes the EIA check, but its packets arrive with the
		// attacker's hop distance, not the victim's.
		if p.checkTTL(rec) {
			d.Attack = true
			d.Stage = idmef.StageTTL
			return d, false
		}
		return d, false
	}
	// Case (a): unexpected ingress or unknown source.
	if p.mode == ModeBasic {
		d.Attack = true
		d.Stage = idmef.StageEIA
		return d, false
	}
	// Enhanced: Scan Analysis first.
	if m != nil {
		t = time.Now()
	}
	res := p.scanner.Add(*rec)
	if m != nil {
		m.observeStage(stageScan, time.Since(t))
	}
	if res.Attack() {
		d.Attack = true
		d.Stage = idmef.StageScan
		return d, true
	}
	// Then NNS search against the flow's subcluster.
	if m != nil {
		t = time.Now()
	}
	d.Assessment = p.detector.Assess(*rec)
	if m != nil {
		m.observeStage(stageNNS, time.Since(t))
	}
	if d.Assessment.Anomalous {
		d.Attack = true
		d.Stage = idmef.StageNNS
		return d, false
	}
	// TTL second opinion before vouching: a suspect whose TTL contradicts
	// the source's learned hop profile is flagged instead of vouched, so
	// an attacker who slips past scan analysis and NNS cannot launder a
	// spoofed source into the EIA sets.
	if p.checkTTL(rec) {
		d.Attack = true
		d.Stage = idmef.StageTTL
		return d, false
	}
	// Within normal behavior: vouch for the source; promote after enough
	// confirmations so a route change stops raising suspicion (§5.2(a)).
	// A promotion filter (cluster ring ownership) may exclude this peer
	// from local training; the verdict above is unaffected.
	if p.promote == nil || p.promote(peer) {
		d.Promoted = p.eia.RecordLegal(peer, rec.Key.Src)
	}
	return d, false
}

// checkTTL runs the TTL-profile stage on one flow, with stage timing;
// it reports a spoof verdict. Inert (and costs nothing) when the stage
// is disabled or the flow carries no TTL information.
func (p *pipeline) checkTTL(rec *flow.Record) bool {
	if p.ttl == nil || rec.TTL == 0 {
		return false
	}
	m := p.metrics
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	spoofed := p.ttl.Observe(rec.Key.Src, rec.TTL)
	if m != nil {
		m.observeStage(stageTTL, time.Since(t))
	}
	return spoofed
}

// record folds one decision into the counters.
func (s *Stats) record(d Decision, scanFlagged bool) {
	s.Processed++
	if d.Verdict != eia.Match {
		s.Suspects++
	}
	if d.Attack {
		s.Attacks++
		s.ByStage[d.Stage]++
	}
	if d.Promoted {
		s.Promotions++
	}
	if scanFlagged {
		s.ScanFlagged++
	}
}

// reset zeroes the counters in place, keeping the ByStage map's storage,
// so a scratch Stats can be reused batch after batch.
func (s *Stats) reset() {
	clear(s.ByStage)
	*s = Stats{ByStage: s.ByStage}
}

// merge adds other's counters into s.
func (s *Stats) merge(other Stats) {
	s.Processed += other.Processed
	s.Suspects += other.Suspects
	s.Attacks += other.Attacks
	s.Promotions += other.Promotions
	s.ScanFlagged += other.ScanFlagged
	for k, v := range other.ByStage {
		s.ByStage[k] += v
	}
}

// Engine is the per-deployment analysis state: the one-shard synchronous
// case of the shared pipeline core. Process runs one flow on the caller's
// goroutine and returns its Decision; ProcessBatch runs the batch loop a
// ParallelEngine worker runs. Neither is safe for concurrent use (the
// single shard's scan buffer assumes one driver); use ParallelEngine to
// process flows from many ingresses at once.
type Engine struct {
	*core
}

// NewEngine assembles an engine from pre-trained components. detector may
// be nil only in ModeBasic. The set must not be mutated directly
// afterwards (the engine's store adopts it).
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

// Process runs one flow through the normal-processing phase (§5.2, Figure
// 12) and returns the decision.
func (e *Engine) Process(peer eia.PeerAS, rec flow.Record) Decision {
	return e.process(e.shards[0], peer, rec)
}

// ProcessBatch runs a batch of flows that all entered through peer
// through the single shard — the same batch loop a ParallelEngine worker
// runs per queue message: the whole batch is classified against one EIA
// snapshot (refreshed after any mid-batch promotion), then each record
// continues through the same post-EIA stages Process runs.
// Observationally identical to calling Process per record, in order.
func (e *Engine) ProcessBatch(peer eia.PeerAS, recs []flow.Record) {
	e.processBatch(e.shards[0], peer, recs)
}
