package analysis

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// core is the single pipeline implementation behind both engines: one
// post-EIA decide path (pipeline.decideVerdict), one stats accounting,
// one alert emitter. Engine is a core with exactly one shard driven
// synchronously; ParallelEngine is a core with N shards driven from
// queues. Both embed it, so the accessors below are defined once.
//
// Work reaches a verdict in one of two ways only: processBatch, the
// single-peer record batch every queued message and Engine.ProcessBatch
// run, and process, the synchronous one-flow form behind Engine.Process
// that hands the Decision back to its caller. The equivalence suites
// compare the two, which is what keeps them from drifting.
//
// Shared state is concurrency-safe by composition: the EIA store is a
// lock-free copy-on-write snapshot store, the NNS detector is read-only
// after training, and everything per-shard (scan buffer, stats block,
// stage histograms) is touched only by that shard's driver.
type core struct {
	cfg      Config
	store    *eia.Store
	detector *nns.Detector
	ttl      *scan.TTLProfile // shared across shards; nil unless enabled
	shards   []*shard

	alertFn  func(idmef.Alert)
	alertSeq atomic.Int64
	now      func() time.Time
}

// shard is one driver's private state: its own Scan Analysis buffer
// (suspect interleaving is per-shard, matching the per-ingress deployment
// of the paper's prototype) and its own counters, merged only when Stats
// is read. The queue is set only on ParallelEngine shards; the serial
// Engine dispatches into its single shard directly.
type shard struct {
	pl     pipeline
	queue  chan shardBatch
	blocks *telemetry.Counter // Submits that found the queue full (nil ok)

	// Batch scratch, touched only by the shard's single driver: the
	// column views CheckBatch classifies (one snapshot load per batch)
	// and the counters a batch accumulates before merging into stats
	// under one lock (reset, not reallocated, between batches).
	srcs     []netaddr.Addr
	verdicts []eia.Verdict
	batch    Stats

	mu    sync.Mutex
	stats Stats
}

// newCore assembles the shared engine substrate: it validates the
// configuration, wraps the EIA set in a copy-on-write snapshot store and
// builds the per-shard pipelines. detector may be nil only in ModeBasic.
// The set must not be mutated directly afterwards (the store adopts it).
func newCore(cfg Config, set *eia.Set, detector *nns.Detector, shards int, metrics *PipelineMetrics) (*core, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeEnhanced
	}
	if set == nil {
		return nil, fmt.Errorf("analysis: nil EIA set")
	}
	if cfg.Mode == ModeEnhanced && detector == nil {
		return nil, fmt.Errorf("analysis: enhanced mode requires a trained NNS detector")
	}
	if metrics != nil && metrics.Shards() != shards {
		return nil, fmt.Errorf("analysis: metrics built for %d shards, engine has %d", metrics.Shards(), shards)
	}
	c := &core{
		cfg:      cfg,
		store:    eia.NewStore(set),
		detector: detector,
		shards:   make([]*shard, shards),
		now:      time.Now,
	}
	if metrics != nil {
		c.store.SetMetrics(metrics.eia)
	}
	if cfg.Mode == ModeEnhanced {
		// One profile table for the whole engine: TTL expectations must
		// aggregate a source's flows across shards (the table is
		// stripe-locked), unlike the per-shard scan buffers.
		c.ttl = scan.NewTTLProfile(cfg.TTL) // nil unless enabled
	}
	if metrics != nil && c.ttl != nil {
		c.ttl.SetMetrics(metrics.ttl)
		metrics.registerTTLSourcesGauge(c.ttl)
	}
	for i := range c.shards {
		scanner := scan.New(cfg.Scan)
		s := &shard{
			pl: pipeline{
				mode:     cfg.Mode,
				eia:      c.store,
				scanner:  scanner,
				detector: detector,
				ttl:      c.ttl,
				promote:  cfg.PromotionFilter,
			},
			batch: Stats{ByStage: make(map[idmef.Stage]int)},
			stats: Stats{ByStage: make(map[idmef.Stage]int)},
		}
		if metrics != nil {
			scanner.SetMetrics(metrics.scan)
			s.pl.metrics = &metrics.shards[i]
			s.blocks = metrics.shards[i].blocks
		}
		c.shards[i] = s
	}
	return c, nil
}

// process runs one flow through shard s synchronously and returns its
// Decision: classify, decide, fold the outcome into the shard's counters,
// emit the alert. Only Engine.Process uses it — callers that want the
// per-flow Decision (experiments, the equivalence suites' reference
// stream) — while everything queued goes through processBatch.
func (c *core) process(s *shard, peer eia.PeerAS, rec flow.Record) Decision {
	start := c.now()
	d, scanFlagged := s.pl.decide(peer, rec)
	d.Latency = c.now().Sub(start)

	s.mu.Lock()
	s.stats.record(d, scanFlagged)
	s.mu.Unlock()
	if d.Attack {
		c.emitAlert(peer, rec, d)
	}
	return d
}

// processBatch is the batch loop: it runs the records of one batch, all
// observed at peer, through shard s, observationally identical to calling
// process on each record in order. The EIA stage is amortized: one
// CheckBatch classifies the whole batch against a single published
// snapshot (one atomic load, one trie-walk setup), with the measured
// stage cost attributed evenly across the batch so per-record stage
// telemetry keeps its one-observation-per-flow invariant. When a record's
// decision completes a promotion — publishing a new snapshot — the
// still-unconsumed tail is re-classified against it, so a batch never
// reports staler verdicts than the per-record path would. Hit/miss
// counters fold in at consumption time (verdictTally), once per record,
// tail re-checks notwithstanding. Stats accumulate in the shard's scratch
// block and merge under one lock per batch.
func (c *core) processBatch(s *shard, peer eia.PeerAS, recs []flow.Record) {
	n := len(recs)
	if n == 0 {
		return
	}
	if cap(s.srcs) < n {
		s.srcs = make([]netaddr.Addr, n)
		s.verdicts = make([]eia.Verdict, n)
	}
	srcs, verdicts := s.srcs[:n], s.verdicts[:n]
	for i := range recs {
		srcs[i] = recs[i].Key.Src
	}
	m := s.pl.metrics
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	c.store.CheckBatch(peer, srcs, verdicts)
	var eiaShare time.Duration
	if m != nil {
		eiaShare = time.Since(t) / time.Duration(n)
	}

	batch := &s.batch
	var tally verdictTally
	for i := range recs {
		if m != nil {
			m.flows.Inc()
			m.observeStage(stageEIA, eiaShare)
		}
		tally.add(srcs[i], verdicts[i])
		// No per-record Decision.Latency on the batch path: the decision is
		// not returned to any caller here, and stage telemetry already gets
		// its per-flow observations (amortized for EIA, direct for scan/NNS
		// inside decideVerdict), so two clock reads per record would buy
		// nothing and dominate the cheap legal-flow case.
		d, scanFlagged := s.pl.decideVerdict(peer, &recs[i], verdicts[i])
		batch.record(d, scanFlagged)
		if d.Attack {
			c.emitAlert(peer, recs[i], d)
		}
		if d.Promoted && i+1 < n {
			c.store.CheckBatch(peer, srcs[i+1:], verdicts[i+1:])
		}
	}
	tally.settle(c.store)
	s.mu.Lock()
	s.stats.merge(*batch)
	s.mu.Unlock()
	batch.reset()
}

// verdictTally accumulates a batch's consumed verdicts per address
// family, so the hit/miss settle stays a handful of atomic adds per
// batch (now at most four) instead of one per record.
type verdictTally struct {
	hits, misses [2]int64 // indexed 0=v4, 1=v6
}

func (t *verdictTally) add(src netaddr.Addr, v eia.Verdict) {
	f := 0
	if src.Is6() {
		f = 1
	}
	if v == eia.Match {
		t.hits[f]++
	} else {
		t.misses[f]++
	}
}

func (t *verdictTally) settle(store *eia.Store) {
	store.AddVerdictCounts(netaddr.FamilyV4, t.hits[0], t.misses[0])
	store.AddVerdictCounts(netaddr.FamilyV6, t.hits[1], t.misses[1])
}

func (c *core) emitAlert(peer eia.PeerAS, rec flow.Record, d Decision) {
	if c.alertFn == nil {
		return
	}
	seq := c.alertSeq.Add(1)
	class := "spoofed-traffic/" + string(d.Stage)
	c.alertFn(idmef.NewAlert(
		"infilter-"+strconv.FormatInt(seq, 10),
		c.now(), d.Stage, int(peer), class, rec.Key, d.Assessment.Distance,
	))
}

// SetAlertSink installs a callback receiving an IDMEF alert per detected
// attack (nil disables). It must be called before the first flow is
// processed; on a ParallelEngine the callback runs on worker goroutines
// and must be safe for concurrent use.
func (c *core) SetAlertSink(fn func(idmef.Alert)) { c.alertFn = fn }

// SetClock overrides the engine's clock (tests and replay); nil is
// ignored. It must be called before the first flow is processed; on a
// ParallelEngine the clock is read concurrently by every worker and must
// be safe for concurrent use.
func (c *core) SetClock(now func() time.Time) {
	if now != nil {
		c.now = now
	}
}

// EIASet exposes the engine's shared EIA snapshot store (monitoring,
// tests, checkpointing).
func (c *core) EIASet() *eia.Store { return c.store }

// Detector exposes the engine's trained NNS detector (nil in ModeBasic).
func (c *core) Detector() *nns.Detector { return c.detector }

// TTLProfile exposes the engine's shared TTL-profile table for
// monitoring and checkpointing; nil when the stage is disabled.
func (c *core) TTLProfile() *scan.TTLProfile { return c.ttl }

// Stats returns the counters merged across shards. It may be called
// concurrently with processing; the snapshot is consistent per shard.
func (c *core) Stats() Stats {
	out := Stats{ByStage: make(map[idmef.Stage]int)}
	for _, s := range c.shards {
		s.mu.Lock()
		out.merge(s.stats)
		s.mu.Unlock()
	}
	return out
}

// trainComponents builds the trained state both engines start from:
// EIA sets initialized from the observed (source, peer) pairs (§5.1.3(a))
// and, in enhanced mode, the partitioned and indexed normal cluster for
// NNS (§5.1.3(b-d)).
func trainComponents(cfg Config, normal []LabeledRecord) (*eia.Set, *nns.Detector, error) {
	if len(normal) == 0 {
		return nil, nil, fmt.Errorf("analysis: empty training set")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEnhanced
	}
	set := eia.NewSet(cfg.EIA)
	obs := make([]eia.TrainingSource, len(normal))
	recs := make([]flow.Record, len(normal))
	for i, lr := range normal {
		obs[i] = eia.TrainingSource{Peer: lr.Peer, Src: lr.Record.Key.Src}
		recs[i] = lr.Record
	}
	set.Train(obs, 0)

	var detector *nns.Detector
	if cfg.Mode == ModeEnhanced {
		var err error
		detector, err = nns.Train(cfg.NNS, recs)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: train NNS: %w", err)
		}
	}
	return set, detector, nil
}
