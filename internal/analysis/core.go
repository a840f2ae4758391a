package analysis

import (
	"fmt"
	"strconv"
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
// batch loop (processBatch, the only caller of pipeline.decideVerdict),
// one set of counters (PipelineMetrics, which Stats reads), one alert
// emitter. Engine is a core with exactly one shard driven synchronously;
// ParallelEngine is a core with N shards driven from queues. Both embed
// it, so the accessors below are defined once. Every queued message and every Engine.ProcessBatch call is a
// single-peer record batch, and a batch of any width decides its records
// as one-record batches would, each against the latest snapshot.
//
// Shared state is concurrency-safe by composition: the EIA store is a
// lock-free copy-on-write snapshot store, the NNS detector is read-only
// after training, the counters are atomics, and everything per-shard
// (scan buffer, batch scratch, stage histograms) is touched only by that
// shard's driver.
type core struct {
	cfg      Config
	store    *eia.Store
	detector *nns.Detector
	ttl      *scan.TTLProfile // shared across shards; nil unless enabled
	shards   []*shard
	metrics  *PipelineMetrics

	alertFn  func(idmef.Alert)
	alertSeq atomic.Int64
	now      func() time.Time
}

// shard is one driver's private state: its own Scan Analysis buffer
// (suspect interleaving is per-shard, matching the per-ingress deployment
// of the paper's prototype). The queue is set only on ParallelEngine
// shards; the serial Engine dispatches into its single shard directly.
type shard struct {
	pl    pipeline
	queue chan shardBatch

	// Batch scratch, touched only by the shard's single driver: the
	// column views CheckBatch classifies (one snapshot load per batch),
	// grown, not reallocated, between batches.
	srcs     []netaddr.Addr
	verdicts []eia.Verdict
}

// newCore assembles the shared engine substrate: it validates the
// configuration, wraps the EIA set in a copy-on-write snapshot store and
// builds the per-shard pipelines. detector may be nil only in ModeBasic.
// The store adopts the set, so AddPrefix on it panics afterwards. A nil
// metrics is replaced by one on a private registry: the engine always
// counts, since Stats reads those counters.
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
	if metrics == nil {
		metrics = NewPipelineMetrics(telemetry.NewRegistry(), shards)
	} else if metrics.Shards() != shards {
		return nil, fmt.Errorf("analysis: metrics built for %d shards, engine has %d", metrics.Shards(), shards)
	}
	c := &core{
		cfg:      cfg,
		store:    eia.NewStore(set),
		detector: detector,
		shards:   make([]*shard, shards),
		metrics:  metrics,
		now:      time.Now,
	}
	c.store.SetMetrics(metrics.eia)
	if cfg.Mode == ModeEnhanced {
		// One profile table for the whole engine: TTL expectations must
		// aggregate a source's flows across shards (the table is
		// stripe-locked), unlike the per-shard scan buffers.
		c.ttl = scan.NewTTLProfile(cfg.TTL) // nil unless enabled
	}
	if c.ttl != nil {
		c.ttl.SetMetrics(metrics.ttl)
		metrics.registerTTLSourcesGauge(c.ttl)
	}
	for i := range c.shards {
		scanner := scan.New(cfg.Scan)
		scanner.SetMetrics(metrics.scan)
		c.shards[i] = &shard{pl: pipeline{
			mode:     cfg.Mode,
			eia:      c.store,
			scanner:  scanner,
			detector: detector,
			ttl:      c.ttl,
			promote:  cfg.PromotionFilter,
			metrics:  &metrics.shards[i],
		}}
	}
	return c, nil
}

// processBatch is the batch loop: it runs the records of one batch, all
// observed at peer, through shard s and, when out is non-nil (then at
// least len(recs) long), writes each record's Decision into it. The EIA
// stage is amortized: one CheckBatch classifies the whole batch against a
// single published snapshot, with the measured stage cost attributed
// evenly across the batch so per-record stage telemetry keeps its
// one-observation-per-flow invariant. When a record's decision completes
// a promotion — publishing a new snapshot — the unconsumed tail is
// re-classified against it, so any batch width decides every record as
// one-record batches would. Every verdict is tallied as it is consumed
// (batchTally) and the tally settles into the counters once per batch.
func (c *core) processBatch(s *shard, peer eia.PeerAS, recs []flow.Record, out []Decision) {
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
	t := time.Now()
	c.store.CheckBatch(peer, srcs, verdicts)
	eiaShare := time.Since(t) / time.Duration(n)

	var tally batchTally
	for i := range recs {
		m.stage[stageEIA].ObserveDuration(eiaShare)
		d := s.pl.decideVerdict(peer, &recs[i], verdicts[i])
		tally.add(srcs[i], d)
		if out != nil {
			out[i] = d
		}
		if d.Attack {
			c.emitAlert(peer, recs[i], d)
		}
		if d.Promoted && i+1 < n {
			c.store.CheckBatch(peer, srcs[i+1:], verdicts[i+1:])
		}
	}
	tally.settle(c.store, c.metrics)
	m.flows.Add(int64(n))
}

// batchTally accumulates a batch's consumed decisions — hits and misses
// per address family, attacks per stage — so settling them stays a
// handful of atomic adds per batch instead of several per record.
type batchTally struct {
	hits, misses [2]int64 // indexed 0=v4, 1=v6
	attacks      [numStages]int64
}

func (t *batchTally) add(src netaddr.Addr, d Decision) {
	f := 0
	if src.Is6() {
		f = 1
	}
	if d.Verdict == eia.Match {
		t.hits[f]++
	} else {
		t.misses[f]++
	}
	if d.Attack {
		t.attacks[stageIndex(d.Stage)]++
	}
}

// settle adds the tally to the counters. The batch loop then adds the
// shard's flow count last, so a reader that sees a batch's flows counted
// (Flush, Stats) also sees the rest of its counts.
func (t *batchTally) settle(store *eia.Store, m *PipelineMetrics) {
	store.AddVerdictCounts(netaddr.FamilyV4, t.hits[0], t.misses[0])
	store.AddVerdictCounts(netaddr.FamilyV6, t.hits[1], t.misses[1])
	for st, n := range t.attacks {
		m.attacks[st].Add(n)
	}
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

// Stats reads the engine's counters. It may be called concurrently with
// processing; each counter is then read at a batch boundary, not all of
// them at the same one.
func (c *core) Stats() Stats {
	m := c.metrics
	st := Stats{
		Processed:  int(m.flows()),
		Suspects:   int(m.eia.Misses.Value()),
		Promotions: int(m.eia.Promotions.Value()),
		ByStage:    make(map[idmef.Stage]int),
	}
	for i, ctr := range m.attacks {
		if n := int(ctr.Value()); n > 0 {
			st.ByStage[stageAlerts[i]] = n
			st.Attacks += n
		}
	}
	return st
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
