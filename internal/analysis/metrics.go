package analysis

import (
	"strconv"
	"time"

	"infilter/internal/eia"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// Pipeline stages with their own latency histogram.
const (
	stageEIA = iota
	stageScan
	stageNNS
	stageTTL
	numStages
)

var stageNames = [numStages]string{stageEIA: "eia", stageScan: "scan", stageNNS: "nns", stageTTL: "ttl"}

// shardMetrics is one shard's private instrumentation. The counters are
// exported per shard (labeled shard="i"); the stage histograms are
// single-writer on the hot path and merged across shards into one series
// per stage only at scrape time, mirroring how Stats merges shard
// counters.
type shardMetrics struct {
	flows  *telemetry.Counter
	blocks *telemetry.Counter
	stage  [numStages]*telemetry.Histogram
}

// PipelineMetrics instruments one ParallelEngine: per-shard flow and
// enqueue-block counters, per-shard queue-depth gauges, merged per-stage
// latency histograms, and the EIA and scan counters for the engine's
// shared set and per-shard analyzers. Build it with the same shard count
// the engine will use and pass it via ParallelConfig.Metrics.
//
// A PipelineMetrics registers its series on construction, so it belongs
// to exactly one engine; reusing one (or building two on one registry)
// panics with a duplicate-series error.
type PipelineMetrics struct {
	reg    *telemetry.Registry
	shards []shardMetrics
	scan   *scan.Metrics
	ttl    *scan.TTLMetrics
	eia    *eia.Metrics
}

// NewPipelineMetrics registers pipeline instrumentation for an engine
// with the given shard count (which must match ParallelConfig.Shards
// after its zero-default resolution).
func NewPipelineMetrics(r *telemetry.Registry, shards int) *PipelineMetrics {
	if shards <= 0 {
		panic("analysis: NewPipelineMetrics needs a positive shard count")
	}
	m := &PipelineMetrics{
		reg:    r,
		shards: make([]shardMetrics, shards),
		scan:   scan.NewMetrics(r),
		ttl:    scan.NewTTLMetrics(r),
		eia:    eia.NewMetrics(r),
	}
	for i := range m.shards {
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.shards[i].flows = r.Counter("infilter_pipeline_flows_total",
			"Flows analyzed per shard.", lbl)
		m.shards[i].blocks = r.Counter("infilter_pipeline_enqueue_blocks_total",
			"Submits that blocked on a full shard queue (backpressure).", lbl)
		for st := range m.shards[i].stage {
			m.shards[i].stage[st] = telemetry.NewHistogram(telemetry.LatencyBuckets())
		}
	}
	for st := 0; st < numStages; st++ {
		st := st
		r.HistogramFunc("infilter_pipeline_stage_latency_seconds",
			"Per-stage analysis latency, merged across shards.",
			telemetry.UnitSeconds,
			func() telemetry.Snapshot {
				hs := make([]*telemetry.Histogram, len(m.shards))
				for i := range m.shards {
					hs[i] = m.shards[i].stage[st]
				}
				return telemetry.MergeHistograms(hs...)
			},
			telemetry.Label{Key: "stage", Value: stageNames[st]})
	}
	return m
}

// Shards returns the shard count the metrics were built for.
func (m *PipelineMetrics) Shards() int { return len(m.shards) }

// registerTTLSourcesGauge exports the live count of learned TTL source
// profiles; called once per engine, only when the TTL stage is enabled.
func (m *PipelineMetrics) registerTTLSourcesGauge(p *scan.TTLProfile) {
	m.reg.GaugeFunc("infilter_ttl_sources",
		"Source aggregates with a learned TTL profile.",
		func() int64 { return p.Sources() })
}

// registerQueueGauge exports one shard's live queue depth.
func (m *PipelineMetrics) registerQueueGauge(i int, depth func() int64) {
	m.reg.GaugeFunc("infilter_pipeline_queue_depth",
		"Flows waiting in a shard's ingest queue.", depth,
		telemetry.Label{Key: "shard", Value: strconv.Itoa(i)})
}

// observeStage records one stage latency on a shard's histogram; nil
// receivers (uninstrumented engines) discard.
func (sm *shardMetrics) observeStage(st int, d time.Duration) {
	if sm == nil {
		return
	}
	sm.stage[st].ObserveDuration(d)
}
