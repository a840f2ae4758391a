package analysis

import (
	"strconv"

	"infilter/internal/eia"
	"infilter/internal/idmef"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// Pipeline stages, each with its own latency histogram and attack
// counter.
const (
	stageEIA = iota
	stageScan
	stageNNS
	stageTTL
	numStages
)

var (
	stageNames  = [numStages]string{stageEIA: "eia", stageScan: "scan", stageNNS: "nns", stageTTL: "ttl"}
	stageAlerts = [numStages]idmef.Stage{stageEIA: idmef.StageEIA, stageScan: idmef.StageScan, stageNNS: idmef.StageNNS, stageTTL: idmef.StageTTL}
)

// stageIndex maps the stage an attack verdict names to its counter.
func stageIndex(s idmef.Stage) int {
	for i, a := range stageAlerts {
		if a == s {
			return i
		}
	}
	panic("analysis: attack verdict from unknown stage " + string(s))
}

// shardMetrics is one shard's private instrumentation. The counters are
// exported per shard (labeled shard="i"); the stage histograms are
// single-writer on the hot path and merged across shards into one series
// per stage only at scrape time.
type shardMetrics struct {
	flows  *telemetry.Counter
	blocks *telemetry.Counter
	stage  [numStages]*telemetry.Histogram
}

// PipelineMetrics are an engine's counters, and the only ones it keeps:
// per-shard flow and enqueue-block counters, per-shard queue-depth
// gauges, per-stage attack counters, merged per-stage latency
// histograms, and the EIA and scan counters for the engine's shared set
// and per-shard analyzers. Stats is a read of them. Build it with the
// same shard count the engine will use and pass it via
// ParallelConfig.Metrics; an engine given none builds its own on a
// private registry.
//
// A PipelineMetrics registers its series on construction, so it belongs
// to exactly one engine; reusing one (or building two on one registry)
// panics with a duplicate-series error.
type PipelineMetrics struct {
	reg     *telemetry.Registry
	shards  []shardMetrics
	attacks [numStages]*telemetry.Counter
	scan    *scan.Metrics
	ttl     *scan.TTLMetrics
	eia     *eia.Metrics
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
			"Flows given a verdict per shard.", lbl)
		m.shards[i].blocks = r.Counter("infilter_pipeline_enqueue_blocks_total",
			"Submits that blocked on a full shard queue (backpressure).", lbl)
		for st := range m.shards[i].stage {
			m.shards[i].stage[st] = telemetry.NewHistogram(telemetry.LatencyBuckets())
		}
	}
	for st := 0; st < numStages; st++ {
		lbl := telemetry.Label{Key: "stage", Value: stageNames[st]}
		m.attacks[st] = r.Counter("infilter_pipeline_attacks_total",
			"Flows given an attack verdict, by the stage that flagged them.", lbl)
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
			lbl)
	}
	return m
}

// Shards returns the shard count the metrics were built for.
func (m *PipelineMetrics) Shards() int { return len(m.shards) }

// flows returns the flows given a verdict, summed over shards.
func (m *PipelineMetrics) flows() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].flows.Value()
	}
	return n
}

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
