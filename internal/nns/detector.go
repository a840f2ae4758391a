package nns

import (
	"fmt"
	"sort"

	"infilter/internal/flow"
	"infilter/internal/telemetry"
)

// Metrics are the NNS runtime counters: assessments performed and
// anomalous verdicts. They are shared by every goroutine assessing
// against the detector; counting is atomic, so the detector stays
// lock-free. The engine times each assessment as its "nns" pipeline
// stage. The zero value is a detector's uninstrumented default: its nil
// counters discard counts.
type Metrics struct {
	Queries   *telemetry.Counter
	Anomalies *telemetry.Counter
}

// NewMetrics registers the NNS counters on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Queries:   r.Counter("infilter_nns_queries_total", "Flows assessed against an NNS structure."),
		Anomalies: r.Counter("infilter_nns_anomalies_total", "NNS assessments that returned an anomalous (attack) verdict."),
	}
}

// DetectorConfig tunes the per-cluster anomaly detector built on the KOR
// structure.
type DetectorConfig struct {
	// Params are the KOR parameters; zero value takes DefaultParams.
	Params Params
	// Ranges bound the unary encoding; zero value takes DefaultRanges.
	Ranges [flow.NumStats]StatRange
	// ThresholdQuantile picks the per-cluster Hamming threshold from the
	// distribution of training nearest-neighbor distances (0 < q <= 1).
	// Zero defaults to 1.0 (the maximum).
	ThresholdQuantile float64
	// ThresholdSlack multiplies the quantile distance (≥ 1 adds margin
	// against borderline benign flows). Zero defaults to 1.25.
	ThresholdSlack float64
	// MinClusterSize is the fewest training flows a subcluster needs to
	// get its own structure. Zero defaults to 8.
	MinClusterSize int
	// CalibrationSample caps the O(n²) threshold calibration. Zero
	// defaults to 400.
	CalibrationSample int
	// DisablePartition trains one structure over the whole normal cluster
	// instead of per-protocol subclusters — the ablation of §5.1.3(c)'s
	// design choice ("normal traffic flows to a particular application
	// will show less variation than traffic flows to multiple
	// applications").
	DisablePartition bool
}

// Defaults for DetectorConfig.
const (
	DefaultThresholdSlack    = 1.25
	DefaultMinClusterSize    = 8
	DefaultCalibrationSample = 400
)

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Params.D == 0 {
		c.Params = DefaultParams()
	}
	var zero [flow.NumStats]StatRange
	if c.Ranges == zero {
		c.Ranges = DefaultRanges()
	}
	if c.ThresholdQuantile <= 0 || c.ThresholdQuantile > 1 {
		c.ThresholdQuantile = 1.0
	}
	if c.ThresholdSlack < 1 {
		c.ThresholdSlack = DefaultThresholdSlack
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = DefaultMinClusterSize
	}
	if c.CalibrationSample <= 0 {
		c.CalibrationSample = DefaultCalibrationSample
	}
	return c
}

type clusterState struct {
	structure *Structure
	threshold int
}

// Detector partitions training flows into protocol subclusters
// (§5.1.3(b,c)), builds one KOR structure per subcluster (§5.1.3(d)), and
// assesses incoming flows against the matching subcluster (§5.1.3(e)).
//
// A Detector is read-only once built: Assess mutates no detector state, so
// a single trained Detector may be shared by any number of goroutines
// (analysis.ParallelEngine shares one across all shards).
type Detector struct {
	cfg      DetectorConfig
	enc      *Encoder
	clusters map[flow.Subcluster]*clusterState
	metrics  *Metrics
}

// SetMetrics installs runtime counters (nil restores the uninstrumented
// default). Like the detector itself, the metrics pointer is read
// concurrently by every assessing goroutine, so SetMetrics must be
// called before the detector is shared.
func (d *Detector) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	d.metrics = m
}

// Assessment is the outcome of one flow assessment.
type Assessment struct {
	// Anomalous is set when the flow's nearest-neighbor distance exceeds
	// the subcluster threshold (or no subcluster exists for it).
	Anomalous bool
	// Cluster the flow was assessed against.
	Cluster flow.Subcluster
	// Distance to the nearest training neighbor (-1 if no structure).
	Distance int
	// Threshold applied (-1 if no structure).
	Threshold int
}

// Train partitions the normal cluster and builds the per-subcluster
// structures and thresholds.
func Train(cfg DetectorConfig, normal []flow.Record) (*Detector, error) {
	cfg = cfg.withDefaults()
	enc, err := NewEncoder(cfg.Params.D, cfg.Ranges)
	if err != nil {
		return nil, err
	}
	if len(normal) == 0 {
		return nil, fmt.Errorf("nns: empty normal training cluster")
	}
	parts := make(map[flow.Subcluster][]Levels)
	for _, r := range normal {
		c := flow.Classify(r.Key)
		if cfg.DisablePartition {
			c = flow.ClusterOther // everything lands in one cluster
		}
		parts[c] = append(parts[c], enc.EncodeRecord(r))
	}
	d := &Detector{cfg: cfg, enc: enc, clusters: make(map[flow.Subcluster]*clusterState, len(parts)), metrics: &Metrics{}}
	for c, vecs := range parts {
		if len(vecs) < cfg.MinClusterSize {
			continue
		}
		params := cfg.Params
		params.Seed = cfg.Params.Seed + int64(c) // distinct test vectors per subcluster
		// Hold out every fifth flow for threshold calibration: thresholds
		// must reflect the distances the approximate search produces for
		// unseen benign flows, so the calibration set cannot be indexed.
		var build, calib []Levels
		for i, v := range vecs {
			if i%5 == 4 && len(vecs) >= 2*cfg.MinClusterSize {
				calib = append(calib, v)
			} else {
				build = append(build, v)
			}
		}
		st, err := Build(params, build)
		if err != nil {
			return nil, fmt.Errorf("nns: build %v structure: %w", c, err)
		}
		d.clusters[c] = &clusterState{
			structure: st,
			threshold: calibrate(st, build, calib, cfg),
		}
	}
	if len(d.clusters) == 0 {
		return nil, fmt.Errorf("nns: no subcluster reached %d training flows", cfg.MinClusterSize)
	}
	return d, nil
}

// calibrate computes the per-cluster Hamming threshold: the configured
// quantile of the approximate-search distances measured on the held-out
// calibration flows, inflated by the slack factor. Using the same search
// that assessment uses keeps the threshold calibrated against the
// structure's actual approximation error; when no calibration split exists
// (tiny clusters) it falls back to exact nearest-neighbor distances within
// the build set.
func calibrate(st *Structure, build, calib []Levels, cfg DetectorConfig) int {
	var dists []int
	if len(calib) > 0 {
		n := len(calib)
		if n > cfg.CalibrationSample {
			n = cfg.CalibrationSample
		}
		for _, v := range calib[:n] {
			if res, ok := st.Search(v); ok {
				dists = append(dists, res.Distance)
			}
		}
	}
	if len(dists) == 0 {
		n := len(build)
		if n > cfg.CalibrationSample {
			n = cfg.CalibrationSample
		}
		if n < 2 {
			return cfg.Params.D / 10
		}
		for i := 0; i < n; i++ {
			best := -1
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if h := Distance(build[i], build[j]); best < 0 || h < best {
					best = h
				}
			}
			dists = append(dists, best)
		}
	}
	sort.Ints(dists)
	idx := int(cfg.ThresholdQuantile*float64(len(dists))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(dists) {
		idx = len(dists) - 1
	}
	return int(float64(dists[idx]) * cfg.ThresholdSlack)
}

// Assess classifies one flow against its subcluster's structure. Flows in
// subclusters with no trained structure are anomalous by definition: the
// detector cannot vouch for a service it never saw.
func (d *Detector) Assess(r flow.Record) Assessment {
	a := d.assess(r)
	m := d.metrics
	m.Queries.Inc()
	if a.Anomalous {
		m.Anomalies.Inc()
	}
	return a
}

func (d *Detector) assess(r flow.Record) Assessment {
	c := flow.Classify(r.Key)
	if d.cfg.DisablePartition {
		c = flow.ClusterOther
	}
	st, ok := d.clusters[c]
	if !ok {
		return Assessment{Anomalous: true, Cluster: c, Distance: -1, Threshold: -1}
	}
	res, found := st.structure.Search(d.enc.EncodeRecord(r))
	if !found {
		return Assessment{Anomalous: true, Cluster: c, Distance: -1, Threshold: st.threshold}
	}
	return Assessment{
		Anomalous: res.Distance > st.threshold,
		Cluster:   c,
		Distance:  res.Distance,
		Threshold: st.threshold,
	}
}

// Threshold returns the calibrated threshold for a subcluster.
func (d *Detector) Threshold(c flow.Subcluster) (int, bool) {
	st, ok := d.clusters[c]
	if !ok {
		return 0, false
	}
	return st.threshold, true
}

// Clusters returns the subclusters with trained structures, in stable
// order.
func (d *Detector) Clusters() []flow.Subcluster {
	var out []flow.Subcluster
	for _, c := range flow.Subclusters() {
		if _, ok := d.clusters[c]; ok {
			out = append(out, c)
		}
	}
	return out
}
