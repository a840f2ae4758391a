package main

// This file is the benchmark's frozen definition: the five workloads with
// their counts and rates, the end-to-end metrics with their bounds, and the
// per-layer metric names. BENCHMARK.json repeats the names, units, directions
// and bounds for the driver; spec_test.go keeps the two in step. The numbers
// BENCHMARK.json has no key for (seed, counts, rates) live only here.

const (
	// defaultSeed and defaultSeconds are what a bare run uses; the driver
	// passes its own --seed and BENCHMARK.json's run_seconds.
	defaultSeed    = 1
	defaultSeconds = 10

	// A run's --seconds splits into a closed-loop saturate phase sized to
	// last about saturateShare of it at this commit's throughput, and an
	// open-loop paced phase lasting exactly pacedShare of it. The rest is
	// slack for the two drains.
	saturateShare = 0.5
	pacedShare    = 0.4

	// setupRepeats is how many times a run starts the daemon; setup_s is
	// the median. The last start serves the measured phases.
	setupRepeats = 5
)

// wire is the export format a workload's datagrams use.
type wire int

const (
	wireV5 wire = iota
	wireIPFIX
)

// workloadSpec is one traffic mix. SaturateRate and PacedRate were measured
// once at the commit that added the benchmark (see README.md, "Frozen counts
// and rates") and are never re-derived at run time: the saturate phase sends
// SaturateRate × seconds × saturateShare records however long that takes,
// and the paced phase offers PacedRate records per second.
type workloadSpec struct {
	Name string
	Why  string
	Wire wire
	// Dual alternates v4 and v6 datagrams in the benign pool.
	Dual bool
	// SaturateRate is this commit's saturate throughput, records/s,
	// rounded to two digits. PacedRate is about half of it on the suspect
	// workloads and a quarter on the benign ones, where the generator's
	// own send path is the larger part of the saturate rate and half of
	// it would leave the open loop no slack to be on time.
	SaturateRate float64
	PacedRate    float64
	// SuspectShare is the share of measured records that fail the EIA
	// check by construction; TTLSpoofShare the share that match it but
	// arrive 15 hops off.
	SuspectShare  float64
	TTLSpoofShare float64
	Mix           mix
}

// mix selects what the suspects of a workload are.
type mix int

const (
	mixBenign      mix = iota // none in saturate; canaries in paced
	mixScanStorm              // Slammer network scans + Idlescan host scans
	mixSpoofFlood             // SYN flood from spoofed sources + ttl-spoof
	mixRouteChange            // benign-shaped flows at the wrong live peer
)

var workloads = []workloadSpec{
	{
		Name: "benign-v5", Wire: wireV5, Mix: mixBenign,
		Why:          "NetFlow v5, all Match, no TTL: bare ingest, fixed-format decode and an EIA hit; per-record overhead undiluted",
		SaturateRate: 7_900_000, PacedRate: 2_000_000,
	},
	{
		Name: "benign-ipfix-dual", Wire: wireIPFIX, Dual: true, Mix: mixBenign,
		Why:          "IPFIX v4/v6 alternating, all Match, TTL on the wire: template decode, 128-bit walk, TTL check on the Match path",
		SaturateRate: 2_600_000, PacedRate: 650_000,
	},
	{
		Name: "scan-storm", Wire: wireIPFIX, Mix: mixScanStorm,
		Why:          "30% spoofed Slammer and Idlescan probes that end at scan analysis: Bloom fast path, sketch registers, alerts; NNS idle",
		SaturateRate: 140_000, PacedRate: 70_000, SuspectShare: 0.30,
	},
	{
		Name: "spoof-flood", Wire: wireIPFIX, Mix: mixSpoofFlood,
		Why:          "30% spoofed SYN flood that passes scan and ends at NNS, plus 3% in-prefix ttl-spoof: the stream InFilter exists for",
		SaturateRate: 96_000, PacedRate: 48_000, SuspectShare: 0.30, TTLSpoofShare: 0.03,
	},
	{
		Name: "route-change", Wire: wireIPFIX, Mix: mixRouteChange,
		Why:          "benign flows from moved /24s get vouched and promoted: NNS without alerts plus the EIA write side (COW publish, Bloom upkeep)",
		SaturateRate: 72_000, PacedRate: 36_000,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// saturateRecords and pacedRecords turn the frozen rates into the record
// counts of one run. Both are even so the two live peers split them.
func (w *workloadSpec) saturateRecords(seconds float64) int {
	return evenCount(w.SaturateRate * seconds * saturateShare)
}

func (w *workloadSpec) pacedRecords(seconds float64) int {
	return evenCount(w.PacedRate * seconds * pacedShare)
}

func evenCount(x float64) int {
	n := int(x)
	return n - n%2
}

// metricDef is one reported metric. Bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the daemon sees. failed_ratio is not
// among them because it is 0 on a passing run and the driver's contract
// wants metrics that are never 0: it is the run's "failed"/"attempted"
// pair, and a per-layer metric (checks.failed_ratio).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.20},
	{"alert_latency_p50_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
}

// perLayer lists every layer metric a traced run prints, in print order.
// Sources: [P] traced probe, [S] /metrics delta over saturate, [K] kernel
// or /proc, [G] the generator, [C] the alert consumer.
var perLayer = []metricDef{
	{"flowtools.ingest_ns_per_record", "ns", "lower", 0},
	{"flowtools.read_ns_per_record", "ns", "lower", 0},
	{"flowtools.batch_records_mean", "count", "higher", 0},
	{"flowtools.flush_timeout_share", "ratio", "lower", 0},
	{"flowtools.socket_drops", "count", "lower", 0},
	{"flowtools.rxq_full_share", "ratio", "higher", 0},
	{"netflow.decode_ns_per_record", "ns", "lower", 0},
	{"netflow.decode_allocs_per_datagram", "count", "lower", 0},
	{"netflow.records_per_datagram", "count", "higher", 0},
	{"netflow.sequence_gaps", "count", "lower", 0},
	{"netflow.decode_errors", "count", "lower", 0},
	{"netflow.templates_learned", "count", "lower", 0},
	{"analysis.submit_ns_per_record", "ns", "lower", 0},
	{"analysis.overhead_ns_per_record", "ns", "lower", 0},
	{"analysis.queue_depth_max", "count", "lower", 0},
	{"analysis.enqueue_blocks", "count", "lower", 0},
	{"analysis.suspect_share", "ratio", "lower", 0},
	{"analysis.alerts_per_record", "ratio", "lower", 0},
	{"eia.check_ns", "ns", "lower", 0},
	{"eia.record_legal_ns", "ns", "lower", 0},
	{"eia.load_s", "s", "lower", 0},
	{"eia.bloom_fastpath_share", "ratio", "higher", 0},
	{"eia.hit_share", "ratio", "higher", 0},
	{"eia.promotions", "count", "higher", 0},
	{"scan.add_ns", "ns", "lower", 0},
	{"scan.add_allocs", "count", "lower", 0},
	{"scan.flag_share", "ratio", "higher", 0},
	{"scan.register_overflows", "count", "lower", 0},
	{"scan.decays", "count", "lower", 0},
	{"nns.assess_ns", "ns", "lower", 0},
	{"nns.assess_allocs", "count", "lower", 0},
	{"nns.encode_ns", "ns", "lower", 0},
	{"nns.train_s", "s", "lower", 0},
	{"nns.anomaly_share", "ratio", "higher", 0},
	{"ttl.observe_ns", "ns", "lower", 0},
	{"ttl.trip_share", "ratio", "lower", 0},
	{"ttl.sources", "count", "lower", 0},
	{"idmef.marshal_ns", "ns", "lower", 0},
	{"idmef.marshal_allocs", "count", "lower", 0},
	{"idmef.send_ns", "ns", "lower", 0},
	{"idmef.sent", "count", "higher", 0},
	{"idmef.send_errors", "count", "lower", 0},
	{"idmef.alerts_missing", "count", "lower", 0},
	{"idmef.alert_latency_p99_ms", "ms", "lower", 0},
	{"infilterd.cpu_us_per_record", "us", "lower", 0},
	{"infilterd.cpu_sys_share", "ratio", "lower", 0},
	{"infilterd.ctx_switches_per_krecord", "count", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.busy_share", "ratio", "lower", 0},
	{"probe.layers_sum_ns_per_record", "ns", "lower", 0},
	{"probe.coverage", "ratio", "higher", 0},
	{"probe.trace_overhead_ratio", "ratio", "lower", 0},
	{"checks.failed_ratio", "ratio", "lower", 0},
}
