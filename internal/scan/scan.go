// Package scan implements the Scan Analysis stage of Enhanced InFilter
// (paper §4.1): suspect-flow counting that recognizes network scans (one
// destination port across many distinct hosts, e.g. Slammer) and host
// scans (many destination ports on one host, e.g. nmap Idlescan). It
// sits between EIA analysis and NNS search.
//
// Counting is exact and windowed: per-port and per-host registers keep
// the distinct targets seen in the current and the previous generation.
// Every Config.BufferSize suspects the registers rotate one generation,
// which forgets old observations the way the paper's 200-entry buffer
// does, while a scan burst that straddles a rotation is still counted
// whole. A generation holds at most BufferSize suspects, so the live
// sets of a table hold at most 2 × BufferSize keys. The reference
// engine in the internal/analysis tests counts with exact unwindowed
// sets and holds the analyzer to them while no shard passes one window.
//
// The package also hosts TTLProfile (ttl.go), the per-source
// expected-TTL second-opinion detector.
package scan

import (
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

// Metrics count scan-threshold trips and register activity. One Metrics
// may be shared by many analyzers (analysis.ParallelEngine gives each
// shard its own Analyzer but one shared Metrics): increments are single
// atomics. The zero value is an analyzer's uninstrumented default: its
// nil counters discard counts.
type Metrics struct {
	NetworkScans *telemetry.Counter
	HostScans    *telemetry.Counter
	// SketchDecays counts register-generation rotations, one per
	// BufferSize suspects.
	SketchDecays *telemetry.Counter
	// SketchOverflows counts suspect flows that could not open a new
	// register because a register table was at MaxRegisters and held no
	// stale entries to reclaim.
	SketchOverflows *telemetry.Counter
}

// NewMetrics registers the scan counters on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		NetworkScans:    r.Counter("infilter_scan_network_trips_total", "Suspect flows that tripped the network-scan threshold."),
		HostScans:       r.Counter("infilter_scan_host_trips_total", "Suspect flows that tripped the host-scan threshold."),
		SketchDecays:    r.Counter("infilter_sketch_decays_total", "Scan-register generation rotations."),
		SketchOverflows: r.Counter("infilter_sketch_register_overflows_total", "Suspect flows dropped from scan counting because a register table was full."),
	}
}

// Config tunes the analyzer. Zero values take the paper's settings.
type Config struct {
	// BufferSize is the counting window: after this many probe-like
	// suspects every register rotates one generation, and a register idle
	// for two generations is dropped, so distinct counts cover the last
	// one-to-two windows of suspects. Zero defaults to 200, the buffer
	// size used in the paper's experiments.
	BufferSize int
	// NetworkScanThreshold flags a network scan when one destination port
	// is targeted on at least this many distinct hosts. Zero defaults
	// to 10.
	NetworkScanThreshold int
	// HostScanThreshold flags a host scan when one host is targeted on at
	// least this many distinct ports. Zero defaults to 10.
	HostScanThreshold int
	// MaxRegisters bounds each register table (per-port and per-host).
	// Zero defaults to 65536.
	MaxRegisters int
}

// Defaults for Config.
const (
	DefaultBufferSize           = 200
	DefaultNetworkScanThreshold = 10
	DefaultHostScanThreshold    = 10
	DefaultMaxRegisters         = 65536
)

func (c Config) withDefaults() Config {
	if c.BufferSize <= 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.NetworkScanThreshold <= 0 {
		c.NetworkScanThreshold = DefaultNetworkScanThreshold
	}
	if c.HostScanThreshold <= 0 {
		c.HostScanThreshold = DefaultHostScanThreshold
	}
	if c.MaxRegisters <= 0 {
		c.MaxRegisters = DefaultMaxRegisters
	}
	return c
}

// Result reports what the analyzer concluded about one suspect flow.
type Result struct {
	// Buffered is set when the flow was probe-like and entered the
	// counting window.
	Buffered bool
	// NetworkScan is set when the flow's destination port crossed the
	// distinct-host threshold.
	NetworkScan bool
	// HostScan is set when the flow's destination host crossed the
	// distinct-port threshold.
	HostScan bool
}

// Attack reports whether either scan counter fired.
func (r Result) Attack() bool { return r.NetworkScan || r.HostScan }

// Analyzer runs scan analysis over a suspect stream. Not safe for
// concurrent use: callers that process flows in parallel give each
// worker its own Analyzer, as analysis.ParallelEngine does with one per
// shard. A shard's analyzer sees only the suspects of the peers routed
// to it, so a scan whose probes enter through peers on different shards
// is split across analyzers and can stay under the thresholds on every
// one (analysis.TestScanEvidenceIsPerShard pins this).
type Analyzer struct {
	cfg     Config
	metrics *Metrics

	portRegs regTable[uint16]
	hostRegs regTable[netaddr.Addr]
	gen      uint64
	// sinceRotate counts buffered suspects in the current generation.
	sinceRotate int
}

// New returns an empty analyzer.
func New(cfg Config) *Analyzer {
	return &Analyzer{
		cfg:      cfg.withDefaults(),
		metrics:  &Metrics{},
		portRegs: make(regTable[uint16]),
		hostRegs: make(regTable[netaddr.Addr]),
	}
}

// probeLike reports whether a flow has the shape of a scan probe: one or
// two packets (a single worm datagram, a bare SYN, a fragment pair).
// Established multi-packet flows never look like probes and are kept out
// of the counting window so benign suspects cannot saturate the counters.
func probeLike(r flow.Record) bool {
	return r.Packets <= 2
}

// Add considers one suspect flow; probe-like flows enter the counting
// window and the result reports whether a scan threshold fired.
func (a *Analyzer) Add(rec flow.Record) Result {
	if !probeLike(rec) {
		return Result{}
	}
	res := a.addSketch(rec)
	if res.NetworkScan {
		a.metrics.NetworkScans.Inc()
	}
	if res.HostScan {
		a.metrics.HostScans.Inc()
	}
	return res
}

// SetMetrics installs trip counters (nil restores the uninstrumented
// default). Call it before the analyzer's owner starts feeding it flows.
func (a *Analyzer) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	a.metrics = m
}

// HostsOnPort exposes the windowed distinct-host count for a
// destination port.
func (a *Analyzer) HostsOnPort(port uint16) int {
	return a.portRegs[port].count(a.gen)
}

// PortsOnHost exposes the windowed distinct-port count for a
// destination host.
func (a *Analyzer) PortsOnHost(host netaddr.Addr) int {
	return a.hostRegs[host].count(a.gen)
}

// sketchKey folds an address into the 64-bit key space of the port
// registers. A v4 address keys exactly as the pre-dual-stack stage did;
// v6 mixes both words (a collision can only merge two hosts into one
// count).
func sketchKey(src netaddr.Addr) uint64 {
	if v4, ok := src.V4(); ok {
		return uint64(v4)
	}
	hi, lo := src.Uint64Pair()
	return hi*0x9e3779b97f4a7c15 ^ lo
}
