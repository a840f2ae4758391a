// Package telemetry is the dependency-free runtime metrics layer: atomic
// counters and gauges, fixed-bucket latency histograms with lock-free
// hot-path recording, and a Prometheus text-format encoder. It is also
// the only place the analysis engine counts: analysis.Stats is a read of
// the engine's counters, not a second tally.
//
// Hot-path writers touch only atomics (a counter add or a histogram
// bucket add — never a mutex), and aggregation happens on the cold read
// path: per-shard counters are summed and per-shard histogram Snapshots
// merged in O(shards) at scrape time. Registration is the only locked
// operation and happens once at startup.
//
// All recording methods are nil-receiver safe. A component keeps a
// metrics struct that is never nil; its zero value, whose fields are nil
// counters, is the uninstrumented default and discards every count, so
// instrumentation needs no "metrics enabled" branch.
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards increments.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns an unregistered counter (see Registry.Counter for
// registered ones).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; negative n is ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge discards writes.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
