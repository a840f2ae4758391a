// Package flowtools reimplements the slice of the flow-tools suite the
// InFilter prototype depends on (paper §5.1.2): flow-capture (a UDP
// receiver for NetFlow v5/v9/IPFIX export datagrams), a binary flow
// store, and flow-report (per-flow and grouped statistics, with ASCII
// import).
//
// Flow capture is one Collector type, built with New. Batch shape is
// configuration, not API: Config.MaxRecords chooses between batched
// delivery (the default, amortizing per-batch costs) and the classic
// per-datagram path (MaxRecords 1 delivers every datagram's records the
// moment they decode).
package flowtools

import (
	"errors"

	"infilter/internal/flow"
	"infilter/internal/telemetry"
)

// CollectorMetrics are the ingest-side runtime counters: datagrams
// received off the wire, flow records decoded from them, and datagrams
// dropped as undecodable. They are the collector's single source of
// truth — Stats derives from them. The record series carries a `family`
// label ("4" or "6") keyed on each record's source address, so a
// dual-stack deployment can see its ingest mix; summing over the label
// recovers the total.
type CollectorMetrics struct {
	Datagrams    *telemetry.Counter
	Records      telemetry.FamilyCounter
	DecodeErrors *telemetry.Counter
}

// NewCollectorMetrics registers the collector counters on r.
func NewCollectorMetrics(r *telemetry.Registry) *CollectorMetrics {
	return &CollectorMetrics{
		Datagrams:    r.Counter("infilter_collector_datagrams_total", "Flow-export datagrams received on the UDP listeners."),
		Records:      r.FamilyCounter("infilter_collector_records_total", "Flow records decoded and handed to the pipeline."),
		DecodeErrors: r.Counter("infilter_collector_decode_errors_total", "Datagrams dropped as malformed flow export."),
	}
}

// unregisteredCollectorMetrics backs a collector whose metrics were never
// wired to a registry, so Stats works regardless.
func unregisteredCollectorMetrics() *CollectorMetrics {
	return &CollectorMetrics{
		Datagrams:    telemetry.NewCounter(),
		Records:      telemetry.NewFamilyCounter(),
		DecodeErrors: telemetry.NewCounter(),
	}
}

// countRecords folds one decoded datagram's records into the family-
// split record counter: one pass to count v6 sources, two atomic adds.
func countRecords(fc telemetry.FamilyCounter, recs []flow.Record) {
	var v6 int64
	for i := range recs {
		if recs[i].Key.Src.Is6() {
			v6++
		}
	}
	fc.V4.Add(int64(len(recs)) - v6)
	fc.V6.Add(v6)
}

// ErrCollectorClosed is returned when Listen is called after Close.
var ErrCollectorClosed = errors.New("flowtools: collector closed")
