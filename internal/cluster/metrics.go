package cluster

import (
	"infilter/internal/telemetry"
)

// Metrics are the cluster runtime series. Directions are from this
// node's point of view: "send" is the per-peer replication loops pushing
// local snapshots out, "recv" is inbound snapshots folded into the local
// store. Replication never touches the verdict hot path, so all of these
// move on replication cadence, not flow cadence.
type Metrics struct {
	// SendRounds / RecvRounds count completed replication rounds (one
	// snapshot shipped and acked, resp. one snapshot received and merged).
	SendRounds *telemetry.Counter
	RecvRounds *telemetry.Counter
	// SendErrors / RecvErrors count failed rounds (dial, frame or
	// handshake errors; the sender retries with backoff).
	SendErrors *telemetry.Counter
	RecvErrors *telemetry.Counter
	// SendBytes / RecvBytes count snapshot payload bytes over the wire.
	SendBytes *telemetry.Counter
	RecvBytes *telemetry.Counter
	// MergeLatency observes the cost of folding one received snapshot
	// into the store (decode + MergeSet + snapshot publication).
	MergeLatency *telemetry.Histogram
	// MergedAdded / MergedRehomed count prefixes the receive side learned
	// from peers, split by whether they were new or re-homed conflicts.
	MergedAdded   *telemetry.Counter
	MergedRehomed *telemetry.Counter
	// RingOwned is how many of the daemon's peer ASes this node owns on
	// the ring (set once at startup; membership is static per process).
	RingOwned *telemetry.Gauge

	peerUp map[string]*telemetry.Gauge
}

// NewMetrics registers the cluster series on r, with one peer-up gauge
// per configured peer address.
func NewMetrics(r *telemetry.Registry, peers []string) *Metrics {
	m := &Metrics{
		SendRounds: r.Counter("infilter_cluster_replication_rounds_total",
			"Completed replication rounds, by direction.",
			telemetry.Label{Key: "direction", Value: "send"}),
		RecvRounds: r.Counter("infilter_cluster_replication_rounds_total",
			"Completed replication rounds, by direction.",
			telemetry.Label{Key: "direction", Value: "recv"}),
		SendErrors: r.Counter("infilter_cluster_replication_errors_total",
			"Failed replication rounds, by direction.",
			telemetry.Label{Key: "direction", Value: "send"}),
		RecvErrors: r.Counter("infilter_cluster_replication_errors_total",
			"Failed replication rounds, by direction.",
			telemetry.Label{Key: "direction", Value: "recv"}),
		SendBytes: r.Counter("infilter_cluster_replication_bytes_total",
			"Snapshot payload bytes over the replication wire, by direction.",
			telemetry.Label{Key: "direction", Value: "send"}),
		RecvBytes: r.Counter("infilter_cluster_replication_bytes_total",
			"Snapshot payload bytes over the replication wire, by direction.",
			telemetry.Label{Key: "direction", Value: "recv"}),
		MergeLatency: r.Histogram("infilter_cluster_merge_seconds",
			"Latency of folding one received snapshot into the EIA store.",
			telemetry.LatencyBuckets(), telemetry.UnitSeconds),
		MergedAdded: r.Counter("infilter_cluster_merged_prefixes_total",
			"EIA prefixes learned from peer snapshots, by merge outcome.",
			telemetry.Label{Key: "kind", Value: "added"}),
		MergedRehomed: r.Counter("infilter_cluster_merged_prefixes_total",
			"EIA prefixes learned from peer snapshots, by merge outcome.",
			telemetry.Label{Key: "kind", Value: "rehomed"}),
		RingOwned: r.Gauge("infilter_cluster_ring_owned",
			"Peer ASes whose EIA training this node owns on the ring."),
		peerUp: make(map[string]*telemetry.Gauge, len(peers)),
	}
	for _, p := range peers {
		m.peerUp[p] = r.Gauge("infilter_cluster_peer_up",
			"1 while the last replication round to the peer succeeded, 0 after a failure.",
			telemetry.Label{Key: "peer", Value: p})
	}
	return m
}

// setPeerUp flips the peer's up gauge.
func (m *Metrics) setPeerUp(peer string, up bool) {
	g, ok := m.peerUp[peer]
	if !ok {
		return
	}
	if up {
		g.Set(1)
	} else {
		g.Set(0)
	}
}
