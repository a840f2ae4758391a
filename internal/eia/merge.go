package eia

import (
	"infilter/internal/netaddr"
)

// Merge returns the union of two EIA sets as a new Set, leaving both
// inputs untouched. It is the convergence operator of cluster mode: each
// node folds the snapshots its peers replicate into its own state, and
// because Merge is commutative, associative and idempotent, every node
// that has seen every snapshot converges to the same EIA state no matter
// the delivery order or how often a snapshot is re-delivered.
//
// A prefix present in exactly one input keeps its peer. A prefix present
// in both with different peers is a conflict — two observation points
// disagree about which ingress carries the subnet — and resolves
// deterministically to the numerically lowest peer AS. Lowest-peer-AS is
// the tie-break (rather than, say, most-recently-written) because it is
// the only order-free rule available: the checkpoint format carries no
// per-prefix hit counts or timestamps to arbitrate with, and any rule
// that depends on merge order would break the convergence guarantee
// above.
//
// Merge is a pure function on copy-on-write tries: the larger input's
// trie is reused as the base and only the overlay's differing paths are
// path-copied (InsertPersistent), so merging a mostly-identical
// replicated snapshot costs little and shares almost every subtree with
// the base input. The returned Set therefore shares structure with its
// inputs — like a Set adopted by NewStore, the inputs must not be
// mutated afterwards (decode a fresh Set per replication round, as the
// cluster receiver does).
//
// The result inherits a's Config.
func Merge(a, b *Set) *Set {
	base, overlay := a, b
	if base.index.Len() < overlay.index.Len() {
		base, overlay = overlay, base
	}
	index := base.index
	per := clonePeerCounts(base.perPeer)
	overlay.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
		if prev, ok := index.Get(p); ok {
			if prev <= peer {
				return true // base already holds the winner
			}
			per[prev]--
			per[peer]++
		} else {
			per[peer]++
		}
		index = index.InsertPersistent(p, peer)
		return true
	})
	return &Set{cfg: a.cfg, index: index, perPeer: per}
}
