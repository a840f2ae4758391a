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
// trie is reused as the base and only the overlay's winning rows are
// path-copied in, so merging a mostly-identical replicated snapshot
// costs little and shares almost every subtree with the base input.
// Because the result shares structure with its inputs, Merge shares all
// three: AddPrefix on any of them panics afterwards. Store.MergeSet
// applies the same rows to the published snapshot, so the merge the
// property tests check is the merge cluster mode runs.
//
// The result inherits a's Config.
func Merge(a, b *Set) *Set {
	base, overlay := a, b
	if base.Len() < overlay.Len() {
		base, overlay = overlay, base
	}
	assign, _ := mergeRows(base, overlay)
	out, _ := base.with(assign)
	out.cfg = a.cfg
	a.share()
	b.share()
	out.share()
	return out
}

// mergeRows is the one lowest-peer-wins walk: it returns the rows of
// overlay that Merge applies to base — each prefix base lacks, and each
// prefix base holds at a higher peer AS — and how many of them re-home
// a prefix base holds.
func mergeRows(base, overlay *Set) (assign []assignment, rehomed int) {
	overlay.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
		if prev, ok := base.index.Get(p); ok {
			if prev <= peer {
				return true // base already holds the winner
			}
			rehomed++
		}
		assign = append(assign, assignment{peer: peer, pfx: p})
		return true
	})
	return assign, rehomed
}
