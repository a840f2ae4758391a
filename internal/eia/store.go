package eia

import (
	"sync"
	"sync/atomic"

	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

// Metrics are the EIA runtime counters: consumed verdicts (settled by the
// batch loop through AddVerdictCounts) split into hits (expected
// ingress) and misses (wrong peer or unknown source), plus completed
// promotions. The hit and miss series carry a `family` label
// ("4" or "6") keyed on the checked source address, so a dual-stack
// deployment can see per-family verdict rates; summing over the label
// recovers the pre-split totals. All counters are shared across every
// shard that uses the store — increments are single atomics, so sharing
// adds no lock.
//
// The Bloom* series observes the probabilistic fast tier (when enabled):
// fastpath counts checks the filters resolved without a trie walk,
// fallbacks counts checks that had to confirm exactly, and false
// positives counts fallback walks that ended Unknown anyway — i.e. walks
// a perfect filter would have skipped, so fp/fallbacks is the observed
// false-positive rate. Bypassed counts batch checks that skipped the
// probe entirely after a run of consecutive fallbacks told the batch it
// was carrying expected traffic the tier cannot help with. The gauges
// are refreshed by the writer at each snapshot publication: fill
// permille of the global filter and total bits across every filter in
// the tier.
type Metrics struct {
	Hits       telemetry.FamilyCounter
	Misses     telemetry.FamilyCounter
	Promotions *telemetry.Counter

	BloomFastpath       *telemetry.Counter
	BloomFallbacks      *telemetry.Counter
	BloomFalsePositives *telemetry.Counter
	BloomBypassed       *telemetry.Counter
	BloomFillPermille   *telemetry.Gauge
	BloomBits           *telemetry.Gauge
}

// NewMetrics registers the EIA counters on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Hits:       r.FamilyCounter("infilter_eia_hits_total", "EIA checks whose source matched the observed peer's set."),
		Misses:     r.FamilyCounter("infilter_eia_misses_total", "EIA checks flagged suspect (wrong peer or unknown source)."),
		Promotions: r.Counter("infilter_eia_promotions_total", "Vouched sources promoted into a peer's EIA set."),

		BloomFastpath:       r.Counter("infilter_eia_bloom_fastpath_total", "EIA checks resolved by the Bloom tier without a trie walk (provably unknown sources)."),
		BloomFallbacks:      r.Counter("infilter_eia_bloom_fallbacks_total", "EIA checks the Bloom tier deferred to an exact trie walk."),
		BloomFalsePositives: r.Counter("infilter_eia_bloom_false_positives_total", "Bloom-tier fallback walks that ended Unknown (filter false positives)."),
		BloomBypassed:       r.Counter("infilter_eia_bloom_bypassed_total", "Batch checks that skipped the Bloom probe after consecutive in-batch fallbacks."),
		BloomFillPermille:   r.Gauge("infilter_eia_bloom_fill_permille", "Set-bit permille of the global Bloom filter, refreshed at snapshot publication."),
		BloomBits:           r.Gauge("infilter_eia_bloom_bits", "Total bits across all Bloom-tier filters, refreshed at snapshot publication."),
	}
}

// Store is the shared EIA state for concurrent analysis shards: it
// publishes one immutable Set at a time through an atomic pointer. The
// hot path — CheckBatch, one longest-prefix lookup per flow (paper
// §5.2) — is a pure lock-free read: it loads the published Set and walks
// its trie, acquiring no mutex and issuing no writes beyond its
// Bloom-tier counters.
//
// There is one writer side, guarded by one mutex: promotions of
// repeatedly-vouched sources (RecordLegal) and replicated snapshots
// folded in by cluster mode (MergeSet). The writer builds a successor
// Set — path-copying only the trie nodes it touches, sharing every
// unchanged subtree, and deriving its Bloom tier — and publishes it with
// one atomic pointer swap, so a batch lands whole.
//
// Readers therefore never block and never retry; the price is a staleness
// window: a Check racing a promotion may classify against the pre-swap
// Set. That is exactly the tolerance the paper's promotion semantics
// already grant — a source being vouched was, by definition, still
// suspect a moment earlier, so one extra WrongPeer/Unknown verdict during
// the swap is indistinguishable from the flow having arrived slightly
// sooner.
//
// Store keeps only check, vouch and merge; everything else reads the
// Set that Snapshot returns. All methods are safe for concurrent use.
type Store struct {
	cfg     Config
	snap    atomic.Pointer[Set]
	metrics *Metrics

	mu      sync.Mutex // writer side: pending counters + publication
	pending map[pendingKey]int
}

// pendingKey identifies one promotion candidate: a source subnet vouched
// at a peer it is not (yet) expected at.
type pendingKey struct {
	peer PeerAS
	pfx  netaddr.Prefix
}

// NewStore publishes set's contents as the first snapshot and shares set
// (AddPrefix on it panics from then on); a nil set gets a fresh empty Set
// with the default Config.
func NewStore(set *Set) *Store {
	if set == nil {
		set = NewSet(Config{})
	}
	set.share()
	st := &Store{
		cfg:     set.cfg,
		metrics: &Metrics{}, // unregistered: nil counters discard counts
		pending: make(map[pendingKey]int),
	}
	// The tier is always rebuilt from the adopted trie, never carried
	// over: a Set restored from a checkpoint (which serializes only
	// prefixes) gets correct filters here for free on warm restart. The
	// published Set is a copy, so adopting another store's snapshot
	// leaves that snapshot's tier alone.
	st.snap.Store(&Set{
		cfg:     set.cfg,
		index:   set.index,
		perPeer: set.perPeer,
		tier:    buildBloomTier(set.index, set.perPeer, set.cfg),
		shared:  true,
	})
	return st
}

// Snapshot returns the published Set: one atomic load, no lock. It is
// shared and immutable; later publications swap in a successor and leave
// it as it was. Serialization (WriteCheckpoint), introspection
// (Len, Peers) and cluster replication all read it.
func (c *Store) Snapshot() *Set { return c.snap.Load() }

// SetMetrics installs runtime counters (nil restores the unregistered
// default, which discards them). Like the alert sink of the engines, it
// must be called before the store is shared with concurrent checkers.
func (c *Store) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	c.metrics = m
	m.setTier(c.snap.Load().tier)
}

// setTier refreshes the Bloom-tier gauges from t (nil when the tier is
// disabled, which leaves them alone).
func (m *Metrics) setTier(t *bloomTier) {
	if t != nil {
		m.BloomFillPermille.Set(int64(t.global.FillRatio() * 1000))
		m.BloomBits.Set(t.totalBits())
	}
}

// Check classifies one source address observed at peer, lock-free: one
// atomic snapshot load, then — when the Bloom tier is enabled — a handful
// of cache-line probes that either prove the source unknown outright or
// defer to the exact longest-prefix walk over the immutable trie. It is
// the one-address form of CheckBatch, which the verdict path uses, and
// like it leaves the hit/miss and Bloom counters alone.
func (c *Store) Check(peer PeerAS, src netaddr.Addr) Verdict {
	snap := c.snap.Load()
	if t := snap.tier; t != nil {
		if v, ok := t.probe(t.peerFilter(peer), src); ok {
			return v
		}
	}
	return peer.classify(snap.index.Lookup(src))
}

// CheckBatch classifies a batch of sources observed at one peer — the
// only unit of work between the collector and a verdict, since a local
// export port maps to one peering link — against a single published
// snapshot: one atomic load amortized over the whole batch, then one
// longest-prefix walk per entry over the same immutable trie. The two
// slices must have equal length; out[i] receives the verdict for
// (peer, srcs[i]).
//
// CheckBatch does NOT fold outcomes into the hit/miss counters: the batch
// loop refreshes the still-unconsumed tail of a batch
// after a mid-batch promotion swaps in a new snapshot, and counting at
// check time would then count those entries twice. Consumers count each
// verdict exactly once, at consumption time, via AddVerdictCounts.
//
// When the Bloom tier is enabled, batch checks adapt to the batch's
// traffic mix: after bloomBypassAfter consecutive probes deferred to the
// exact walk, the rest of the batch skips the probe (see the constant's
// doc). Verdicts are identical with or without the bypass.
func (c *Store) CheckBatch(peer PeerAS, srcs []netaddr.Addr, out []Verdict) {
	if len(srcs) != len(out) {
		panic("eia: CheckBatch slice lengths differ")
	}
	snap := c.snap.Load()
	index := snap.index
	if t := snap.tier; t != nil {
		hoisted := t.peerFilter(peer) // one lookup covers the batch
		var fast, fall, fp int64
		i, miss := 0, 0
		for ; i < len(srcs) && miss < bloomBypassAfter; i++ {
			src := srcs[i]
			if v, ok := t.probe(hoisted, src); ok {
				out[i] = v
				fast++
				miss = 0
				continue
			}
			fall++
			miss++
			v := peer.classify(index.Lookup(src))
			if v == Unknown {
				fp++
			}
			out[i] = v
		}
		// Bypass: the remainder runs the same lean walk-only loop as the
		// tier-free path — segmenting (rather than branching per record)
		// keeps the inlined trie walk's code tight for the common all-
		// expected batch.
		c.addBloomCounts(fast, fall, fp, int64(len(srcs)-i))
		srcs, out = srcs[i:], out[i:]
	}
	for i, src := range srcs {
		out[i] = peer.classify(index.Lookup(src))
	}
}

// bloomBypassAfter is the adaptive-bypass threshold for batch checks:
// after this many consecutive probes deferred to the exact walk, the
// rest of the batch skips the probe and goes straight to the trie. A
// fallback streak means the batch is carrying expected traffic — the one
// case the tier cannot shortcut, where probing is pure tax — while a
// spoofed-flood batch resolves on the fast path and resets the streak
// immediately. The bypass affects cost only, never verdicts: the walk it
// falls through to is the same exact walk a fallback performs. State is
// per-call, so every batch starts probing again.
const bloomBypassAfter = 8

// addBloomCounts settles a batch's Bloom-tier diagnostics in at most
// four atomic adds (telemetry.Counter.Add ignores non-positive n).
func (c *Store) addBloomCounts(fast, fall, fp, bypassed int64) {
	m := c.metrics
	m.BloomFastpath.Add(fast)
	m.BloomFallbacks.Add(fall)
	m.BloomFalsePositives.Add(fp)
	m.BloomBypassed.Add(bypassed)
}

// AddVerdictCounts folds a batch's consumed verdicts for one address
// family into the hit/miss counters in two atomic adds: the batch loop
// tallies hits (Match) and misses (everything else) per family locally
// while consuming and settles once per family per batch instead of once
// per record.
func (c *Store) AddVerdictCounts(fam netaddr.Family, hits, misses int64) {
	v6 := fam == netaddr.FamilyV6
	c.metrics.Hits.Pick(v6).Add(hits)
	c.metrics.Misses.Pick(v6).Add(misses)
}

// publishLocked swaps in a successor of the published Set with assign
// applied on top (see Set.with, which re-homes a prefix another peer
// holds). Callers hold c.mu. The whole batch lands in one pointer swap;
// a batch that changes nothing publishes nothing.
//
// When the Bloom tier is enabled, the successor tier is derived here as
// well — normally by cloning only the filters the applied assignments
// touch, or by a full rebuild from the new trie when a filter outgrows
// its sized capacity — and the tier gauges are refreshed. A re-homed
// prefix leaves its key in the old peer's filter; that stale key can
// only cause a false positive (an extra exact walk), never a wrong
// verdict, and the next overflow-triggered rebuild sheds it.
func (c *Store) publishLocked(assign []assignment) {
	cur := c.snap.Load()
	next, applied := cur.with(assign)
	if len(applied) == 0 {
		return
	}
	if cur.tier != nil {
		next.tier = cur.tier.withAssignments(applied, next.index, next.perPeer, c.cfg)
	}
	next.share()
	c.snap.Store(next)
	c.metrics.setTier(next.tier)
}

// RecordLegal notes a vouched source and reports whether it was promoted
// into peer's EIA set on this call (§5.2(a)). Promotion publishes a new
// snapshot; concurrent Checks keep reading the previous one until the
// swap lands.
func (c *Store) RecordLegal(peer PeerAS, src netaddr.Addr) bool {
	pfx := netaddr.MustPrefix(src, c.cfg.promoteBits(src.Family()))
	k := pendingKey{peer: peer, pfx: pfx}
	c.mu.Lock()
	c.pending[k]++
	promoted := c.pending[k] >= c.cfg.PromoteThreshold
	if promoted {
		delete(c.pending, k)
		c.publishLocked([]assignment{{peer: peer, pfx: pfx}})
	}
	c.mu.Unlock()
	if promoted {
		c.metrics.Promotions.Inc()
	}
	return promoted
}

// MergeSet folds a remote EIA set into the store with the semantics of
// Merge(local, remote): prefixes absent locally are added, and a prefix
// present in both re-homes only when the remote peer AS is numerically
// lower (the deterministic conflict rule — see Merge). The whole merge
// lands as one snapshot swap through the normal publication path, so the
// Bloom tier and every concurrent Check stay consistent: readers observe
// either the pre-merge or the post-merge snapshot, never a partial
// merge. It reports how many prefixes were added and how many re-homed.
//
// This is the receive side of cluster replication: the remote set is a
// freshly decoded checkpoint, which MergeSet only reads, and folding it
// in never blocks the Check hot path (checks are lock-free snapshot
// reads; only other writers briefly serialize behind the merge).
func (c *Store) MergeSet(remote *Set) (added, rehomed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	assign, rehomed := mergeRows(c.snap.Load(), remote)
	c.publishLocked(assign)
	return len(assign) - rehomed, rehomed
}
