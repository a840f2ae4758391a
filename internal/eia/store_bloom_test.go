package eia

import (
	"bytes"
	"math/rand"
	"testing"

	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

// bloomCfg is the tier-enabled config the tests in this file exercise.
var bloomCfg = Config{BloomBitsPerEntry: 10}

// v4In returns a v4 host address inside a v4 prefix with low bits set.
func v4In(p netaddr.Prefix, low uint32) netaddr.Addr {
	v4, _ := p.Addr().V4()
	return (v4 | netaddr.IPv4(low)).Addr()
}

// trainRandom loads n random /24 prefixes spread over nPeers into a
// fresh Set built with cfg and returns it with the prefixes used.
func trainRandom(rng *rand.Rand, cfg Config, n, nPeers int) (*Set, []assignment) {
	set := NewSet(cfg)
	assigns := make([]assignment, 0, n)
	for i := 0; i < n; i++ {
		pfx := netaddr.PrefixFrom4(netaddr.IPv4(rng.Uint32()), 24)
		peer := PeerAS(rng.Intn(nPeers))
		set.AddPrefix(peer, pfx)
		assigns = append(assigns, assignment{peer: peer, pfx: pfx})
	}
	return set, assigns
}

// setOf builds a Set with cfg holding rows.
func setOf(cfg Config, rows []assignment) *Set {
	set := NewSet(cfg)
	for _, a := range rows {
		set.AddPrefix(a.peer, a.pfx)
	}
	return set
}

// TestBloomDisabledByDefault: the zero-value Config publishes snapshots
// with no tier, so library users opt in explicitly.
func TestBloomDisabledByDefault(t *testing.T) {
	st := NewStore(NewSet(Config{}))
	if st.snap.Load().tier != nil {
		t.Fatal("zero-value Config produced a Bloom tier")
	}
	st = NewStore(NewSet(bloomCfg))
	if st.snap.Load().tier == nil {
		t.Fatal("BloomBitsPerEntry > 0 did not produce a Bloom tier")
	}
}

// TestBloomVerdictEquivalence is the tier's contract: for a shared
// randomized mutation-and-check schedule — training, promotions via
// RecordLegal (some of them re-homes), batches published whole,
// probes mixing known sources, near-misses and random addresses — a
// tier-enabled store must emit exactly the verdicts of a tier-free one,
// across Check and CheckBatch. Run at a deliberately undersized 2
// bits/entry too, so heavy false-positive pressure exercises the
// fallback path hard.
func TestBloomVerdictEquivalence(t *testing.T) {
	for _, bits := range []int{2, 10} {
		rng := rand.New(rand.NewSource(int64(31 + bits)))
		base := Config{PromoteThreshold: 3, BloomBitsPerEntry: bits}
		exactCfg := base
		exactCfg.BloomBitsPerEntry = 0

		setA, assigns := trainRandom(rng, base, 400, 6)
		probed, exact := NewStore(setA), NewStore(setOf(exactCfg, assigns))

		const nPeers = 6
		srcOf := func() netaddr.Addr {
			switch rng.Intn(3) {
			case 0: // inside a trained prefix
				a := assigns[rng.Intn(len(assigns))]
				return v4In(a.pfx, uint32(rng.Intn(256)))
			case 1: // adjacent /24 (near-miss)
				a := assigns[rng.Intn(len(assigns))]
				v4, _ := a.pfx.Addr().V4()
				return (v4 ^ (1 << 8) | netaddr.IPv4(rng.Intn(256))).Addr()
			default: // anywhere
				return netaddr.IPv4(rng.Uint32()).Addr()
			}
		}

		for round := 0; round < 200; round++ {
			switch rng.Intn(4) {
			case 0: // promote a source inside an existing prefix at some peer
				a := assigns[rng.Intn(len(assigns))]
				np, src := PeerAS(rng.Intn(nPeers)), v4In(a.pfx, uint32(rng.Intn(256)))
				if vouch(probed, np, src, 3) != vouch(exact, np, src, 3) {
					t.Fatalf("bits=%d round %d: re-homing outcomes diverged", bits, round)
				}
			case 1: // drive a source toward promotion on both stores
				peer, src := PeerAS(rng.Intn(nPeers)), srcOf()
				for i := 0; i < 3; i++ {
					if probed.RecordLegal(peer, src) != exact.RecordLegal(peer, src) {
						t.Fatalf("bits=%d round %d: promotion outcomes diverged", bits, round)
					}
				}
			case 2: // fresh prefix batch
				batch := []assignment{
					{peer: PeerAS(rng.Intn(nPeers)), pfx: netaddr.PrefixFrom4(netaddr.IPv4(rng.Uint32()), 16)},
					{peer: PeerAS(rng.Intn(nPeers)), pfx: netaddr.PrefixFrom4(netaddr.IPv4(rng.Uint32()), 28)},
				}
				publish(probed, batch)
				publish(exact, batch)
				assigns = append(assigns, batch...)
			}

			peers := make([]PeerAS, 32)
			srcs := make([]netaddr.Addr, 32)
			gotB := make([]Verdict, 32)
			wantB := make([]Verdict, 32)
			for i := range srcs {
				peers[i], srcs[i] = PeerAS(rng.Intn(nPeers)), srcOf()
				if got, want := probed.Check(peers[i], srcs[i]), exact.Check(peers[i], srcs[i]); got != want {
					t.Fatalf("bits=%d round %d: Check(%d, %v) = %v, exact store says %v",
						bits, round, peers[i], srcs[i], got, want)
				}
			}
			probed.CheckBatch(peers[0], srcs, gotB)
			exact.CheckBatch(peers[0], srcs, wantB)
			for i := range gotB {
				if gotB[i] != wantB[i] {
					t.Fatalf("bits=%d round %d: CheckBatch[%d] = %v, want %v", bits, round, i, gotB[i], wantB[i])
				}
			}
		}

		// The two stores must have converged to identical serialized state.
		var a, b bytes.Buffer
		if err := probed.Snapshot().WriteCheckpoint(&a); err != nil {
			t.Fatal(err)
		}
		if err := exact.Snapshot().WriteCheckpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("bits=%d: serialized state diverged", bits)
		}
	}
}

// TestBloomRebuildOnOverflow: publishing far more prefixes than the
// initial tier was sized for must trigger the full rebuild from the
// trie, restoring capacity headroom — and stay correct throughout.
func TestBloomRebuildOnOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set, _ := trainRandom(rng, bloomCfg, 50, 3)
	st := NewStore(set)
	t0 := st.snap.Load().tier
	if t0 == nil {
		t.Fatal("no tier")
	}
	cap0 := t0.global.Capacity()

	// Push well past the initial 2x-headroom sizing, one small batch at a
	// time so the incremental clone-and-insert path runs until it can't.
	var added []assignment
	for i := 0; i < 40; i++ {
		batch := make([]assignment, 8)
		for j := range batch {
			batch[j] = assignment{
				peer: PeerAS(rng.Intn(3)),
				pfx:  netaddr.PrefixFrom4(netaddr.IPv4(rng.Uint32()), 24),
			}
		}
		publish(st, batch)
		added = append(added, batch...)
	}
	t1 := st.snap.Load().tier
	if t1.global.Capacity() <= cap0 {
		t.Fatalf("global filter capacity never grew: %d -> %d after %d inserts",
			cap0, t1.global.Capacity(), len(added))
	}
	if t1.global.Overflowed() {
		t.Fatalf("published tier left overflowed: %d entries, capacity %d",
			t1.global.Entries(), t1.global.Capacity())
	}
	for _, a := range added {
		if got := st.Check(a.peer, v4In(a.pfx, 1)); got != Match {
			t.Fatalf("after rebuild: Check(%d, in %v) = %v, want Match", a.peer, a.pfx, got)
		}
	}
}

// TestBloomCheckpointRehydration: filters are not serialized; a store
// built from a checkpoint-restored Set must come up with a live tier
// answering exactly like the store that wrote the checkpoint.
func TestBloomCheckpointRehydration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set, assigns := trainRandom(rng, bloomCfg, 200, 4)
	orig := NewStore(set)

	var ckpt bytes.Buffer
	if err := orig.Snapshot().WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restoredSet := NewSet(bloomCfg)
	if err := ReadCheckpointInto(restoredSet, &ckpt); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(restoredSet)
	if restored.snap.Load().tier == nil {
		t.Fatal("restored store has no Bloom tier")
	}
	for i := 0; i < 2000; i++ {
		peer, src := PeerAS(rng.Intn(4)), netaddr.IPv4(rng.Uint32()).Addr()
		if i%2 == 0 { // half the probes inside trained space
			a := assigns[rng.Intn(len(assigns))]
			src = v4In(a.pfx, uint32(rng.Intn(256)))
		}
		if got, want := restored.Check(peer, src), orig.Check(peer, src); got != want {
			t.Fatalf("probe %d: restored Check(%d, %v) = %v, original says %v", i, peer, src, got, want)
		}
	}
}

// TestBloomMetrics: the diagnostic counters must account for every
// batch check (fastpath + fallbacks + bypassed = checks) and for no
// single-address Check, false positives can only be a subset of
// fallbacks, and the writer refreshes the gauges.
func TestBloomMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	set, _ := trainRandom(rng, bloomCfg, 300, 4)
	st := NewStore(set)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	st.SetMetrics(m)

	if m.BloomBits.Value() == 0 {
		t.Error("BloomBits gauge not seeded by SetMetrics")
	}

	const n = 5000
	srcs := make([]netaddr.Addr, n)
	out := make([]Verdict, n)
	for i := range srcs {
		srcs[i] = netaddr.IPv4(rng.Uint32()).Addr()
	}
	st.CheckBatch(1, srcs, out)
	for i := 0; i < 100; i++ {
		st.Check(2, netaddr.IPv4(rng.Uint32()).Addr())
	}

	fast, fall := m.BloomFastpath.Value(), m.BloomFallbacks.Value()
	fp, byp := m.BloomFalsePositives.Value(), m.BloomBypassed.Value()
	if fast+fall+byp != n {
		t.Errorf("fastpath(%d) + fallbacks(%d) + bypassed(%d) = %d, want %d batch checks",
			fast, fall, byp, fast+fall+byp, n)
	}
	if fp > fall {
		t.Errorf("false positives (%d) exceed fallbacks (%d)", fp, fall)
	}
	if fast == 0 {
		t.Error("random-source probes never hit the fast path")
	}

	// A publication refreshes the fill gauge. It may move either way — a
	// big batch can trigger a rebuild at doubled capacity, lowering the
	// ratio — but it must change from the seeded value and stay sane.
	before := m.BloomFillPermille.Value()
	var batch []assignment
	for i := 0; i < 200; i++ {
		batch = append(batch, assignment{peer: 1, pfx: netaddr.PrefixFrom4(netaddr.IPv4(rng.Uint32()), 24)})
	}
	publish(st, batch)
	after := m.BloomFillPermille.Value()
	if after == before {
		t.Errorf("fill gauge not refreshed on publication (still %d)", before)
	}
	if after <= 0 || after >= 1000 {
		t.Errorf("fill gauge out of range after publication: %d", after)
	}
}

// TestBloomBatchBypass: a batch of expected traffic — every probe falls
// back to the exact walk — must stop probing after the adaptive
// threshold and go straight to the trie for the remainder, while a
// spoofed-flood batch (fast-path resolutions) never trips the bypass.
// Verdicts are unaffected either way; that is what the equivalence tests
// pin down.
func TestBloomBatchBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	set, inserted := trainRandom(rng, bloomCfg, 300, 4)
	st := NewStore(set)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	st.SetMetrics(m)

	const n = 256
	peer := inserted[0].peer
	var own []assignment
	for _, a := range inserted {
		if a.peer == peer {
			own = append(own, a)
		}
	}
	legal := make([]netaddr.Addr, n)
	out := make([]Verdict, n)
	for i := range legal {
		legal[i] = v4In(own[i%len(own)].pfx, 1)
	}
	// Sources in peer's own set: every probe defers to the walk.
	st.CheckBatch(peer, legal, out)
	if got := m.BloomBypassed.Value(); got != n-bloomBypassAfter {
		t.Errorf("CheckBatch on expected traffic bypassed %d probes, want %d", got, n-bloomBypassAfter)
	}
	if got := m.BloomFallbacks.Value(); got != bloomBypassAfter {
		t.Errorf("CheckBatch on expected traffic fell back %d times, want %d", got, bloomBypassAfter)
	}
	for i := range out {
		if out[i] != Match {
			t.Fatalf("bypassed check [%d] = %v, want Match", i, out[i])
		}
	}

	// A spoofed flood resolves on the fast path; the occasional filter
	// false positive must not accumulate into a bypass streak.
	before := m.BloomBypassed.Value()
	flood := make([]netaddr.Addr, n)
	for i := range flood {
		flood[i] = netaddr.IPv4(rng.Uint32()).Addr()
	}
	st.CheckBatch(1, flood, out)
	if got := m.BloomBypassed.Value(); got != before {
		t.Errorf("flood batch bypassed %d probes, want 0", got-before)
	}
}
