package eia

import (
	"bytes"
	"sync"
	"testing"

	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

func TestStoreSemantics(t *testing.T) {
	cs := NewStore(nil)
	cs.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	cs.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))

	if got := cs.Check(1, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("Check = %v, want Match", got)
	}
	if got := cs.Check(1, netaddr.MustParseAddr("70.1.1.1")); got != WrongPeer {
		t.Errorf("Check = %v, want WrongPeer", got)
	}
	if got := cs.Check(1, netaddr.MustParseAddr("99.1.1.1")); got != Unknown {
		t.Errorf("Check = %v, want Unknown", got)
	}
	if peer, ok := cs.ExpectedPeer(netaddr.MustParseAddr("70.1.1.1")); !ok || peer != 2 {
		t.Errorf("ExpectedPeer = %v, %v", peer, ok)
	}
	if cs.Len() != 2 || cs.PeerPrefixCount(1) != 1 {
		t.Errorf("Len = %d, PeerPrefixCount(1) = %d", cs.Len(), cs.PeerPrefixCount(1))
	}

	// Promotion through the store behaves like the bare set.
	src := netaddr.MustParseAddr("99.2.3.4")
	var promoted bool
	for i := 0; i < DefaultPromoteThreshold; i++ {
		promoted = cs.RecordLegal(3, src)
	}
	if !promoted {
		t.Fatal("RecordLegal never promoted at the threshold")
	}
	if got := cs.Check(3, src); got != Match {
		t.Errorf("post-promotion Check = %v, want Match", got)
	}
}

// TestStoreRehoming covers the route-change path: re-inserting a prefix
// for a different peer must move it (and its count) in the next snapshot.
func TestStoreRehoming(t *testing.T) {
	cs := NewStore(nil)
	p := netaddr.MustParsePrefix("61.0.0.0/11")
	cs.AddPrefix(1, p)
	cs.AddPrefix(2, p)
	if cs.Len() != 1 {
		t.Errorf("Len = %d after re-home, want 1", cs.Len())
	}
	if got := cs.PeerPrefixCount(1); got != 0 {
		t.Errorf("PeerPrefixCount(1) = %d, want 0", got)
	}
	if got := cs.PeerPrefixCount(2); got != 1 {
		t.Errorf("PeerPrefixCount(2) = %d, want 1", got)
	}
	if got := cs.Check(2, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("Check after re-home = %v, want Match", got)
	}
	// Re-inserting the same mapping publishes nothing and changes nothing.
	cs.AddPrefix(2, p)
	if cs.Len() != 1 || cs.PeerPrefixCount(2) != 1 {
		t.Errorf("idempotent re-insert: Len=%d count=%d", cs.Len(), cs.PeerPrefixCount(2))
	}
}

// TestStoreBatchPublish checks that AddPrefixes lands a whole batch and
// Train aggregates to the promote mask, as Set.Train does.
func TestStoreBatchPublish(t *testing.T) {
	cs := NewStore(nil)
	cs.AddPrefixes([]Assignment{
		{Peer: 1, Prefix: netaddr.MustParsePrefix("61.0.0.0/11")},
		{Peer: 1, Prefix: netaddr.MustParsePrefix("88.32.0.0/11")},
		{Peer: 2, Prefix: netaddr.MustParsePrefix("70.0.0.0/11")},
	})
	if cs.Len() != 3 || cs.PeerPrefixCount(1) != 2 {
		t.Errorf("Len = %d, PeerPrefixCount(1) = %d", cs.Len(), cs.PeerPrefixCount(1))
	}
	cs.Train([]TrainingSource{{Peer: 3, Src: netaddr.MustParseAddr("10.1.2.3")}}, 0)
	if got := cs.Check(3, netaddr.MustParseAddr("10.1.2.99")); got != Match {
		t.Errorf("trained /24 Check = %v, want Match", got)
	}
	if got := len(cs.Peers()); got != 3 {
		t.Errorf("Peers = %d, want 3", got)
	}
}

// TestStoreAdoptsSetState verifies NewStore carries over prefixes and
// config from the seed Set.
func TestStoreAdoptsSetState(t *testing.T) {
	set := NewSet(Config{PromoteThreshold: 3})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	src := netaddr.MustParseAddr("99.2.3.4")

	cs := NewStore(set)
	if got := cs.Check(1, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("adopted prefix Check = %v, want Match", got)
	}
	if cs.RecordLegal(2, src) || cs.RecordLegal(2, src) {
		t.Error("promoted before 3 of 3")
	}
	if got := cs.PendingCount(2, src); got != 2 {
		t.Errorf("PendingCount = %d, want 2", got)
	}
	if !cs.RecordLegal(2, src) {
		t.Error("not promoted at 3 of 3")
	}
	var a, b bytes.Buffer
	if _, err := cs.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Error("WriteTo wrote nothing")
	}
	if err := cs.WriteCheckpoint(&b); err != nil {
		t.Fatal(err)
	}
	// The checkpoint carries exactly the WriteTo state, re-encoded as
	// family-tagged v2 rows under the version header.
	fromPlain, fromCkpt := NewSet(Config{}), NewSet(Config{})
	if err := ReadInto(fromPlain, &a); err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpointInto(fromCkpt, &b); err != nil {
		t.Fatal(err)
	}
	var aa, bb bytes.Buffer
	if _, err := fromPlain.WriteTo(&aa); err != nil {
		t.Fatal(err)
	}
	if _, err := fromCkpt.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aa.Bytes(), bb.Bytes()) {
		t.Error("checkpoint state diverges from WriteTo state")
	}
}

// TestStoreCheckBatchMatchesCheck replays one source column through both
// the per-record and the batched entry point at every peer (expected,
// other and never-seen): the verdicts must be identical, since CheckBatch
// only amortizes the snapshot load, and a promotion published between
// batches is visible to the next one.
func TestStoreCheckBatchMatchesCheck(t *testing.T) {
	cs := NewStore(nil)
	cs.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	cs.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))

	srcs := []netaddr.Addr{
		netaddr.MustParseAddr("61.1.1.1"),
		netaddr.MustParseAddr("70.1.1.1"),
		netaddr.MustParseAddr("99.1.1.1"),
		netaddr.MustParseAddr("61.31.0.9"),
		netaddr.MustParseAddr("70.31.0.9"),
	}
	out := make([]Verdict, len(srcs))
	seen := map[Verdict]bool{}
	for _, peer := range []PeerAS{1, 2, 9} {
		cs.CheckBatch(peer, srcs, out)
		for i := range srcs {
			if want := cs.Check(peer, srcs[i]); out[i] != want {
				t.Errorf("peer %d src %d: CheckBatch = %v, Check = %v", peer, i, out[i], want)
			}
			seen[out[i]] = true
		}
	}
	if len(seen) != 3 {
		t.Errorf("verdicts produced = %v, want all three", seen)
	}

	for i := 0; i < DefaultPromoteThreshold; i++ {
		cs.RecordLegal(9, srcs[2])
	}
	cs.CheckBatch(9, srcs, out)
	if out[2] != Match {
		t.Errorf("post-promotion batch verdict = %v, want Match", out[2])
	}
}

func TestStoreCheckBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CheckBatch with mismatched slice lengths did not panic")
		}
	}()
	cs := NewStore(nil)
	cs.CheckBatch(1, make([]netaddr.Addr, 2), make([]Verdict, 1))
}

// TestStoreAddVerdictCounts pins the bulk counting entry point the batch
// loop settles consumed verdicts through.
func TestStoreAddVerdictCounts(t *testing.T) {
	cs := NewStore(nil)
	cs.AddVerdictCounts(netaddr.FamilyV4, 1, 2) // no metrics installed: must not panic
	m := &Metrics{
		Hits:       telemetry.NewFamilyCounter(),
		Misses:     telemetry.NewFamilyCounter(),
		Promotions: telemetry.NewCounter(),
	}
	cs.SetMetrics(m)
	cs.AddVerdictCounts(netaddr.FamilyV4, 3, 5)
	cs.AddVerdictCounts(netaddr.FamilyV6, 2, 1)
	if m.Hits.Value() != 5 || m.Misses.Value() != 6 {
		t.Errorf("after AddVerdictCounts: hits=%d misses=%d, want 5/6", m.Hits.Value(), m.Misses.Value())
	}
	if m.Hits.V6.Value() != 2 || m.Misses.V6.Value() != 1 {
		t.Errorf("v6 counts: hits=%d misses=%d, want 2/1", m.Hits.V6.Value(), m.Misses.V6.Value())
	}
}

// TestStoreCheckBatchMetrics pins the counting contract: CheckBatch and
// Check leave the hit/miss counters alone (the batch loop may re-check a
// batch tail after a mid-batch promotion and settles through
// AddVerdictCounts).
func TestStoreCheckBatchMetrics(t *testing.T) {
	cs := NewStore(nil)
	cs.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	m := &Metrics{
		Hits:       telemetry.NewFamilyCounter(),
		Misses:     telemetry.NewFamilyCounter(),
		Promotions: telemetry.NewCounter(),
	}
	cs.SetMetrics(m)

	srcs := []netaddr.Addr{
		netaddr.MustParseAddr("61.1.1.1"), // Match
		netaddr.MustParseAddr("99.1.1.1"), // Unknown
		netaddr.MustParseAddr("99.2.2.2"), // Unknown
	}
	out := make([]Verdict, len(srcs))
	cs.CheckBatch(1, srcs, out)
	if m.Hits.Value() != 0 || m.Misses.Value() != 0 {
		t.Errorf("CheckBatch counted: hits=%d misses=%d, want 0/0", m.Hits.Value(), m.Misses.Value())
	}
	for _, src := range srcs {
		cs.Check(1, src)
	}
	if m.Hits.Value() != 0 || m.Misses.Value() != 0 {
		t.Errorf("Check counted: hits=%d misses=%d, want 0/0", m.Hits.Value(), m.Misses.Value())
	}
}

// TestStoreParallelAccess hammers the store from many goroutines; under
// -race it proves the lock-free Check path and the single-writer side
// are coherent (readers only ever see fully published snapshots).
func TestStoreParallelAccess(t *testing.T) {
	cs := NewStore(nil)
	for i := 0; i < 8; i++ {
		cs.AddPrefix(PeerAS(i+1), netaddr.PrefixFrom4(netaddr.IPv4(uint32(i+10)<<24), 8))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			peer := PeerAS(g + 1)
			base := netaddr.IPv4(uint32(g+100) << 24)
			for i := 0; i < 500; i++ {
				src := (base + netaddr.IPv4(i%7)<<8).Addr()
				cs.Check(peer, src)
				cs.RecordLegal(peer, src)
				cs.ExpectedPeer(src)
				if i%100 == 0 {
					cs.Len()
					cs.Peers()
					var buf bytes.Buffer
					if _, err := cs.WriteTo(&buf); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine vouched ~72 times for each of 7 disjoint /24s, far
	// past the promotion threshold: every subnet must have been promoted.
	for g := 0; g < 8; g++ {
		if got := cs.Check(PeerAS(g+1), netaddr.IPv4(uint32(g+100)<<24).Addr()); got != Match {
			t.Errorf("goroutine %d subnet not promoted: %v", g, got)
		}
	}
}
