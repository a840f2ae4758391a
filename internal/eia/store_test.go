package eia

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

// storeOf builds a Set from "<peerAS> <cidr>" rows, as an EIA file
// loads, and publishes it in a new Store.
func storeOf(t *testing.T, cfg Config, rows ...string) *Store {
	t.Helper()
	set := NewSet(cfg)
	if err := ReadInto(set, strings.NewReader(strings.Join(rows, "\n"))); err != nil {
		t.Fatal(err)
	}
	return NewStore(set)
}

// vouch calls RecordLegal for src at peer n times and reports whether
// the last call promoted.
func vouch(st *Store, peer PeerAS, src netaddr.Addr, n int) bool {
	promoted := false
	for i := 0; i < n; i++ {
		promoted = st.RecordLegal(peer, src)
	}
	return promoted
}

func TestStoreSemantics(t *testing.T) {
	cs := storeOf(t, Config{}, "1 61.0.0.0/11", "2 70.0.0.0/11")

	if got := cs.Check(1, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("Check = %v, want Match", got)
	}
	if got := cs.Check(1, netaddr.MustParseAddr("70.1.1.1")); got != WrongPeer {
		t.Errorf("Check = %v, want WrongPeer", got)
	}
	if got := cs.Check(1, netaddr.MustParseAddr("99.1.1.1")); got != Unknown {
		t.Errorf("Check = %v, want Unknown", got)
	}
	if snap := cs.Snapshot(); snap.Len() != 2 || !reflect.DeepEqual(snap.Peers(), []PeerAS{1, 2}) {
		t.Errorf("Len = %d, Peers = %v", snap.Len(), snap.Peers())
	}

	// Promotion through the store behaves like the bare set.
	src := netaddr.MustParseAddr("99.2.3.4")
	if !vouch(cs, 3, src, DefaultPromoteThreshold) {
		t.Fatal("RecordLegal never promoted at the threshold")
	}
	if got := cs.Check(3, src); got != Match {
		t.Errorf("post-promotion Check = %v, want Match", got)
	}
}

// TestStoreRehoming covers the route-change path: promoting a prefix
// another peer holds must move it (and its count) in the next snapshot.
func TestStoreRehoming(t *testing.T) {
	cs := storeOf(t, Config{PromoteThreshold: 2}, "1 61.1.1.0/24")
	src := netaddr.MustParseAddr("61.1.1.1")
	if !vouch(cs, 2, src, 2) {
		t.Fatal("re-homing promotion did not happen")
	}
	snap := cs.Snapshot()
	if snap.Len() != 1 {
		t.Errorf("Len = %d after re-home, want 1", snap.Len())
	}
	if got := snap.Peers(); !reflect.DeepEqual(got, []PeerAS{2}) {
		t.Errorf("Peers = %v after re-home, want [2] (peer 1's count must drop to 0)", got)
	}
	if got := cs.Check(2, src); got != Match {
		t.Errorf("Check after re-home = %v, want Match", got)
	}
	if got := cs.Check(1, src); got != WrongPeer {
		t.Errorf("Check at the old peer = %v, want WrongPeer", got)
	}
	// Promoting the same mapping again publishes nothing.
	vouch(cs, 2, src, 2)
	if cs.Snapshot() != snap {
		t.Error("an unchanged promotion published a new snapshot")
	}
}

// TestStoreBatchPublish checks that MergeSet lands a whole batch in one
// swap and that a snapshot taken before a publication stays as it was.
func TestStoreBatchPublish(t *testing.T) {
	cs := NewStore(nil)
	before := cs.Snapshot()
	batch := NewSet(Config{})
	batch.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	batch.AddPrefix(1, netaddr.MustParsePrefix("88.32.0.0/11"))
	batch.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))
	if added, rehomed := cs.MergeSet(batch); added != 3 || rehomed != 0 {
		t.Fatalf("MergeSet = (%d, %d), want (3, 0)", added, rehomed)
	}
	after := cs.Snapshot()
	if after.Len() != 3 || !reflect.DeepEqual(after.Peers(), []PeerAS{1, 2}) {
		t.Errorf("after: Len = %d, Peers = %v", after.Len(), after.Peers())
	}
	if before.Len() != 0 || len(before.Peers()) != 0 {
		t.Errorf("earlier snapshot changed: Len = %d, Peers = %v", before.Len(), before.Peers())
	}
}

// TestStoreAdoptsSetState verifies NewStore carries over prefixes and
// config from the seed Set, and that the published snapshot serializes
// the same state as plain rows and as a checkpoint.
func TestStoreAdoptsSetState(t *testing.T) {
	cs := storeOf(t, Config{PromoteThreshold: 3}, "1 61.0.0.0/11")
	src := netaddr.MustParseAddr("99.2.3.4")

	if got := cs.Check(1, netaddr.MustParseAddr("61.1.1.1")); got != Match {
		t.Errorf("adopted prefix Check = %v, want Match", got)
	}
	if cs.RecordLegal(2, src) || cs.RecordLegal(2, src) {
		t.Error("promoted before 3 of 3")
	}
	if !cs.RecordLegal(2, src) {
		t.Error("not promoted at 3 of 3")
	}
	var a bytes.Buffer
	if err := cs.Snapshot().WriteCheckpoint(&a); err != nil {
		t.Fatal(err)
	}
	want := "# infilter-eia-checkpoint v2\n1 4 61.0.0.0/11\n2 4 99.2.3.0/24\n"
	if a.String() != want {
		t.Errorf("WriteCheckpoint = %q, want %q", a.String(), want)
	}
	// The checkpoint loads to the same state through the plain EIA-file
	// reader and the checkpoint reader.
	fromPlain, fromCkpt := NewSet(Config{}), NewSet(Config{})
	if err := ReadInto(fromPlain, strings.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if err := ReadCheckpointInto(fromCkpt, strings.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var aa, bb bytes.Buffer
	if err := fromPlain.WriteCheckpoint(&aa); err != nil {
		t.Fatal(err)
	}
	if err := fromCkpt.WriteCheckpoint(&bb); err != nil {
		t.Fatal(err)
	}
	if aa.String() != want || bb.String() != want {
		t.Errorf("reloaded checkpoints diverge: plain %q, checkpoint %q", aa.String(), bb.String())
	}
}

// TestSharedSetRefusesWrites: a Set adopted by NewStore, returned by
// Snapshot, or passed to or returned from Merge shares its trie with
// lock-free readers, so every write path panics on it, and the store's
// verdicts are unchanged afterwards.
func TestSharedSetRefusesWrites(t *testing.T) {
	adopted := NewSet(Config{})
	adopted.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	adopted.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))
	store := NewStore(adopted)
	a, b := NewSet(Config{}), NewSet(Config{})
	a.AddPrefix(3, netaddr.MustParsePrefix("10.0.0.0/8"))
	merged := Merge(a, b)

	srcs := []netaddr.Addr{
		netaddr.MustParseAddr("61.1.1.1"),
		netaddr.MustParseAddr("70.1.1.1"),
		netaddr.MustParseAddr("99.1.1.1"),
		netaddr.MustParseAddr("10.1.1.1"),
	}
	verdicts := func() []Verdict {
		out := make([]Verdict, len(srcs))
		store.CheckBatch(1, srcs, out)
		return out
	}
	before := verdicts()

	writes := map[string]func(*Set){
		"AddPrefix": func(s *Set) { s.AddPrefix(1, netaddr.MustParsePrefix("99.0.0.0/8")) },
		"Train": func(s *Set) {
			s.Train([]TrainingSource{{Peer: 1, Src: netaddr.MustParseAddr("10.1.1.1")}}, 24)
		},
		"ReadInto": func(s *Set) { ReadInto(s, strings.NewReader("1 99.0.0.0/8\n")) },
	}
	sets := map[string]*Set{
		"NewStore's input": adopted,
		"Snapshot":         store.Snapshot(),
		"Merge's input a":  a,
		"Merge's input b":  b,
		"Merge's result":   merged,
	}
	for setName, s := range sets {
		for writeName, write := range writes {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %s did not panic", writeName, setName)
					}
				}()
				write(s)
			}()
		}
	}
	if after := verdicts(); !reflect.DeepEqual(after, before) {
		t.Errorf("verdicts after refused writes = %v, want %v", after, before)
	}
	if got := merged.Len(); got != 1 {
		t.Errorf("Merge's result holds %d prefixes after refused writes, want 1", got)
	}
}

// TestStoreCheckBatchMatchesCheck replays one source column through both
// the per-record and the batched entry point at every peer (expected,
// other and never-seen): the verdicts must be identical, since CheckBatch
// only amortizes the snapshot load, and a promotion published between
// batches is visible to the next one.
func TestStoreCheckBatchMatchesCheck(t *testing.T) {
	cs := storeOf(t, Config{}, "1 61.0.0.0/11", "2 70.0.0.0/11")

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
	cs := storeOf(t, Config{}, "1 61.0.0.0/11")
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
	set := NewSet(Config{})
	for i := 0; i < 8; i++ {
		set.AddPrefix(PeerAS(i+1), netaddr.PrefixFrom4(netaddr.IPv4(uint32(i+10)<<24), 8))
	}
	cs := NewStore(set)
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
				if i%100 == 0 {
					snap := cs.Snapshot()
					snap.Len()
					snap.Peers()
					var buf bytes.Buffer
					if err := snap.WriteCheckpoint(&buf); err != nil {
						t.Errorf("WriteCheckpoint: %v", err)
					}
					Merge(snap, NewSet(Config{}))
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
